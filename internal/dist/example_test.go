package dist_test

import (
	"fmt"
	"math/big"

	"repro/internal/dist"
)

// ExampleIrwinHallLadder evaluates Corollary 2.6: the probability that
// the sum of three unit uniforms stays below 1 is the volume of the unit
// simplex. One ladder at x = 2.5 reads F_m(2.5 − i) for every shift i.
func ExampleIrwinHallLadder() {
	var l dist.IrwinHallLadder
	l.Reset(2.5, 3)
	for l.Order() < 3 {
		l.Step()
	}
	fmt.Printf("F_3(2.5) = %.6f\n", l.CDF(0))
	fmt.Printf("F_3(1.5) = %.6f (symmetry about the mean)\n", l.CDF(1))
	fmt.Printf("F_3(0.5) = %.6f\n", l.CDF(2))
	// Output:
	// F_3(2.5) = 0.979167
	// F_3(1.5) = 0.500000 (symmetry about the mean)
	// F_3(0.5) = 0.020833
}

// ExampleIrwinHallCDFRat evaluates the same CDF exactly: F_3(1) = 1/6.
func ExampleIrwinHallCDFRat() {
	v, err := dist.IrwinHallCDFRat(3, big.NewRat(1, 1))
	if err != nil {
		panic(err)
	}
	fmt.Println("F_3(1) =", v.RatString())
	// Output:
	// F_3(1) = 1/6
}

// ExampleUniformSum evaluates Lemma 2.4 for asymmetric interval widths:
// P(x + y ≤ 1) with x ~ U[0,1], y ~ U[0,2] is 1/4.
func ExampleUniformSum() {
	u, err := dist.NewUniformSum([]float64{1, 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(x+y ≤ 1) = %.4f\n", u.CDF(1))
	fmt.Printf("density at the mode: f(1.5) = %.4f\n", u.PDF(1.5))
	// Output:
	// P(x+y ≤ 1) = 0.2500
	// density at the mode: f(1.5) = 0.5000
}

// ExampleShiftedUniformSum evaluates Lemma 2.7: the conditional load of a
// bin that received two inputs known to exceed their thresholds.
func ExampleShiftedUniformSum() {
	s, err := dist.NewShiftedUniformSum([]float64{0.622, 0.622})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(load ≤ 1.5 | both above 0.622) = %.4f\n", s.CDF(1.5))
	// Output:
	// P(load ≤ 1.5 | both above 0.622) = 0.2293
}
