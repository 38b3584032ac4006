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

// ExampleCDFRat_irwinHall evaluates the same CDF exactly, as Lemma 2.4
// at three unit widths: F_3(1) = 1/6.
func ExampleCDFRat_irwinHall() {
	one := big.NewRat(1, 1)
	v, err := dist.CDFRat([]*big.Rat{one, one, one}, one)
	if err != nil {
		panic(err)
	}
	fmt.Println("F_3(1) =", v.RatString())
	// Output:
	// F_3(1) = 1/6
}

// ExampleCDFRat evaluates Lemma 2.4 exactly for asymmetric interval
// widths: with x ~ U[0,1] and y ~ U[0,2], P(x + y ≤ 1) is a triangle of
// area 1/2 in a rectangle of area 2.
func ExampleCDFRat() {
	widths := []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1)}
	for _, t := range []int64{1, 2} {
		v, err := dist.CDFRat(widths, big.NewRat(t, 1))
		if err != nil {
			panic(err)
		}
		fmt.Printf("P(x+y ≤ %d) = %s\n", t, v.RatString())
	}
	// Output:
	// P(x+y ≤ 1) = 1/4
	// P(x+y ≤ 2) = 3/4
}
