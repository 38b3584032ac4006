package poly_test

import (
	"fmt"
	"math/big"

	"repro/internal/poly"
)

// ExampleRatPoly builds the paper's Section 5.2.1 optimality condition
// β² - 2β + 6/7 and evaluates it exactly.
func ExampleRatPoly() {
	cond, err := poly.RatPolyFromFracs([]int64{6, -2, 1}, []int64{7, 1, 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("condition:", cond)
	fmt.Println("value at 1/2:", cond.Eval(big.NewRat(1, 2)).RatString())
	// Output:
	// condition: x^2 - 2·x + 6/7
	// value at 1/2: 3/28
}

// ExampleRefineRoot isolates the real roots of the Section 5.2.1
// optimality condition inside (0, 1] with Sturm sequences and refines them.
func ExampleRefineRoot() {
	cond, err := poly.RatPolyFromFracs([]int64{6, -2, 1}, []int64{7, 1, 1})
	if err != nil {
		panic(err)
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	ivs, err := poly.IsolateRoots(cond, new(big.Rat), big.NewRat(1, 1))
	if err != nil {
		panic(err)
	}
	root, err := poly.RefineRoot(cond, ivs[0], tol)
	if err != nil {
		panic(err)
	}
	fmt.Printf("roots in (0, 1]: %d\n", len(ivs))
	fmt.Printf("β* = %.12f\n", root.MidFloat())
	// Output:
	// roots in (0, 1]: 1
	// β* = 0.622035526991
}

// ExamplePiecewise assembles the paper's n=3, δ=1 winning probability and
// finds its certified global maximum.
func ExamplePiecewise() {
	low, err := poly.RatPolyFromFracs([]int64{1, 0, 3, -1}, []int64{6, 1, 2, 2})
	if err != nil {
		panic(err)
	}
	high, err := poly.RatPolyFromFracs([]int64{-11, 9, -21, 7}, []int64{6, 1, 2, 2})
	if err != nil {
		panic(err)
	}
	pw, err := poly.NewPiecewise(
		[]*big.Rat{new(big.Rat), big.NewRat(1, 2), big.NewRat(1, 1)},
		[]poly.RatPoly{low, high},
	)
	if err != nil {
		panic(err)
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	ext, err := pw.GlobalMax(tol)
	if err != nil {
		panic(err)
	}
	val, _ := ext.Value.Float64()
	fmt.Printf("max P = %.6f at β = %.6f (piece %d)\n", val, ext.X.MidFloat(), ext.PieceIndex)
	// Output:
	// max P = 0.544631 at β = 0.622036 (piece 1)
}
