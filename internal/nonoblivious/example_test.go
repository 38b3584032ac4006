package nonoblivious_test

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/nonoblivious"
)

// ExampleOptimalSymmetric re-derives the paper's two case studies in a few
// lines: the Section 5.2.1 optimum (settling the PY91 conjecture) and the
// Section 5.2.2 optimum.
func ExampleOptimalSymmetric() {
	n3, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		panic(err)
	}
	n4, err := nonoblivious.OptimalSymmetric(4, big.NewRat(4, 3))
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=3, δ=1:   β* = %.6f, P* = %.6f\n", n3.BetaFloat, n3.WinProbabilityFloat)
	fmt.Printf("n=4, δ=4/3: β* = %.6f, P* = %.6f\n", n4.BetaFloat, n4.WinProbabilityFloat)
	fmt.Printf("non-uniform: %v\n", n3.BetaFloat != n4.BetaFloat)
	// Output:
	// n=3, δ=1:   β* = 0.622036, P* = 0.544631
	// n=4, δ=4/3: β* = 0.677998, P* = 0.428539
	// non-uniform: true
}

// ExampleOptimalSymmetric_condition derives the Section 5.2.1 headline
// result: the certified optimal threshold for three players is 1 - √(1/7),
// the root of the printed optimality condition.
func ExampleOptimalSymmetric_condition() {
	opt, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("β* = %.6f (= 1 - √(1/7): %v)\n", opt.BetaFloat,
		math.Abs(opt.BetaFloat-(1-math.Sqrt(1.0/7))) < 1e-12)
	fmt.Printf("P* = %.6f\n", opt.WinProbabilityFloat)
	fmt.Printf("optimality condition: %s = 0\n", opt.Condition)
	// Output:
	// β* = 0.622036 (= 1 - √(1/7): true)
	// P* = 0.544631
	// optimality condition: 21/2·x^2 - 21·x + 9 = 0
}

// ExampleSymbolicSymmetric prints the exact piecewise polynomial P(β) the
// paper derives by hand in Section 5.2.1.
func ExampleSymbolicSymmetric() {
	pw, err := nonoblivious.SymbolicSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		panic(err)
	}
	fmt.Println(pw)
	// Output:
	// [0, 1/3]: -1/2·x^3 + 3/2·x^2 + 1/6
	// [1/3, 1/2]: -1/2·x^3 + 3/2·x^2 + 1/6
	// [1/2, 1]: 7/2·x^3 - 21/2·x^2 + 9·x - 11/6
}

// ExampleWinningProbability evaluates Theorem 5.1 for a non-symmetric
// threshold vector.
func ExampleWinningProbability() {
	p, err := nonoblivious.WinningProbability([]float64{0.5, 0.6, 0.7}, 1.0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(win) = %.6f\n", p)
	// Output:
	// P(win) = 0.538667
}
