package nonoblivious

import (
	"fmt"
	"math/big"

	"repro/internal/dist"
	"repro/internal/poly"
)

// MaxNExact bounds the player count for the exact rational Theorem 5.1
// evaluation of general threshold vectors: the cap of the branch oracle
// dist.WinProbabilityRat behind WinningProbabilityPiRat.
const MaxNExact = dist.MaxBranchPlayers

// OptimalityResidual evaluates the Theorem 5.2 optimality condition for
// the symmetric single-threshold algorithm: dP/dβ at the given rational β,
// computed exactly from the symbolic piecewise polynomial. A zero value
// (together with a negative second derivative) certifies a stationary
// point of the winning probability; the paper's optimal β* satisfies
// residual = 0. At the exact breakpoints the left piece's derivative is
// reported.
func OptimalityResidual(n int, capacity, beta *big.Rat) (*big.Rat, error) {
	if beta == nil || beta.Sign() < 0 || beta.Cmp(big.NewRat(1, 1)) > 0 {
		return nil, fmt.Errorf("nonoblivious: threshold outside [0, 1]")
	}
	pw, err := SymbolicSymmetric(n, capacity)
	if err != nil {
		return nil, err
	}
	return pw.Derivative().Eval(beta)
}

// SecondDerivative evaluates d²P/dβ² at β from the symbolic curve — used
// together with OptimalityResidual to certify a maximum.
func SecondDerivative(n int, capacity, beta *big.Rat) (*big.Rat, error) {
	if beta == nil || beta.Sign() < 0 || beta.Cmp(big.NewRat(1, 1)) > 0 {
		return nil, fmt.Errorf("nonoblivious: threshold outside [0, 1]")
	}
	pw, err := SymbolicSymmetric(n, capacity)
	if err != nil {
		return nil, err
	}
	return pw.Derivative().Derivative().Eval(beta)
}

// SweepOptima derives the certified optimum for each instance size in ns
// with the capacity produced by scale (for example δ = n/3). It is the
// engine behind the uniformity analyses: the returned β* sequence is
// non-constant, demonstrating the paper's non-uniformity theorem.
func SweepOptima(ns []int, scale func(n int) *big.Rat) ([]OptimalResult, error) {
	if scale == nil {
		return nil, fmt.Errorf("nonoblivious: nil capacity scaling")
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("nonoblivious: empty instance list")
	}
	out := make([]OptimalResult, len(ns))
	for i, n := range ns {
		capacity := scale(n)
		res, err := OptimalSymmetric(n, capacity)
		if err != nil {
			return nil, fmt.Errorf("nonoblivious: optimum for n=%d: %w", n, err)
		}
		out[i] = res
	}
	return out, nil
}

// PolyFromCondition normalizes an optimality-condition polynomial to monic
// form for presentation (the paper reports the monic β² - 2β + 6/7).
func PolyFromCondition(cond poly.RatPoly) poly.RatPoly {
	if cond.IsZero() {
		return cond
	}
	lead := cond.LeadingCoeff()
	if lead.Sign() == 0 {
		return cond
	}
	return cond.Scale(new(big.Rat).Inv(lead))
}
