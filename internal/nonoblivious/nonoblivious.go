// Package nonoblivious implements Section 5 of the paper: winning
// probabilities and optimality analysis for non-oblivious single-threshold
// algorithms with no communication, in which player i chooses bin 0 exactly
// when its input is at most the threshold a_i.
//
// Three layers of machinery are provided:
//
//   - WinningProbability — Theorem 5.1 for an arbitrary threshold vector,
//     evaluated as Σ_b N₀(b)·N₁(b) where N₀ is the joint probability that
//     the "low" players fit in bin 0 (a Proposition 2.2 volume) and N₁ the
//     joint probability that the "high" players fit in bin 1 (a Lemma 2.7
//     tail). Both numerator families are tabulated for every subset at
//     once by per-cardinality sum-over-subsets transforms (O(n²·2^n)
//     total; see WinningProbability), with an O(n²) fast path for
//     symmetric thresholds.
//   - SymbolicSymmetric — the exact Section 5.2 analysis for any n and
//     rational δ: the winning probability as a piecewise polynomial in the
//     common threshold β with exact rational breakpoints and coefficients.
//   - OptimalSymmetric — the certified optimum: Sturm-isolated roots of
//     the per-piece derivative (the specialization of the Theorem 5.2
//     optimality condition), refined by rational bisection.
package nonoblivious

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/poly"
	"repro/internal/problem"
)

// MaxNGeneral bounds the player count for arbitrary threshold vectors.
// The sum-over-subsets evaluation (see WinningProbability) costs
// O(n²·2^n) time and a handful of 2^n-entry float64 tables, which is what
// allows 20 players where the old Θ(3^n) per-subset inclusion-exclusion
// capped out at 15. Its accuracy is not certified at that size:
// ExactErrorBound is 1.7e3 at n = 20, and the N₁ table, a product minus a
// zeta-summed alternating tail, cancels — with equal thresholds at β = 7/8
// it is off the exact value by 2.0e-9 at n = 16, δ = 5 and by 4.4e-6 at
// n = 20, δ = 5 (ROADMAP item 2).
const MaxNGeneral = 20

// MaxNSymmetric bounds the player count for the symmetric fast path. Its
// Irwin-Hall ladders are accurate at every order; the bound is the largest
// n whose Pascal row C(n, ·) is exact in float64 (C(56, 28) ≈ 7.65e15 <
// 2^53), the same as oblivious.MaxN.
const MaxNSymmetric = 56

// MaxNSymbolic bounds the player count for SymbolicSymmetric, whose cost is
// exact big.Rat polynomial arithmetic over O(n²) pieces.
const MaxNSymbolic = 25

func validateCapacity(capacity float64) error {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return fmt.Errorf("nonoblivious: capacity %v must be strictly positive and finite", capacity)
	}
	return nil
}

// SymmetricWinningProbability evaluates Theorem 5.1 when every player uses
// the same threshold β, via the binomial collapse of Section 5.2:
//
//	P(β) = Σ_k C(n,k) N₀(n-k, β) N₁(k, β),
//
// with N₀(m) = β^m·F_m(δ/β) (m inputs below β, scaled to unit uniforms) and
// N₁(k) = (1-β)^k·F_k((δ-kβ)/(1-β)) (k inputs above β, shifted by β and
// scaled), F the Irwin-Hall CDF of Corollary 2.6. Every F comes from the
// convex recurrence of dist.IrwinHallLadder, so no term cancels: O(n³)
// arithmetic at full float64 accuracy. This is the curve reproduced in
// Figure 1.
func SymmetricWinningProbability(n int, capacity, beta float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNSymmetric {
		return 0, problem.PlayerCapError("nonoblivious: symmetric evaluation limited to %d players, got %d", MaxNSymmetric, n)
	}
	if err := validateCapacity(capacity); err != nil {
		return 0, err
	}
	if math.IsNaN(beta) || beta < 0 || beta > 1 {
		return 0, fmt.Errorf("nonoblivious: threshold %v outside [0, 1]", beta)
	}
	row, err := combin.PascalRow(n)
	if err != nil {
		return 0, err
	}
	n0 := make([]float64, n+1) // N₀ by bin-0 size m
	n1 := make([]float64, n+1) // N₁ by bin-1 size k
	n0[0], n1[0] = 1, 1
	var l dist.IrwinHallLadder
	if beta > 0 { // at β = 0 no input falls below the threshold: N₀(m ≥ 1) = 0
		l.Reset(capacity/beta, n)
		for m := 1; m <= n; m++ {
			l.Step()
			n0[m] = math.Pow(beta, float64(m)) * l.CDF(0)
		}
	}
	if beta < 1 { // at β = 1 no input falls above it: N₁(k ≥ 1) = 0
		for k := 1; k <= n; k++ {
			l.Reset((capacity-float64(k)*beta)/(1-beta), k)
			for range k {
				l.Step()
			}
			n1[k] = math.Pow(1-beta, float64(k)) * l.CDF(0)
		}
	}
	var acc combin.Accumulator
	for k := 0; k <= n; k++ {
		acc.Add(row[k] * n0[n-k] * n1[k])
	}
	return clamp01(acc.Sum()), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SymbolicSymmetric performs the Section 5.2 case analysis for general n
// and exact rational capacity δ: it returns the winning probability of the
// symmetric single-threshold algorithm as a piecewise polynomial in the
// common threshold β over [0, 1], with exact rational breakpoints (where
// the inclusion-exclusion guards flip) and exact rational coefficients.
func SymbolicSymmetric(n int, capacity *big.Rat) (*poly.Piecewise, error) {
	if n < 2 {
		return nil, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNSymbolic {
		return nil, fmt.Errorf("nonoblivious: symbolic analysis limited to %d players, got %d", MaxNSymbolic, n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("nonoblivious: capacity must be strictly positive")
	}
	breaks := symbolicBreakpoints(n, capacity)
	pieces := make([]poly.RatPoly, len(breaks)-1)
	for i := 0; i+1 < len(breaks); i++ {
		mid := new(big.Rat).Add(breaks[i], breaks[i+1])
		mid.Mul(mid, big.NewRat(1, 2))
		piece, err := symbolicPiece(n, capacity, mid)
		if err != nil {
			return nil, err
		}
		pieces[i] = piece
	}
	return poly.NewPiecewise(breaks, pieces)
}

// symbolicBreakpoints collects the β values in [0, 1] where some
// inclusion-exclusion guard changes truth value: β = δ/l (bin-0 guards)
// and β = 1 - (k-δ)/l (bin-1 guards).
func symbolicBreakpoints(n int, capacity *big.Rat) []*big.Rat {
	one := big.NewRat(1, 1)
	zero := new(big.Rat)
	set := map[string]*big.Rat{
		zero.RatString(): zero,
		one.RatString():  one,
	}
	add := func(r *big.Rat) {
		if r.Sign() > 0 && r.Cmp(one) < 0 {
			set[r.RatString()] = new(big.Rat).Set(r)
		}
	}
	for l := 1; l <= n; l++ {
		// δ - lβ = 0 → β = δ/l.
		add(new(big.Rat).Quo(capacity, new(big.Rat).SetInt64(int64(l))))
		// k - δ - l(1-β) = 0 → β = 1 - (k-δ)/l, for any k with l ≤ k ≤ n.
		for k := l; k <= n; k++ {
			kd := new(big.Rat).SetInt64(int64(k))
			kd.Sub(kd, capacity)
			if kd.Sign() <= 0 {
				continue
			}
			b := new(big.Rat).Quo(kd, new(big.Rat).SetInt64(int64(l)))
			b.Sub(one, b)
			add(b)
		}
	}
	out := make([]*big.Rat, 0, len(set))
	for _, r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// symbolicPiece expands P(β) = Σ_k C(n,k) N₀(n-k) N₁(k) as an exact
// polynomial in β, with the guards frozen at the probe point μ (a point
// interior to the piece).
func symbolicPiece(n int, capacity, mu *big.Rat) (poly.RatPoly, error) {
	n0 := make([]poly.RatPoly, n+1)
	n1 := make([]poly.RatPoly, n+1)
	for m := 0; m <= n; m++ {
		p0, err := symbolicBin0(m, capacity, mu)
		if err != nil {
			return poly.RatPoly{}, err
		}
		n0[m] = p0
		p1, err := symbolicBin1(m, capacity, mu)
		if err != nil {
			return poly.RatPoly{}, err
		}
		n1[m] = p1
	}
	total := poly.RatPoly{}
	for k := 0; k <= n; k++ {
		c, err := combin.BinomialBig(n, k)
		if err != nil {
			return poly.RatPoly{}, err
		}
		term := n0[n-k].Mul(n1[k]).Scale(new(big.Rat).SetInt(c))
		total = total.Add(term)
	}
	return total, nil
}

// symbolicBin0 expands N₀(m) = (1/m!) Σ_{l : δ-lμ > 0} (-1)^l C(m,l)
// (δ - lβ)^m as a polynomial in β.
func symbolicBin0(m int, capacity, mu *big.Rat) (poly.RatPoly, error) {
	if m == 0 {
		return poly.RatPolyFromInt64(1), nil
	}
	total := poly.RatPoly{}
	probe := new(big.Rat)
	for l := 0; l <= m; l++ {
		lr := new(big.Rat).SetInt64(int64(l))
		probe.Mul(lr, mu)
		probe.Sub(capacity, probe)
		if probe.Sign() <= 0 {
			continue
		}
		// (δ - lβ)^m.
		base := poly.RatPolyAffine(capacity, new(big.Rat).Neg(lr))
		pw, err := base.Pow(m)
		if err != nil {
			return poly.RatPoly{}, err
		}
		c, err := combin.BinomialBig(m, l)
		if err != nil {
			return poly.RatPoly{}, err
		}
		coeff := new(big.Rat).SetInt(c)
		if l%2 == 1 {
			coeff.Neg(coeff)
		}
		total = total.Add(pw.Scale(coeff))
	}
	invFact, err := combin.InvFactorialRat(m)
	if err != nil {
		return poly.RatPoly{}, err
	}
	return total.Scale(invFact), nil
}

// symbolicBin1 expands N₁(k) = (1-β)^k - (1/k!) Σ_{l : k-δ-l(1-μ) > 0}
// (-1)^l C(k,l) (k - δ - l + lβ)^k as a polynomial in β.
func symbolicBin1(k int, capacity, mu *big.Rat) (poly.RatPoly, error) {
	if k == 0 {
		return poly.RatPolyFromInt64(1), nil
	}
	one := big.NewRat(1, 1)
	lead, err := poly.RatPolyAffine(one, big.NewRat(-1, 1)).Pow(k) // (1-β)^k
	if err != nil {
		return poly.RatPoly{}, err
	}
	kd := new(big.Rat).SetInt64(int64(k))
	kd.Sub(kd, capacity) // k - δ
	total := poly.RatPoly{}
	probe := new(big.Rat)
	oneMinusMu := new(big.Rat).Sub(one, mu)
	for l := 0; l <= k; l++ {
		lr := new(big.Rat).SetInt64(int64(l))
		probe.Mul(lr, oneMinusMu)
		probe.Sub(kd, probe)
		if probe.Sign() <= 0 {
			continue
		}
		// (k - δ - l + lβ)^k.
		shift := new(big.Rat).Sub(kd, lr)
		base := poly.RatPolyAffine(shift, lr)
		pw, err := base.Pow(k)
		if err != nil {
			return poly.RatPoly{}, err
		}
		c, err := combin.BinomialBig(k, l)
		if err != nil {
			return poly.RatPoly{}, err
		}
		coeff := new(big.Rat).SetInt(c)
		if l%2 == 1 {
			coeff.Neg(coeff)
		}
		total = total.Add(pw.Scale(coeff))
	}
	invFact, err := combin.InvFactorialRat(k)
	if err != nil {
		return poly.RatPoly{}, err
	}
	return lead.Sub(total.Scale(invFact)), nil
}

// OptimalResult describes the certified optimal symmetric single-threshold
// algorithm for one instance.
type OptimalResult struct {
	// N is the number of players and Capacity the rational bin capacity δ.
	N        int
	Capacity *big.Rat
	// Beta encloses the optimal threshold β*; for rational optima
	// Beta.Lo == Beta.Hi.
	Beta poly.Interval
	// BetaFloat is the midpoint of Beta as a float64.
	BetaFloat float64
	// WinProbability is P(β*), exact at the enclosure midpoint.
	WinProbability *big.Rat
	// WinProbabilityFloat is WinProbability as a float64.
	WinProbabilityFloat float64
	// Condition is the optimality-condition polynomial (the derivative of
	// the winning probability on the optimal piece) whose root β* is, or
	// the zero polynomial for endpoint optima. This is the Theorem 5.2
	// condition specialized to the optimal piece.
	Condition poly.RatPoly
	// Curve is the full piecewise winning probability P(β).
	Curve *poly.Piecewise
}

// OptimalSymmetric derives the exact optimal symmetric threshold for n
// players and rational capacity δ by maximizing the SymbolicSymmetric
// piecewise polynomial with Sturm-certified critical points.
func OptimalSymmetric(n int, capacity *big.Rat) (OptimalResult, error) {
	pw, err := SymbolicSymmetric(n, capacity)
	if err != nil {
		return OptimalResult{}, err
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 80))
	ext, err := pw.GlobalMax(tol)
	if err != nil {
		return OptimalResult{}, err
	}
	res := OptimalResult{
		N:              n,
		Capacity:       new(big.Rat).Set(capacity),
		Beta:           ext.X,
		BetaFloat:      ext.X.MidFloat(),
		WinProbability: ext.Value,
		Curve:          pw,
	}
	res.WinProbabilityFloat, _ = ext.Value.Float64()
	if ext.Critical != nil {
		res.Condition = *ext.Critical
	}
	return res, nil
}
