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
//     Every guarded term is expanded once per instance over the integers;
//     each piece sums the terms its guards admit.
//   - OptimalSymmetric — the certified optimum: roots of the per-piece
//     derivative (the specialization of the Theorem 5.2 optimality
//     condition) isolated by Sturm chains built as integer remainder
//     sequences, then bisected at rational points with integer sign tests.
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
// ExactErrorBound is 1.7e3 at n = 20 (ROADMAP item 2). Measured, equal
// thresholds at β = 7/8 and δ = 5 are within 2.8e-16 of the symmetric
// Irwin–Hall ladder at n = 16 and 8.7e-18 at n = 20, and distinct ones
// within 1.2e-14 of the per-set walk at n = 16–20.
const MaxNGeneral = 20

// MaxNSymmetric bounds the player count for the symmetric fast path. Its
// Irwin-Hall ladders are accurate at every order; the bound is the largest
// n whose Pascal row C(n, ·) is exact in float64 (C(56, 28) ≈ 7.65e15 <
// 2^53), the same as oblivious.MaxN.
const MaxNSymmetric = 56

// MaxNSymbolic bounds the player count for SymbolicSymmetric, whose cost is
// exact big-integer polynomial arithmetic over O(n²) pieces (each a sum of
// n+1 products of once-expanded term tables), and for OptimalSymmetric,
// which adds one integer Sturm chain per piece. OptimalSymmetric(n, n/3)
// takes about 0.07 s at n = 16, 0.26 s at n = 20 and 1.4 s at n = 25 on a
// 2-vCPU Xeon.
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
	return dist.Clamp01(acc.Sum()), nil
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
	terms := newSymbolicTerms(n, capacity)
	pieces := make([]poly.RatPoly, len(breaks)-1)
	half := big.NewRat(1, 2)
	for i := range pieces {
		mid := new(big.Rat).Add(breaks[i], breaks[i+1])
		pieces[i] = terms.piece(mid.Mul(mid, half))
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

// symbolicTerms holds every guarded term of the Section 5.2 expansion of
// one instance (n, δ = p/q), each expanded once by the binomial theorem and
// scaled to integers. With N₀(m) = (1/m!) Σ_{l: δ−lβ > 0} (−1)^l C(m,l)
// (δ − lβ)^m and N₁(k) = (1−β)^k − (1/k!) Σ_{l: k−δ−l(1−β) > 0} (−1)^l
// C(k,l) (k − δ − l + lβ)^k, the tables hold prefix sums over l:
//
//	bin0[m][L] = Σ_{l<L} (−1)^l C(m,l) (p − lqβ)^m                         (= m!·q^m·N₀(m))
//	bin1[k][L] = k!·q^k·(1−β)^k − Σ_{l<L} (−1)^l C(k,l) ((k−l)q − p + lqβ)^k (= k!·q^k·N₁(k))
//
// Inside a piece each guard admits a prefix l < L of its terms, so
// P(β) = Σ_k C(n,k) N₀(n−k) N₁(k) = Σ_k C(n,k)²·bin0[n−k][L₀]·bin1[k][L₁] / (n!·q^n)
// with one table entry per size.
type symbolicTerms struct {
	n          int
	p, q       *big.Int
	bin0, bin1 [][]poly.IntPoly
	weight     []*big.Int // C(n,k)²
	den        *big.Int   // n!·q^n
}

func newSymbolicTerms(n int, capacity *big.Rat) *symbolicTerms {
	p, q := capacity.Num(), capacity.Denom()
	t := &symbolicTerms{
		n: n, p: p, q: q,
		bin0:   make([][]poly.IntPoly, n+1),
		bin1:   make([][]poly.IntPoly, n+1),
		weight: make([]*big.Int, n+1),
		den:    new(big.Int).MulRange(1, int64(n)),
	}
	t.den.Mul(t.den, new(big.Int).Exp(q, big.NewInt(int64(n)), nil))
	for k := 0; k <= n; k++ {
		t.weight[k] = new(big.Int).Binomial(int64(n), int64(k))
		t.weight[k].Mul(t.weight[k], t.weight[k])
	}
	lq, s := new(big.Int), new(big.Int)
	for m := 0; m <= n; m++ {
		// bin0: (p − lqβ)^m for l = 0..m.
		t.bin0[m] = make([]poly.IntPoly, m+2)
		for l := 0; l <= m; l++ {
			lq.Mul(big.NewInt(int64(-l)), q)
			term := binomialPower(p, lq, m, l)
			t.bin0[m][l+1] = t.bin0[m][l].Add(term)
		}
		// bin1: k!·q^k·(1−β)^k, then ((k−l)q − p + lqβ)^k for l = 0..k.
		k := m
		t.bin1[k] = make([]poly.IntPoly, k+2)
		scale := new(big.Int).MulRange(1, int64(k))
		scale.Mul(scale, new(big.Int).Exp(q, big.NewInt(int64(k)), nil))
		t.bin1[k][0] = binomialPower(big.NewInt(1), big.NewInt(-1), k, 0).Scale(scale)
		for l := 0; l <= k; l++ {
			s.Mul(big.NewInt(int64(k-l)), q)
			s.Sub(s, p)
			lq.Mul(big.NewInt(int64(l)), q)
			t.bin1[k][l+1] = t.bin1[k][l].Sub(binomialPower(s, lq, k, l))
		}
	}
	return t
}

// binomialPower expands (−1)^l·C(e,l)·(a + bβ)^e by the binomial theorem.
func binomialPower(a, b *big.Int, e, l int) poly.IntPoly {
	outer := new(big.Int).Binomial(int64(e), int64(l))
	if l%2 == 1 {
		outer.Neg(outer)
	}
	coeffs := make([]*big.Int, e+1)
	bPow := big.NewInt(1)
	for j := 0; j <= e; j++ {
		c := new(big.Int).Binomial(int64(e), int64(j))
		c.Mul(c, new(big.Int).Exp(a, big.NewInt(int64(e-j)), nil))
		c.Mul(c, bPow)
		coeffs[j] = c.Mul(c, outer)
		bPow.Mul(bPow, b)
	}
	return poly.NewIntPoly(coeffs)
}

// piece assembles P(β) on the piece whose interior contains μ, with each
// guard tested at μ exactly as a rational inequality.
func (t *symbolicTerms) piece(mu *big.Rat) poly.RatPoly {
	a, b := mu.Num(), mu.Denom() // 0 < a < b: μ is interior to [0, 1]
	// δ − lμ > 0 ⟺ l·(aq) < pb.
	l0 := admitted(new(big.Int).Mul(t.p, b), new(big.Int).Mul(a, t.q), t.n+1)
	// k − δ − l(1−μ) > 0 ⟺ l·q(b−a) < (kq − p)·b.
	den1 := new(big.Int).Sub(b, a)
	den1.Mul(den1, t.q)
	num1 := new(big.Int)
	var total poly.IntPoly
	for k := 0; k <= t.n; k++ {
		num1.Mul(big.NewInt(int64(k)), t.q)
		num1.Sub(num1, t.p)
		num1.Mul(num1, b)
		n0 := t.bin0[t.n-k][min(l0, t.n-k+1)]
		n1 := t.bin1[k][admitted(num1, den1, k+1)]
		total = total.Add(n0.Mul(n1).Scale(t.weight[k]))
	}
	return total.Over(t.den)
}

// admitted returns how many integers l ≥ 0 satisfy l·den < num (den > 0),
// capped at limit.
func admitted(num, den *big.Int, limit int) int {
	if num.Sign() <= 0 {
		return 0
	}
	c := new(big.Int).Sub(num, big.NewInt(1))
	c.Quo(c, den)
	if !c.IsInt64() || c.Int64() >= int64(limit)-1 {
		return limit
	}
	return int(c.Int64()) + 1
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
