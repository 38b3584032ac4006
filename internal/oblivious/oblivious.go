// Package oblivious implements Section 4 of the paper: winning
// probabilities and optimality analysis for oblivious no-communication
// algorithms, in which player i ignores its input and chooses bin 0 with
// probability α_i.
//
// The central objects are:
//
//   - WinningProbability — Theorem 4.1: the exact winning probability of an
//     arbitrary probability vector α, computed as
//     Σ_k φ_δ(k) · P(|b| = k), where φ_δ(k) = F_k(δ)·F_{n-k}(δ) is a
//     product of Irwin-Hall CDFs and |b| follows the Poisson-binomial
//     distribution of the bin choices. (The b-sum in the paper collapses
//     this way because φ depends only on |b|; the collapse turns the 2^n
//     sum into an O(n²) dynamic program.)
//   - OptimalityResidual — Corollary 4.2: the partial derivative
//     ∂P/∂α_k, which must vanish at an optimum.
//   - Optimal — Theorem 4.3: the optimal algorithm is uniform, α_i = 1/2
//     for every i and n.
package oblivious

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/problem"
)

// MaxN bounds the number of players for float64 evaluation. The
// Irwin-Hall ladder is accurate at every order; the bound is the largest n
// whose Pascal row C(n, ·) is exact in float64 (C(56, 28) ≈ 7.65e15 <
// 2^53), the same as nonoblivious.MaxNSymmetric.
const MaxN = 56

// phiTable returns φ_δ(k) = F_k(δ) F_{n-k}(δ) for k = 0..n.
func phiTable(n int, capacity float64) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("oblivious: need at least 2 players, got %d", n)
	}
	if n > MaxN {
		return nil, problem.PlayerCapError("oblivious: float64 evaluation limited to %d players, got %d", MaxN, n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("oblivious: capacity %v must be strictly positive and finite", capacity)
	}
	cdf := make([]float64, n+1)
	var l dist.IrwinHallLadder
	l.Reset(capacity, n)
	for k := 0; k <= n; k++ {
		if k > 0 {
			l.Step()
		}
		cdf[k] = l.CDF(0)
	}
	phi := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		phi[k] = cdf[k] * cdf[n-k]
	}
	return phi, nil
}

// Phi returns φ_δ(k) = F_k(δ)·F_{n-k}(δ), the conditional winning
// probability of Theorem 4.1 given that exactly k players choose bin 1.
// Lemma 4.4's symmetry φ_δ(k) = φ_δ(n-k) holds by construction.
func Phi(n, k int, capacity float64) (float64, error) {
	if k < 0 || k > n {
		return 0, fmt.Errorf("oblivious: count %d outside [0, %d]", k, n)
	}
	phi, err := phiTable(n, capacity)
	if err != nil {
		return 0, err
	}
	return phi[k], nil
}

// poissonBinomial returns the distribution of the number of successes in
// independent Bernoulli trials with the given success probabilities,
// computed by the standard O(n²) dynamic program.
func poissonBinomial(ps []float64) []float64 {
	pmf := make([]float64, len(ps)+1)
	pmf[0] = 1
	for i, p := range ps {
		for k := i + 1; k >= 1; k-- {
			pmf[k] = pmf[k]*(1-p) + pmf[k-1]*p
		}
		pmf[0] *= 1 - p
	}
	return pmf
}

func validateAlphas(alphas []float64) error {
	if len(alphas) < 2 {
		return fmt.Errorf("oblivious: need at least 2 players, got %d", len(alphas))
	}
	for i, a := range alphas {
		if math.IsNaN(a) || a < 0 || a > 1 {
			return fmt.Errorf("oblivious: α[%d] = %v outside [0, 1]", i, a)
		}
	}
	return nil
}

// WinningProbability evaluates Theorem 4.1: the probability that neither
// bin overflows capacity δ when player i chooses bin 0 with probability
// alphas[i] and inputs are independent U[0,1]. WinningProbabilityPi
// handles heterogeneous ranges x_i ~ U[0, π_i].
func WinningProbability(alphas []float64, capacity float64) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	n := len(alphas)
	phi, err := phiTable(n, capacity)
	if err != nil {
		return 0, err
	}
	// b_i = 1 means "player i chose bin 1", which happens w.p. 1 - α_i.
	ps := make([]float64, n)
	for i, a := range alphas {
		ps[i] = 1 - a
	}
	pmf := poissonBinomial(ps)
	var acc combin.Accumulator
	for k := 0; k <= n; k++ {
		acc.Add(phi[k] * pmf[k])
	}
	return acc.Sum(), nil
}

// SymmetricWinningProbability evaluates Theorem 4.1 when every player uses
// the same bin-0 probability a:
//
//	P(δ) = Σ_k C(n,k) (1-a)^k a^(n-k) φ_δ(k).
//
// This is the curve reproduced in Figure 2.
func SymmetricWinningProbability(n int, capacity, a float64) (float64, error) {
	if math.IsNaN(a) || a < 0 || a > 1 {
		return 0, fmt.Errorf("oblivious: probability %v outside [0, 1]", a)
	}
	phi, err := phiTable(n, capacity)
	if err != nil {
		return 0, err
	}
	row, err := combin.PascalRow(n)
	if err != nil {
		return 0, err
	}
	var acc combin.Accumulator
	for k := 0; k <= n; k++ {
		acc.Add(row[k] * math.Pow(1-a, float64(k)) * math.Pow(a, float64(n-k)) * phi[k])
	}
	return acc.Sum(), nil
}

// OptimalityResidual evaluates the Corollary 4.2 condition for player k:
// the partial derivative ∂P_A(δ)/∂α_k of the Theorem 4.1 winning
// probability. At any optimal algorithm it is zero for every k.
func OptimalityResidual(alphas []float64, capacity float64, k int) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	n := len(alphas)
	if k < 0 || k >= n {
		return 0, fmt.Errorf("oblivious: player index %d outside [0, %d)", k, n)
	}
	phi, err := phiTable(n, capacity)
	if err != nil {
		return 0, err
	}
	// Leave player k out and compute the Poisson-binomial PMF of the
	// remaining bin-1 indicators.
	ps := make([]float64, 0, n-1)
	for i, a := range alphas {
		if i != k {
			ps = append(ps, 1-a)
		}
	}
	rest := poissonBinomial(ps)
	// P = Σ_j rest[j] · [ (1-α_k) φ(j+1) + α_k φ(j) ], so
	// ∂P/∂α_k = Σ_j rest[j] · (φ(j) - φ(j+1)).
	var acc combin.Accumulator
	for j := 0; j <= n-1; j++ {
		acc.Add(rest[j] * (phi[j] - phi[j+1]))
	}
	return acc.Sum(), nil
}

// OptimalityResidualNorm returns the Euclidean norm of the full gradient
// (∂P/∂α_1, ..., ∂P/∂α_n); it is zero exactly when the Corollary 4.2
// system is satisfied.
func OptimalityResidualNorm(alphas []float64, capacity float64) (float64, error) {
	var sq float64
	for k := range alphas {
		r, err := OptimalityResidual(alphas, capacity, k)
		if err != nil {
			return 0, err
		}
		sq += r * r
	}
	return math.Sqrt(sq), nil
}

// OptimalResult describes the optimal oblivious algorithm for a given
// instance size.
type OptimalResult struct {
	// N is the number of players.
	N int
	// Capacity is the bin capacity δ.
	Capacity float64
	// Alpha is the common optimal bin-0 probability (1/2, Theorem 4.3).
	Alpha float64
	// WinProbability is the optimal winning probability.
	WinProbability float64
}

// Optimal returns the Theorem 4.3 optimal oblivious algorithm: every
// player plays α = 1/2, and the winning probability is
// 2^(-n) Σ_k C(n,k) φ_δ(k).
//
// Reproduction note: Theorem 4.3's optimality claim holds within the class
// of symmetric (exchangeable) oblivious algorithms — α = 1/2 is the unique
// interior stationary point of the Corollary 4.2 system and the maximum of
// SymmetricWinningProbability. Because the winning probability is
// multilinear in the probability vector, its global maximum over ALL
// oblivious algorithms is attained at a hypercube vertex, i.e. by a
// deterministic, non-uniform assignment (see OptimalDeterministic), which
// strictly beats α = 1/2 already at n = 3, δ = 1 (1/2 vs 5/12). The
// paper's Lemma 4.5 symmetry argument applies only to interior critical
// points, which is how the corner solutions escape it; EXPERIMENTS.md
// records this discrepancy.
func Optimal(n int, capacity float64) (OptimalResult, error) {
	p, err := SymmetricWinningProbability(n, capacity, 0.5)
	if err != nil {
		return OptimalResult{}, err
	}
	return OptimalResult{N: n, Capacity: capacity, Alpha: 0.5, WinProbability: p}, nil
}

// DeterministicResult describes the best deterministic oblivious algorithm:
// a fixed partition of the players into the two bins.
type DeterministicResult struct {
	// N is the number of players.
	N int
	// Capacity is the bin capacity δ.
	Capacity float64
	// Bin1Count is the optimal number of players assigned to bin 1 (the
	// remaining N - Bin1Count go to bin 0). Ties resolve to the smaller
	// count.
	Bin1Count int
	// WinProbability is φ_δ(Bin1Count), the probability that neither bin
	// overflows under the fixed partition.
	WinProbability float64
}

// OptimalDeterministic returns the best deterministic oblivious algorithm.
// A deterministic oblivious algorithm is a vertex of the probability
// hypercube — a fixed partition sending k players to bin 1 — and wins with
// probability φ_δ(k), so the best one maximizes φ over k. Since the
// winning probability of Theorem 4.1 is multilinear in α, this vertex
// optimum is also the global optimum over all (randomized) oblivious
// algorithms.
func OptimalDeterministic(n int, capacity float64) (DeterministicResult, error) {
	phi, err := phiTable(n, capacity)
	if err != nil {
		return DeterministicResult{}, err
	}
	best := 0
	for k := 1; k <= n; k++ {
		if phi[k] > phi[best] {
			best = k
		}
	}
	return DeterministicResult{
		N:              n,
		Capacity:       capacity,
		Bin1Count:      best,
		WinProbability: phi[best],
	}, nil
}

// WinningProbabilityRat evaluates Theorem 4.1 exactly for rational
// parameters, serving as the oracle for the float64 path.
func WinningProbabilityRat(alphas []*big.Rat, capacity *big.Rat) (*big.Rat, error) {
	n := len(alphas)
	if n < 2 {
		return nil, fmt.Errorf("oblivious: need at least 2 players, got %d", n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("oblivious: capacity must be strictly positive")
	}
	one := big.NewRat(1, 1)
	for i, a := range alphas {
		if a == nil || a.Sign() < 0 || a.Cmp(one) > 0 {
			return nil, fmt.Errorf("oblivious: α[%d] outside [0, 1]", i)
		}
	}
	var units []*big.Rat // k unit widths: F_k is Corollary 2.6
	cdf := make([]*big.Rat, n+1)
	for k := 0; k <= n; k++ {
		fk, err := dist.CDFRat(units, capacity)
		if err != nil {
			return nil, err
		}
		cdf[k] = fk
		units = append(units, one)
	}
	// Poisson-binomial DP over bin-1 probabilities 1 - α_i.
	pmf := make([]*big.Rat, n+1)
	pmf[0] = big.NewRat(1, 1)
	for i := 1; i <= n; i++ {
		pmf[i] = new(big.Rat)
	}
	tmp := new(big.Rat)
	for i, a := range alphas {
		p1 := new(big.Rat).Sub(one, a) // P(bin 1)
		for k := i + 1; k >= 1; k-- {
			pmf[k].Mul(pmf[k], a)
			tmp.Mul(pmf[k-1], p1)
			pmf[k].Add(pmf[k], tmp)
		}
		pmf[0].Mul(pmf[0], a)
	}
	total := new(big.Rat)
	for k := 0; k <= n; k++ { // φ_δ(k) = F_k(δ)·F_{n−k}(δ)
		tmp.Mul(cdf[k], cdf[n-k])
		total.Add(total, tmp.Mul(tmp, pmf[k]))
	}
	return total, nil
}
