package oblivious

import (
	"fmt"
	"math/big"
	"slices"
)

// OptimalityResidualRat evaluates the Corollary 4.2 condition exactly:
// the partial derivative ∂P_A(δ)/∂α_k of the Theorem 4.1 winning
// probability at a rational probability vector. P is affine in α_k, so the
// derivative is WinningProbabilityRat with α_k = 1 minus WinningProbabilityRat
// with α_k = 0. At α = (1/2, ..., 1/2) the result is exactly zero for
// every k, which certifies the stationarity half of Theorem 4.3 in exact
// arithmetic.
func OptimalityResidualRat(alphas []*big.Rat, capacity *big.Rat, k int) (*big.Rat, error) {
	if k < 0 || k >= len(alphas) {
		return nil, fmt.Errorf("oblivious: player index %d outside [0, %d)", k, len(alphas))
	}
	if a := alphas[k]; a == nil || a.Sign() < 0 || a.Cmp(big.NewRat(1, 1)) > 0 {
		return nil, fmt.Errorf("oblivious: α[%d] outside [0, 1]", k)
	}
	at := slices.Clone(alphas)
	at[k] = big.NewRat(1, 1)
	bin0, err := WinningProbabilityRat(at, capacity)
	if err != nil {
		return nil, err
	}
	at[k] = new(big.Rat)
	bin1, err := WinningProbabilityRat(at, capacity)
	if err != nil {
		return nil, err
	}
	return bin0.Sub(bin0, bin1), nil
}
