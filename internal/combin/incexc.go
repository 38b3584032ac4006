package combin

import (
	"fmt"
	"math/big"
)

// SignedBinomialSumRat evaluates the collapsed ("symmetric") form of an
// inclusion-exclusion expression exactly,
//
//	Σ_{i=0..n, guard(i)} (-1)^i · C(n, i) · term(i),
//
// which arises whenever the per-element weights are all equal, so that the
// subset sum depends only on the subset's cardinality (Corollary 2.6 and the
// symmetric-threshold formulas of Section 5.2). Its terms can be far
// larger than its value, so it exists only in big.Rat; the float64 paths
// use dist.IrwinHallLadder.
func SignedBinomialSumRat(n int, guard func(i int) bool, term func(i int) *big.Rat) (*big.Rat, error) {
	if guard == nil || term == nil {
		return nil, fmt.Errorf("combin: SignedBinomialSumRat requires non-nil guard and term")
	}
	total := new(big.Rat)
	scaled := new(big.Rat)
	for i := 0; i <= n; i++ {
		if !guard(i) {
			continue
		}
		c, err := BinomialBig(n, i)
		if err != nil {
			return nil, err
		}
		scaled.SetInt(c)
		scaled.Mul(scaled, term(i))
		if i%2 == 1 {
			total.Sub(total, scaled)
		} else {
			total.Add(total, scaled)
		}
	}
	return total, nil
}
