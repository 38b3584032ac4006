package dist

import (
	"fmt"
	"math/big"
	"slices"
)

// CDFRat's caps: the most summands, and the most multi-indices i ≤ k,
// Π_j (k_j + 1) over the groups of equal widths, it will sum over.
const (
	maxCDFRatSummands = 200
	maxCDFRatTerms    = 1 << 24
)

// CDFRat evaluates Lemma 2.4, the CDF of Σ x_i with independent
// x_i ~ U[0, w_i], exactly for rational widths and threshold:
//
//	F(t) = 1/(m! Π w_l) · Σ_{I : Σ_{l∈I} w_l < t} (-1)^|I| (t - Σ_{l∈I} w_l)^m.
//
// Subsets that take the same number of copies of each distinct width have
// the same term, so the sum runs over multi-indices instead: with distinct
// widths w_j of multiplicities k_j,
//
//	F(t) = 1/(m! Π w_l) · Σ_{i ≤ k} Π_j C(k_j, i_j) · (-1)^Σi · (t - Σ_j i_j·w_j)₊^m,
//
// and a branch stops once its partial sum reaches t. Unit widths give
// Corollary 2.6, the Irwin–Hall CDF, as the one-group case. The empty sum
// is identically zero, so with no widths the CDF is 1 for t ≥ 0 and 0 for
// t < 0. It returns an error on invalid widths or threshold, on more than
// 200 summands, or on more than 2^24 multi-indices.
func CDFRat(widths []*big.Rat, t *big.Rat) (*big.Rat, error) {
	m := len(widths)
	if t == nil {
		return nil, fmt.Errorf("dist: nil threshold")
	}
	if m > maxCDFRatSummands {
		return nil, fmt.Errorf("dist: exact rational CDF supports at most %d summands, got %d", maxCDFRatSummands, m)
	}
	support := new(big.Rat)
	for i, w := range widths {
		if w == nil || w.Sign() <= 0 {
			return nil, fmt.Errorf("dist: width %d must be strictly positive", i)
		}
		support.Add(support, w)
	}
	// Group equal widths, largest first so that branches stop early.
	type group struct {
		w *big.Rat
		k int
	}
	var groups []group
	sorted := slices.Clone(widths)
	slices.SortFunc(sorted, func(a, b *big.Rat) int { return b.Cmp(a) })
	for _, w := range sorted {
		if g := len(groups) - 1; g >= 0 && groups[g].w.Cmp(w) == 0 {
			groups[g].k++
		} else {
			groups = append(groups, group{w, 1})
		}
	}
	terms := 1
	for _, g := range groups {
		if terms *= g.k + 1; terms > maxCDFRatTerms {
			return nil, fmt.Errorf("dist: exact rational CDF supports at most %d multi-indices over equal widths", maxCDFRatTerms)
		}
	}
	switch {
	case t.Sign() < 0, t.Sign() == 0 && m > 0:
		return new(big.Rat), nil
	case t.Cmp(support) >= 0:
		return big.NewRat(1, 1), nil
	}
	// Over the common denominator d of t and the widths every quantity is
	// an integer: F(t) = Σ coef·(d·t − d·Σ)^m / (m! Π d·w_l).
	d := new(big.Int).Set(t.Denom())
	gcd := new(big.Int)
	for _, g := range groups {
		gcd.GCD(nil, nil, d, g.w.Denom())
		d.Mul(d, new(big.Int).Quo(g.w.Denom(), gcd))
	}
	scaled := func(r *big.Rat) *big.Int {
		v := new(big.Int).Quo(d, r.Denom())
		return v.Mul(v, r.Num())
	}
	top := scaled(t)
	norm := new(big.Int).MulRange(1, int64(m))
	width := make([]*big.Int, len(groups))
	for j, g := range groups {
		width[j] = scaled(g.w)
		norm.Mul(norm, new(big.Int).Exp(width[j], big.NewInt(int64(g.k)), nil))
	}
	// sum[j] and coef[j] are Σ_{l<j} i_l·w_l and Π_{l<j} (-1)^i_l C(k_l, i_l)
	// for the indices chosen so far.
	sum := make([]*big.Int, len(groups)+1)
	coef := make([]*big.Int, len(groups)+1)
	for j := range sum {
		sum[j], coef[j] = new(big.Int), new(big.Int)
	}
	coef[0].SetInt64(1)
	total, rem, exp := new(big.Int), new(big.Int), big.NewInt(int64(m))
	var walk func(j int)
	walk = func(j int) {
		if j == len(groups) {
			rem.Sub(top, sum[j])
			rem.Exp(rem, exp, nil)
			total.Add(total, rem.Mul(rem, coef[j]))
			return
		}
		k := int64(groups[j].k)
		sum[j+1].Set(sum[j])
		coef[j+1].Set(coef[j])
		for i := int64(0); i <= k && sum[j+1].Cmp(top) < 0; i++ {
			walk(j + 1)
			sum[j+1].Add(sum[j+1], width[j])
			coef[j+1].Mul(coef[j+1], big.NewInt(-(k - i)))
			coef[j+1].Quo(coef[j+1], big.NewInt(i+1))
		}
	}
	walk(0)
	return new(big.Rat).SetFrac(total, norm), nil
}
