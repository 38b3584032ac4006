// Package combin provides the combinatorial substrate used throughout the
// reproduction of Georgiades, Mavronicolas and Spirakis, "Optimal, Distributed
// Decision-Making: The Case of No Communication" (FCT 1999).
//
// The paper's central tool is the principle of inclusion-exclusion applied to
// sums over subsets of {1, ..., m} (Proposition 2.2 and its corollaries).
// This package supplies the pieces those formulas are assembled from:
//
//   - exact factorials and binomial coefficients in three numeric domains
//     (overflow-checked int64, math/big exact integers, and float64),
//   - iteration over fixed-size and arbitrary subsets, including a Gray-code
//     enumeration that changes one element at a time,
//   - compensated (Neumaier) floating-point summation for the alternating
//     series the inclusion-exclusion formulas produce, and
//   - exact signed binomial sums Σ_i (-1)^i C(n, i) f(i), the form those
//     expressions take when all weights are equal (the rational oracles'
//     form; in float64 the collapse cancels, see dist.IrwinHallLadder).
//
// Everything here is deterministic, allocation-conscious and safe for
// concurrent use; none of the functions retain references to caller slices.
package combin
