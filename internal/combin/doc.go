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
//   - iteration over fixed-size and arbitrary subsets and over weak
//     compositions,
//   - compensated (Neumaier) floating-point summation for the alternating
//     series the inclusion-exclusion formulas produce, and
//   - sum-over-subsets tables of sums and products of per-element weights.
//
// Everything here is deterministic, allocation-conscious and safe for
// concurrent use; none of the functions retain references to caller slices.
package combin
