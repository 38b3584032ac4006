// Package dist implements the probability distributions of Section 2.2 of
// the paper: sums of independent, uniformly distributed random variables.
//
// The paper reduces "no overflow in a bin" to the event that a sum of
// independent uniforms stays below the bin capacity, and computes the
// probability by inclusion-exclusion over the polytope volumes of
// Proposition 2.2. This package exposes those results directly:
//
//   - AllSubsetVolumes: the Proposition 2.2 box-simplex volume of every
//     subset of a set of widths at one shared threshold, in float64; the
//     volume of a subset divided by the product of its widths is the
//     Lemma 2.4 CDF of Σ x_i with x_i ~ U[0, π_i].
//   - TwoBranchKernel: the float winning probability of Theorems 4.1 and
//     5.1, on homogeneous and heterogeneous inputs, each player a uniform
//     load into bin 0 or bin 1 with some mass: mass products times one
//     subset-CDF table per bin, added by one chunked pair sum.
//   - CDFRat: Lemma 2.4 in exact rationals, summed over multiplicities of
//     equal widths, the oracle the float tables and the certified
//     computations are checked against. At unit widths it is Corollary
//     2.6, the Irwin–Hall CDF.
//   - WinProbabilityRat: the exact winning probability of any rule whose
//     players decide independently, given as one list of branches (bin,
//     mass, load interval) per player; one CDFRat per bin and branch
//     choice. It is the rational oracle of Theorems 4.1 and 5.1 and their
//     heterogeneous generalizations.
//   - IrwinHallLadder: the classical special case π_i = 1 (Corollary 2.6),
//     stepped order by order through a convex recurrence that keeps full
//     float64 accuracy at every order; CDFRat at unit widths is its exact
//     twin.
//
// Lemma 2.7 (x_i ~ U[π_i, 1]) needs no kernel of its own: x_i = π_i + u_i
// turns it into Lemma 2.4 for the widths 1 − π_i at δ − Σ π_i. When the
// intervals share the shift, or the right end (with the sum taken from
// that end), each inclusion–exclusion radix depends on the set only
// through its size, and TwoBranchKernel builds every set's CDF with one
// ladder pass per size.
package dist
