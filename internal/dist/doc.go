// Package dist implements the probability distributions of Section 2.2 of
// the paper: sums of independent, uniformly distributed random variables.
//
// The paper reduces "no overflow in a bin" to the event that a sum of
// independent uniforms stays below the bin capacity, and computes the
// probability by inclusion-exclusion over the polytope volumes of
// Proposition 2.2. This package exposes those results directly:
//
//   - UniformSum: Σ x_i with x_i ~ U[0, π_i]. Its CDF is Lemma 2.4 and its
//     density is Lemma 2.5 — the paper notes the density formula answers a
//     research problem posed by Rota.
//   - IrwinHallLadder: the classical special case π_i = 1 (Corollary 2.6),
//     stepped order by order through a convex recurrence that keeps full
//     float64 accuracy at every order.
//   - ShiftedUniformSum: Σ x_i with x_i ~ U[π_i, 1] (Lemma 2.7), the
//     conditional distribution of inputs that chose the "high" bin under a
//     single-threshold algorithm.
//
// Every CDF has a float64 implementation and an exact rational
// implementation used as a test oracle and for the certified optimality
// computations. The Lemma 2.4 and 2.7 series are summed with compensation;
// the Irwin-Hall ladder needs none.
package dist
