// Package poly implements univariate polynomial algebra over exact
// rationals (RatPoly, over math/big.Rat) and integers (IntPoly, over
// math/big.Int).
//
// The reproduction uses polynomials to derive and solve the paper's
// optimality conditions symbolically rather than only numerically:
//
//   - Section 5.2 of the paper expands the winning probability of a
//     symmetric single-threshold algorithm into a piecewise polynomial in
//     the common threshold β. Piecewise (piecewise.go) represents such
//     functions with exact rational breakpoints and exact coefficients.
//     Expansions that share one denominator run over IntPoly and convert
//     once (IntPoly.Over), skipping big.Rat's per-operation GCD.
//   - Optimal thresholds are roots of the derivative. Sturm sequences
//     (sturm.go) isolate all real roots exactly, and rational bisection
//     refines them to any requested accuracy, so the optimum β* and the
//     optimal winning probability are obtained with certified enclosures
//     instead of heuristic numeric optimization. The square-free part is
//     computed once per polynomial and the chain is a primitive
//     pseudo-remainder sequence over the integers, each member a positive
//     multiple of the rational chain's, so every root count is the same;
//     a sign at x = a/b is the sign of the homogeneous form Σ c_i a^i b^(d-i).
//
// Coefficients are stored in ascending order (index i holds the coefficient
// of x^i) with no trailing zero terms; the zero polynomial has an empty
// coefficient slice and degree -1.
package poly
