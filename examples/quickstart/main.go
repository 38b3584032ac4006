// Quickstart: the reproduction in one page.
//
// Three players each receive a uniform [0,1] load and must choose one of
// two unit-capacity bins without communicating. This example computes the
// exact winning probability of a few strategies through the unified
// evaluation engine (one Rule value, exact or Monte-Carlo backend),
// derives the certified optimal threshold (the paper's headline result),
// and cross-checks it by simulation — noting that the repeated evaluation
// comes straight from the engine's memoization cache.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/big"

	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/problem"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// The paper's flagship instance: n = 3 players with the δ = n/3
	// capacity scaling, i.e. bins of capacity 1.
	inst, err := problem.PaperInstance(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: n=%d players, bin capacity δ=%g, no communication\n\n", inst.N, inst.Delta)

	// One engine evaluates every rule in this example. Its simulation
	// defaults apply whenever a rule runs on the Monte-Carlo backend.
	eng := engine.New(engine.Config{Sim: sim.Config{Trials: 1_000_000, Seed: 2026}})

	// Strategy 1: flip a fair coin (the optimal symmetric oblivious
	// algorithm, Theorem 4.3).
	coin, err := eng.Evaluate(inst, engine.SymmetricOblivious{A: 0.5}, engine.Exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fair-coin (oblivious) winning probability:   %.6f  (= 5/12)\n", coin.P)

	// Strategy 2: the naive threshold 1/2 — small loads to bin 0, large
	// to bin 1.
	half, err := eng.Evaluate(inst, engine.SymmetricThreshold{Beta: 0.5}, engine.Exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("threshold 1/2 (looks at input):              %.6f\n", half.P)

	// Strategy 3: the certified optimum. The framework derives the exact
	// piecewise polynomial P(β) and maximizes it symbolically.
	opt, err := nonoblivious.OptimalSymmetric(inst.N, big.NewRat(1, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal threshold β* = %.6f:               %.6f  (paper: β*=1-√(1/7), P*≈0.545)\n\n",
		opt.BetaFloat, opt.WinProbabilityFloat)

	fmt.Println("exact winning-probability curve P(β):")
	for i := 0; i < opt.Curve.NumPieces(); i++ {
		piece, iv, err := opt.Curve.Piece(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  β ∈ [%s, %s]: P(β) = %s\n", iv.Lo.RatString(), iv.Hi.RatString(), piece)
	}
	fmt.Printf("  optimality condition at β*: %s = 0\n\n", opt.Condition)

	// Trust, but verify: the same Rule value, Monte-Carlo backend, one
	// million rounds.
	best := engine.SymmetricThreshold{Beta: opt.BetaFloat}
	res, err := eng.Evaluate(inst, best, engine.MonteCarlo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation of β*: P = %.6f ± %.6f over %d rounds (exact %.6f)\n",
		res.P, res.StdErr, res.Sim.Trials, opt.WinProbabilityFloat)

	// Ask again and the engine answers from its memoization cache: same
	// instance, same rule fingerprint, same backend — no trials re-run.
	again, err := eng.Evaluate(inst, best, engine.MonteCarlo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asked again:      P = %.6f (served from cache: %v)\n", again.P, again.Cached)

	// And the ceiling: what could an omniscient scheduler achieve?
	feas, err := sim.FeasibilityProbability(inst, sim.Config{Trials: 1_000_000, Seed: 2027})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("omniscient upper bound (some assignment fits): %.6f  (exactly 3/4)\n", feas.P)
}
