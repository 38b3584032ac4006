// Capacity planning: how much bin capacity δ must be provisioned so that a
// fleet of n uncoordinated deciders overflows at most a target fraction of
// rounds?
//
// The paper's framework answers this exactly: for each candidate δ we
// derive the certified optimal threshold and its winning probability from
// the exact piecewise polynomial, then pick the smallest δ whose optimal
// policy meets the service-level objective. The oblivious-coin column —
// what the fleet achieves without even looking at its own load — is
// evaluated through one sharded engine sweep, and the omniscient column
// shows where the no-communication tax sits relative to full coordination.
//
// Run with: go run ./examples/capacity
package main

import (
	"context"
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
	log.SetPrefix("capacity: ")

	const n = 4
	const targetWin = 0.90 // at most 10% of rounds may overflow

	fmt.Printf("fleet size n=%d, target win rate %.0f%%\n\n", n, targetWin*100)
	fmt.Printf("%-8s  %-10s  %-12s  %-10s  %-14s\n", "δ", "β*", "P*(win)", "coin", "omniscient")

	// Sweep capacities on a 1/12 grid (exact rationals keep the symbolic
	// pipeline certified).
	var deltas []*big.Rat
	for num := int64(12); num <= 36; num += 2 { // δ from 1.0 to 3.0
		deltas = append(deltas, big.NewRat(num, 12))
	}

	// The oblivious fair coin across the whole grid: one engine sweep,
	// sharded over workers, every point memoized.
	eng := engine.New(engine.Config{})
	points := make([]engine.Point, len(deltas))
	for i, delta := range deltas {
		df, _ := delta.Float64()
		points[i] = engine.Point{
			Instance: engine.Instance{N: n, Delta: df},
			Rule:     engine.SymmetricOblivious{A: 0.5},
		}
	}
	coins, err := eng.Sweep(context.Background(), points, engine.SweepOptions{Backend: engine.Exact})
	if err != nil {
		log.Fatal(err)
	}

	var smallest *big.Rat
	for i, delta := range deltas {
		res, err := nonoblivious.OptimalSymmetric(n, delta)
		if err != nil {
			log.Fatal(err)
		}
		df, _ := delta.Float64()
		feas, err := sim.FeasibilityProbability(problem.Instance{N: n, Delta: df}, sim.Config{Trials: 200_000, Seed: uint64(12 + 2*i)})
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if res.WinProbabilityFloat >= targetWin && smallest == nil {
			smallest = delta
			marker = "  <- smallest δ meeting the SLO"
		}
		fmt.Printf("%-8s  %.6f  %.6f      %.6f  %.6f%s\n",
			delta.RatString(), res.BetaFloat, res.WinProbabilityFloat, coins[i].P, feas.P, marker)
	}
	if smallest == nil {
		fmt.Println("\nno capacity in the sweep meets the target; provision more than 3.0")
		return
	}
	sf, _ := smallest.Float64()
	fmt.Printf("\nprovisioning answer: δ = %s (%.3f) per bin meets the %.0f%% SLO with zero coordination.\n",
		smallest.RatString(), sf, targetWin*100)
	fmt.Println("The omniscient column shows how much capacity a coordinated system could save —")
	fmt.Println("the gap between the columns is the price of removing all communication.")
}
