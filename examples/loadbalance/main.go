// Load balancing without coordination: a fleet of edge nodes must each
// route a job of random size to one of two regional servers, with no
// control plane and no gossip — the exact setting the paper models.
//
// This example simulates a day of traffic in 10-minute scheduling rounds
// and compares three deployable policies on overflow rate and peak load:
//
//   - coin:      route by a fair coin (optimal symmetric oblivious policy),
//   - naive:     route small jobs left, large jobs right, cut at 1/2,
//   - optimal:   the paper's certified optimal threshold for this fleet
//     size, computed from the exact piecewise polynomial.
//
// Run with: go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"math/big"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/problem"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadbalance: ")

	const fleet = 5 // edge nodes deciding simultaneously each round
	// Server capacity per round, in job-size units. The paper's scaling
	// δ = n/3 keeps the instance tight as the fleet grows.
	inst, err := problem.PaperInstance(fleet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet of %d edge nodes, two servers of capacity %.3f each, no communication\n\n",
		inst.N, inst.Delta)

	opt, err := nonoblivious.OptimalSymmetric(fleet, big.NewRat(fleet, 3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified optimal size cutoff for this fleet: β* = %.4f (win rate %.4f)\n\n",
		opt.BetaFloat, opt.WinProbabilityFloat)

	policies := []struct {
		name string
		sys  func() (*model.System, error)
	}{
		{"coin (oblivious 1/2)", func() (*model.System, error) { return engine.SymmetricOblivious{A: 0.5}.System(inst) }},
		{"naive cutoff 0.50", func() (*model.System, error) { return engine.SymmetricThreshold{Beta: 0.5}.System(inst) }},
		{fmt.Sprintf("optimal cutoff %.3f", opt.BetaFloat), func() (*model.System, error) {
			return engine.SymmetricThreshold{Beta: opt.BetaFloat}.System(inst)
		}},
	}

	const rounds = 144_000 // 1000 simulated days of 10-minute rounds
	fmt.Printf("%-24s  %-12s  %-12s  %-12s\n", "policy", "win rate", "overflow/day", "mean peak load")
	for i, pol := range policies {
		sys, err := pol.sys()
		if err != nil {
			log.Fatal(err)
		}
		cfg := sim.Config{Trials: rounds, Seed: uint64(100 + i)}
		win, err := sim.WinProbability(sys, cfg)
		if err != nil {
			log.Fatal(err)
		}
		peak, err := sim.LoadStats(sys, cfg, func(o model.Outcome) float64 {
			if o.Load0 > o.Load1 {
				return o.Load0
			}
			return o.Load1
		})
		if err != nil {
			log.Fatal(err)
		}
		overflowPerDay := (1 - win.P) * 144 // rounds per day
		fmt.Printf("%-24s  %.4f        %6.1f        %.4f\n",
			pol.name, win.P, overflowPerDay, peak.Mean())
	}

	fmt.Println("\nThe certified threshold cuts daily overflows relative to both baselines,")
	fmt.Println("with zero coordination traffic — the paper's \"value of information\" in practice.")
}
