package harness

import (
	"repro/internal/engine"
	"repro/internal/sim"
)

// Params bundles everything an experiment run can be steered by: sweep
// resolution for figures, the Monte-Carlo configuration for embedded
// simulations, the evaluation backend, and the (memoizing) engine the
// evaluations route through. The zero value is usable: Auto backend, a
// fresh engine, and each runner's documented default resolution.
type Params struct {
	// Points is the sweep resolution for figure experiments (per curve).
	Points int
	// Sim configures embedded Monte-Carlo evaluations and carries the
	// observer (Sim.Obs) into both the simulator and the engine.
	Sim sim.Config
	// Backend selects how rule evaluations run (Auto, Exact, MonteCarlo).
	// Experiments that are exact by construction ignore it.
	Backend engine.Backend
	// Pi optionally sets per-player input ranges (x_i ~ U[0, Pi[i]]) for
	// experiments that accept heterogeneous instances (T10); nil is the
	// homogeneous U[0,1] game.
	Pi []float64
	// Engine optionally shares a memoization cache across runs; nil
	// builds a private engine wired to Sim and Sim.Obs.
	Engine *engine.Engine
}

// engine returns the params' engine, building one on demand so every
// runner can assume a non-nil engine with the observer attached. Sim's
// worker count sizes the Monte-Carlo and sweep workers; the exact backend
// runs serially.
func (p Params) engine() *engine.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return engine.New(engine.Config{Sim: p.Sim, Obs: p.Sim.Obs})
}
