package engine_test

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/problem"
)

// ExampleEngine_Evaluate evaluates Theorem 5.1 for the paper's flagship
// instance at the naive threshold 1/2.
func ExampleEngine_Evaluate() {
	inst, err := problem.New(3, 1)
	if err != nil {
		panic(err)
	}
	res, err := engine.New(engine.Config{}).Evaluate(inst, engine.SymmetricThreshold{Beta: 0.5}, engine.Exact)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(win) at β=1/2: %.6f\n", res.P)
	// Output:
	// P(win) at β=1/2: 0.479167
}

// ExampleSymmetricOblivious shows the Theorem 4.3 uniform optimum α = 1/2
// next to the deterministic vertex (one of three players to bin 1) that
// this reproduction documents as beating it.
func ExampleSymmetricOblivious() {
	inst, err := problem.PaperInstance(3)
	if err != nil {
		panic(err)
	}
	eng := engine.New(engine.Config{})
	half, err := eng.Evaluate(inst, engine.SymmetricOblivious{A: 0.5}, engine.Exact)
	if err != nil {
		panic(err)
	}
	vertex, err := eng.Evaluate(inst, engine.DeterministicSplit{K: 2}, engine.Exact)
	if err != nil {
		panic(err)
	}
	fmt.Printf("symmetric optimum: α = 0.5, P = %.6f\n", half.P)
	fmt.Printf("vertex optimum: 1 of 3 players to bin 1, P = %.6f\n", vertex.P)
	// Output:
	// symmetric optimum: α = 0.5, P = 0.416667
	// vertex optimum: 1 of 3 players to bin 1, P = 0.500000
}
