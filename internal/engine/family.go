package engine

import (
	"fmt"
	"math"
)

// RuleFamily is a parametric family of rules viewed through the optimizer:
// a box of parameter vectors, each of which materializes into a Rule. The
// materialized Rule's fingerprint covers the parameter vector (every Rule
// fingerprint already encodes its parameters bit-exactly), so repeated
// evaluations of the same point hit the engine's memoization cache and
// concurrent searches coalesce through the singleflight entries.
type RuleFamily interface {
	// Name is the family's stable name (also the CLI/HTTP "kind").
	Name() string
	// Bounds returns the search box [lo_i, hi_i] for the instance. The
	// common length of lo and hi is the family's dimension there.
	Bounds(inst Instance) (lo, hi []float64, err error)
	// Rule materializes the parameter vector into an evaluable rule.
	Rule(inst Instance, params []float64) (Rule, error)
}

// checkParams validates a parameter vector against a family's box.
func checkParams(fam string, params, lo, hi []float64) error {
	if len(params) != len(lo) {
		return fmt.Errorf("engine: %s wants %d parameters, got %d", fam, len(lo), len(params))
	}
	for i, v := range params {
		if math.IsNaN(v) || v < lo[i] || v > hi[i] {
			return fmt.Errorf("engine: %s parameter %d = %v outside [%v, %v]", fam, i, v, lo[i], hi[i])
		}
	}
	return nil
}

// ThresholdBetaFamily is the symmetric threshold family: one parameter
// β ∈ [0, 1], every player cutting at β (SymmetricThreshold). On
// heterogeneous instances a β above π_i simply sends player i to bin 0
// always, so the box stays [0, 1].
type ThresholdBetaFamily struct{}

// Name implements RuleFamily.
func (ThresholdBetaFamily) Name() string { return "threshold" }

// Bounds implements RuleFamily.
func (ThresholdBetaFamily) Bounds(Instance) ([]float64, []float64, error) {
	return []float64{0}, []float64{1}, nil
}

// Rule implements RuleFamily.
func (f ThresholdBetaFamily) Rule(inst Instance, params []float64) (Rule, error) {
	lo, hi, _ := f.Bounds(inst)
	if err := checkParams("threshold family", params, lo, hi); err != nil {
		return nil, err
	}
	return SymmetricThreshold{Beta: params[0]}, nil
}

// ObliviousAlphaFamily is the symmetric oblivious family: one parameter
// α ∈ [0, 1], every player entering bin 0 with probability α
// (SymmetricOblivious) — the Theorem 4.3 ray.
type ObliviousAlphaFamily struct{}

// Name implements RuleFamily.
func (ObliviousAlphaFamily) Name() string { return "oblivious" }

// Bounds implements RuleFamily.
func (ObliviousAlphaFamily) Bounds(Instance) ([]float64, []float64, error) {
	return []float64{0}, []float64{1}, nil
}

// Rule implements RuleFamily.
func (f ObliviousAlphaFamily) Rule(inst Instance, params []float64) (Rule, error) {
	lo, hi, _ := f.Bounds(inst)
	if err := checkParams("oblivious family", params, lo, hi); err != nil {
		return nil, err
	}
	return SymmetricOblivious{A: params[0]}, nil
}

// ThresholdVectorFamily is the full non-uniform threshold family the paper
// leaves open: one threshold a_i per player (Threshold). The box is
// [0, min(1, π_i)] per coordinate — thresholds beyond a player's input
// range only replicate the boundary rule, so excluding them loses nothing
// and keeps the search box tight.
type ThresholdVectorFamily struct{}

// Name implements RuleFamily.
func (ThresholdVectorFamily) Name() string { return "vector" }

// Bounds implements RuleFamily.
func (ThresholdVectorFamily) Bounds(inst Instance) ([]float64, []float64, error) {
	if inst.N <= 0 {
		return nil, nil, fmt.Errorf("engine: vector family needs n ≥ 1, got %d", inst.N)
	}
	lo := make([]float64, inst.N)
	hi := make([]float64, inst.N)
	for i := range hi {
		hi[i] = 1
		if inst.Pi != nil && inst.Pi[i] < 1 {
			hi[i] = inst.Pi[i]
		}
	}
	return lo, hi, nil
}

// Rule implements RuleFamily.
func (f ThresholdVectorFamily) Rule(inst Instance, params []float64) (Rule, error) {
	lo, hi, err := f.Bounds(inst)
	if err != nil {
		return nil, err
	}
	if err := checkParams("vector family", params, lo, hi); err != nil {
		return nil, err
	}
	thresholds := make([]float64, len(params))
	copy(thresholds, params)
	return Threshold{Thresholds: thresholds}, nil
}

// FamilyForKind maps the CLI/HTTP spelling of an optimization kind onto its
// rule family: "threshold" (symmetric β), "oblivious" (symmetric α), or
// "vector" (the full per-player threshold vector).
func FamilyForKind(kind string) (RuleFamily, error) {
	switch kind {
	case "threshold":
		return ThresholdBetaFamily{}, nil
	case "oblivious":
		return ObliviousAlphaFamily{}, nil
	case "vector":
		return ThresholdVectorFamily{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown optimization kind %q (want threshold, oblivious or vector)", kind)
	}
}
