package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

// Rule is one decision-making algorithm viewed through the engine: it can
// name itself, fingerprint its parameters canonically for the memoization
// cache, and build the runnable model.System the Monte-Carlo backend
// plays. Rules that also have an analytic oracle implement ExactOpts;
// rules whose trial logic cannot be expressed as per-player local rules
// (communication protocols) implement Simulator instead of System.
type Rule interface {
	// Name is the human-readable rule name.
	Name() string
	// Fingerprint is a canonical encoding of the rule's parameters:
	// equal fingerprints must mean bit-identical evaluation results.
	// Floats are encoded by their exact bit patterns.
	Fingerprint() string
	// System builds the runnable n-player system on the instance, or
	// returns an error wrapping ErrNoSystem when the rule cannot be
	// expressed as independent local rules.
	System(inst Instance) (*model.System, error)
}

// ExactOpts is implemented by rules with an analytic oracle (Theorem 4.1,
// Theorem 5.1, the interval-set pattern masses, the PY91 protocol
// oracles). Every oracle runs serially. The engine passes its observer:
// the oblivious and threshold families count their work in the exact.*
// counters, and the other oracles ignore it.
type ExactOpts interface {
	Rule
	// ExactWinProbabilityOpts computes the rule's winning probability on
	// the instance without sampling, with optional instrumentation. The
	// int argument is ignored by every rule; it stays only for the
	// benchmark module, which still passes a worker count.
	ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error)
}

// Simulator is implemented by rules that carry their own Monte-Carlo
// procedure; the engine prefers it over System + sim.WinProbability.
type Simulator interface {
	Rule
	// Simulate estimates the winning probability on the instance.
	Simulate(inst Instance, cfg sim.Config) (sim.Result, error)
}

// ErrNoSystem marks rules that cannot be materialized as a no-communication
// model.System (they still simulate through the Simulator interface).
var ErrNoSystem = errors.New("engine: rule has no local-rule system")

// fbits encodes a float by its exact bit pattern (cache-key safe).
func fbits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// homogeneousOnly rejects heterogeneous instances for rules whose exact
// oracle (or bespoke simulator) is defined only for U[0,1] inputs.
func homogeneousOnly(inst Instance, what string) error {
	if inst.Heterogeneous() {
		return fmt.Errorf("engine: %s supports only homogeneous U[0,1] inputs, got π=(%s)",
			what, problem.FormatPi(inst.Pi))
	}
	return nil
}

// repeated expands a per-player constant to a vector of the instance's
// size (the symmetric rules' bridge to the general hetero evaluators).
func repeated(v float64, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

// fbitsList encodes a float slice.
func fbitsList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fbits(v)
	}
	return strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Oblivious rules (Section 4)

// SymmetricOblivious is the rule where every player chooses bin 0 with the
// same probability A — the Theorem 4.3 family (A = 1/2 at the optimum).
type SymmetricOblivious struct {
	// A is the common bin-0 probability α ∈ [0, 1].
	A float64
}

// Name implements Rule.
func (r SymmetricOblivious) Name() string { return fmt.Sprintf("oblivious(α=%g)", r.A) }

// Fingerprint implements Rule.
func (r SymmetricOblivious) Fingerprint() string { return "obl-sym:" + fbits(r.A) }

// System implements Rule.
func (r SymmetricOblivious) System(inst Instance) (*model.System, error) {
	rule, err := model.NewObliviousRule(r.A)
	if err != nil {
		return nil, err
	}
	return model.UniformSystemPi(inst.N, rule, inst.Delta, inst.Pi)
}

// ExactWinProbabilityOpts implements ExactOpts through Theorem 4.1 (its
// heterogeneous generalization when the instance carries a π vector).
func (r SymmetricOblivious) ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error) {
	return r.exact(inst, nil, o)
}

func (r SymmetricOblivious) exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error) {
	if inst.Heterogeneous() {
		return t.oblivious(repeated(r.A, inst.N), inst, o)
	}
	return oblivious.SymmetricWinningProbability(inst.N, inst.Delta, r.A)
}

// Oblivious is the general oblivious rule: player i chooses bin 0 with
// probability Alphas[i]. The vector length must match the instance's N.
type Oblivious struct {
	// Alphas are the per-player bin-0 probabilities.
	Alphas []float64
}

// Name implements Rule.
func (r Oblivious) Name() string { return fmt.Sprintf("oblivious(%d players)", len(r.Alphas)) }

// Fingerprint implements Rule.
func (r Oblivious) Fingerprint() string { return "obl:" + fbitsList(r.Alphas) }

func (r Oblivious) check(inst Instance) error {
	if len(r.Alphas) != inst.N {
		return fmt.Errorf("engine: %d oblivious probabilities for %d players", len(r.Alphas), inst.N)
	}
	return nil
}

// System implements Rule.
func (r Oblivious) System(inst Instance) (*model.System, error) {
	if err := r.check(inst); err != nil {
		return nil, err
	}
	rules := make([]model.LocalRule, inst.N)
	for i, a := range r.Alphas {
		lr, err := model.NewObliviousRule(a)
		if err != nil {
			return nil, err
		}
		rules[i] = lr
	}
	return model.NewSystemPi(rules, inst.Delta, inst.Pi)
}

// ExactWinProbabilityOpts implements ExactOpts through Theorem 4.1 (its
// heterogeneous generalization when the instance carries a π vector).
func (r Oblivious) ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error) {
	return r.exact(inst, nil, o)
}

func (r Oblivious) exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	if inst.Heterogeneous() {
		return t.oblivious(r.Alphas, inst, o)
	}
	return oblivious.WinningProbability(r.Alphas, inst.Delta)
}

// DeterministicSplit is the deterministic oblivious vertex: the first K
// players enter bin 0, the remaining n−K enter bin 1 (the balanced
// partition K = ⌈n/2⌉ is the deterministic optimum).
type DeterministicSplit struct {
	// K is the number of players sent to bin 0.
	K int
}

// Name implements Rule.
func (r DeterministicSplit) Name() string { return fmt.Sprintf("split(%d→bin0)", r.K) }

// Fingerprint implements Rule.
func (r DeterministicSplit) Fingerprint() string { return "obl-split:" + strconv.Itoa(r.K) }

func (r DeterministicSplit) alphas(inst Instance) ([]float64, error) {
	if r.K < 0 || r.K > inst.N {
		return nil, fmt.Errorf("engine: split %d outside [0, %d]", r.K, inst.N)
	}
	alphas := make([]float64, inst.N)
	for i := 0; i < r.K; i++ {
		alphas[i] = 1
	}
	return alphas, nil
}

// System implements Rule.
func (r DeterministicSplit) System(inst Instance) (*model.System, error) {
	alphas, err := r.alphas(inst)
	if err != nil {
		return nil, err
	}
	return Oblivious{Alphas: alphas}.System(inst)
}

// ExactWinProbabilityOpts implements ExactOpts through Theorem 4.1 at the
// 0/1 vertex (see Oblivious).
func (r DeterministicSplit) ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error) {
	return r.exact(inst, nil, o)
}

func (r DeterministicSplit) exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error) {
	alphas, err := r.alphas(inst)
	if err != nil {
		return 0, err
	}
	return Oblivious{Alphas: alphas}.exact(inst, t, o)
}

// ---------------------------------------------------------------------------
// Single-threshold rules (Section 5)

// SymmetricThreshold is the rule where every player enters bin 0 exactly
// when its input is at most Beta — the Figure 1 / Section 5.2 family.
type SymmetricThreshold struct {
	// Beta is the common threshold β ∈ [0, 1].
	Beta float64
}

// Name implements Rule.
func (r SymmetricThreshold) Name() string { return fmt.Sprintf("threshold(β=%g)", r.Beta) }

// Fingerprint implements Rule.
func (r SymmetricThreshold) Fingerprint() string { return "thr-sym:" + fbits(r.Beta) }

// System implements Rule.
func (r SymmetricThreshold) System(inst Instance) (*model.System, error) {
	rule, err := model.NewThresholdRule(r.Beta)
	if err != nil {
		return nil, err
	}
	return model.UniformSystemPi(inst.N, rule, inst.Delta, inst.Pi)
}

// ExactWinProbabilityOpts implements ExactOpts through Theorem 5.1 (its
// heterogeneous generalization when the instance carries a π vector).
func (r SymmetricThreshold) ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error) {
	return r.exact(inst, nil, o)
}

func (r SymmetricThreshold) exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error) {
	if inst.Heterogeneous() {
		return t.threshold(repeated(r.Beta, inst.N), inst, o)
	}
	return nonoblivious.SymmetricWinningProbability(inst.N, inst.Delta, r.Beta)
}

// Threshold is the general single-threshold rule: player i enters bin 0
// exactly when its input is at most Thresholds[i].
type Threshold struct {
	// Thresholds are the per-player cut points.
	Thresholds []float64
}

// Name implements Rule.
func (r Threshold) Name() string { return fmt.Sprintf("threshold(%d players)", len(r.Thresholds)) }

// Fingerprint implements Rule.
func (r Threshold) Fingerprint() string { return "thr:" + fbitsList(r.Thresholds) }

func (r Threshold) check(inst Instance) error {
	if len(r.Thresholds) != inst.N {
		return fmt.Errorf("engine: %d thresholds for %d players", len(r.Thresholds), inst.N)
	}
	return nil
}

// System implements Rule.
func (r Threshold) System(inst Instance) (*model.System, error) {
	if err := r.check(inst); err != nil {
		return nil, err
	}
	rules := make([]model.LocalRule, inst.N)
	for i, b := range r.Thresholds {
		lr, err := model.NewThresholdRule(b)
		if err != nil {
			return nil, err
		}
		rules[i] = lr
	}
	return model.NewSystemPi(rules, inst.Delta, inst.Pi)
}

// ExactWinProbabilityOpts implements ExactOpts through Theorem 5.1 (its
// heterogeneous generalization when the instance carries a π vector).
func (r Threshold) ExactWinProbabilityOpts(inst Instance, _ int, o *obs.Observer) (float64, error) {
	return r.exact(inst, nil, o)
}

func (r Threshold) exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	if inst.Heterogeneous() {
		return t.threshold(r.Thresholds, inst, o)
	}
	return nonoblivious.WinningProbability(r.Thresholds, inst.Delta, o)
}

// ---------------------------------------------------------------------------
// Interval-set response rules (beyond-threshold deterministic rules)

// IntervalRule is the symmetric deterministic rule whose bin-0 region is
// an arbitrary finite union of intervals, evaluated exactly by the
// response package's Lemma 2.4 pattern masses.
type IntervalRule struct {
	// Set is the bin-0 region S ⊆ [0, 1].
	Set response.IntervalSet
}

// Name implements Rule.
func (r IntervalRule) Name() string { return fmt.Sprintf("interval%v", r.Set) }

// Fingerprint implements Rule.
func (r IntervalRule) Fingerprint() string {
	ivs := r.Set.Intervals()
	parts := make([]string, len(ivs))
	for i, iv := range ivs {
		parts[i] = fbits(iv.Lo) + "-" + fbits(iv.Hi)
	}
	return "ivl:" + strings.Join(parts, ",")
}

// System implements Rule. Heterogeneous instances are allowed — inputs
// beyond an interval set's [0, 1] domain simply fall in bin 1 — so the
// Monte-Carlo backend still covers them.
func (r IntervalRule) System(inst Instance) (*model.System, error) {
	rule, err := r.Set.Rule(r.Name())
	if err != nil {
		return nil, err
	}
	return model.UniformSystemPi(inst.N, rule, inst.Delta, inst.Pi)
}

// ExactWinProbabilityOpts implements ExactOpts through the interval-set
// oracle. The oracle assumes U[0,1] inputs, so heterogeneous instances are
// rejected here (simulate them instead).
func (r IntervalRule) ExactWinProbabilityOpts(inst Instance, _ int, _ *obs.Observer) (float64, error) {
	if err := homogeneousOnly(inst, "the interval-set oracle"); err != nil {
		return 0, err
	}
	ev, err := response.NewEvaluator(inst.N, inst.Delta)
	if err != nil {
		return 0, err
	}
	return ev.WinProbability(r.Set)
}

// ---------------------------------------------------------------------------
// PY91 baseline protocols

// py91Exact is implemented by the PY91 protocols with an exact oracle:
// every protocol package py91 defines.
type py91Exact interface {
	ExactWinProbability() (float64, error)
}

// PY91Rule wraps a Papadimitriou–Yannakakis 1991 protocol. It only
// evaluates on the PY91 instance (3 players, capacity 1). Exact
// evaluation uses the protocol's own oracle: the Theorem 5.1 closed form
// for threshold protocols, the piecewise-quadratic integral over x₀ for
// weighted averages, and 3/4 for full information. Monte-Carlo plays the
// protocol's Decide through sim.Bernoulli.
type PY91Rule struct {
	// Protocol is the wrapped protocol.
	Protocol py91.Protocol
}

// Name implements Rule.
func (r PY91Rule) Name() string {
	if r.Protocol == nil {
		return "py91(nil)"
	}
	return "py91:" + r.Protocol.Name()
}

// Fingerprint implements Rule. Protocol names print their parameters
// rounded, so the fingerprint appends their exact bits.
func (r PY91Rule) Fingerprint() string {
	if r.Protocol == nil {
		return "py91:nil"
	}
	fp := "py91:" + r.Protocol.Name()
	switch p := r.Protocol.(type) {
	case *py91.ThresholdProtocol:
		fp += ";θ=" + fbitsList(p.Theta[:])
	case *py91.WeightedAverageProtocol:
		fp += ";θw=" + fbitsList([]float64{p.Theta0, p.Theta1, p.Theta2, p.W})
	}
	return fp
}

func (r PY91Rule) check(inst Instance) error {
	if r.Protocol == nil {
		return fmt.Errorf("engine: nil py91 protocol")
	}
	if err := homogeneousOnly(inst, "py91 protocols"); err != nil {
		return err
	}
	if inst.N != py91.Players || inst.Delta != py91.Capacity {
		return fmt.Errorf("engine: py91 protocols evaluate only on n=%d, δ=%v (got n=%d, δ=%v)",
			py91.Players, py91.Capacity, inst.N, inst.Delta)
	}
	return nil
}

// System implements Rule; PY91 protocols may communicate, so no
// no-communication system exists in general.
func (r PY91Rule) System(Instance) (*model.System, error) {
	return nil, fmt.Errorf("%w: py91 protocols may communicate", ErrNoSystem)
}

// ExactWinProbabilityOpts implements ExactOpts through the protocol's
// exact oracle; protocols without one are refused.
func (r PY91Rule) ExactWinProbabilityOpts(inst Instance, _ int, _ *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	ep, ok := r.Protocol.(py91Exact)
	if !ok {
		return 0, fmt.Errorf("engine: py91 protocol %s has no exact oracle", r.Protocol.Name())
	}
	return ep.ExactWinProbability()
}

// Simulate implements Simulator: one trial draws x₀, x₁, x₂ in player
// order, lets the protocol decide, and checks both bin loads against the
// PY91 capacity.
func (r PY91Rule) Simulate(inst Instance, cfg sim.Config) (sim.Result, error) {
	if err := r.check(inst); err != nil {
		return sim.Result{}, err
	}
	return sim.Bernoulli(cfg, "engine.py91", func(rng *rand.Rand) (bool, error) {
		var x [py91.Players]float64
		for i := range x {
			x[i] = rng.Float64()
		}
		bins, err := r.Protocol.Decide(x)
		if err != nil {
			return false, err
		}
		var load0, load1 float64
		for i, b := range bins {
			if b == model.Bin0 {
				load0 += x[i]
			} else {
				load1 += x[i]
			}
		}
		return load0 <= py91.Capacity && load1 <= py91.Capacity, nil
	})
}
