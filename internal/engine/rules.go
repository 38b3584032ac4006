package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
	"repro/internal/stats"
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
// Theorem 5.1, the grid-convolution oracle, the interval-pair
// conditioning of one-bit protocols, PY91 quadrature). The engine passes
// its resolved ExactWorkers and observer: the oblivious and threshold
// families shard their subset enumerations across workers with
// bit-identical results for every worker count and count their work in
// the exact.* counters; the other oracles ignore both arguments.
type ExactOpts interface {
	Rule
	// ExactWinProbabilityOpts computes the rule's winning probability on
	// the instance without sampling, with explicit worker sharding (≤ 1
	// means serial) and optional instrumentation.
	ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error)
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
// heterogeneous generalization when the instance carries a π vector). The
// homogeneous closed form is O(n²) and ignores the worker count; the
// heterogeneous subset enumeration shards across workers.
func (r SymmetricOblivious) ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error) {
	if inst.Heterogeneous() {
		return oblivious.WinningProbabilityPiOpts(repeated(r.A, inst.N), inst.Pi, inst.Delta, workers, o)
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
// heterogeneous generalization when the instance carries a π vector). The
// homogeneous Poisson-binomial evaluation is O(n²) and ignores the worker
// count; the heterogeneous subset enumeration shards across workers.
func (r Oblivious) ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	if inst.Heterogeneous() {
		return oblivious.WinningProbabilityPiOpts(r.Alphas, inst.Pi, inst.Delta, workers, o)
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
func (r DeterministicSplit) ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error) {
	alphas, err := r.alphas(inst)
	if err != nil {
		return 0, err
	}
	return Oblivious{Alphas: alphas}.ExactWinProbabilityOpts(inst, workers, o)
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
// heterogeneous generalization when the instance carries a π vector). The
// homogeneous symmetric closed form ignores the worker count; the
// heterogeneous subset enumeration shards across workers.
func (r SymmetricThreshold) ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error) {
	if inst.Heterogeneous() {
		return nonoblivious.WinningProbabilityPiOpts(repeated(r.Beta, inst.N), inst.Pi, inst.Delta, workers, o)
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

// ExactWinProbabilityOpts implements ExactOpts through Theorem 5.1: both
// the homogeneous and heterogeneous enumerations shard across workers.
func (r Threshold) ExactWinProbabilityOpts(inst Instance, workers int, o *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	if inst.Heterogeneous() {
		return nonoblivious.WinningProbabilityPiOpts(r.Thresholds, inst.Pi, inst.Delta, workers, o)
	}
	return nonoblivious.WinningProbabilityOpts(r.Thresholds, inst.Delta, workers, o)
}

// ---------------------------------------------------------------------------
// Interval-set response rules (beyond-threshold deterministic rules)

// DefaultOracleGrid is the grid resolution the interval-set oracle uses
// when IntervalRule.Grid is zero. It matches the resolution the beyond
// example and harness extensions were using before the engine existed.
const DefaultOracleGrid = 4096

// IntervalRule is the symmetric deterministic rule whose bin-0 region is
// an arbitrary finite union of intervals, evaluated exactly by the
// grid-convolution oracle.
type IntervalRule struct {
	// Set is the bin-0 region S ⊆ [0, 1].
	Set response.IntervalSet
	// Grid is the oracle resolution (cells per unit); 0 selects
	// DefaultOracleGrid. It is part of the fingerprint because it bounds
	// the oracle's discretization error.
	Grid int
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
	return "ivl:" + strings.Join(parts, ",") + ";g=" + strconv.Itoa(r.grid())
}

func (r IntervalRule) grid() int {
	if r.Grid <= 0 {
		return DefaultOracleGrid
	}
	return r.Grid
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

// ExactWinProbabilityOpts implements ExactOpts through the
// grid-convolution oracle. The oracle discretizes U[0,1] inputs, so
// heterogeneous instances are rejected here (simulate them instead).
func (r IntervalRule) ExactWinProbabilityOpts(inst Instance, _ int, _ *obs.Observer) (float64, error) {
	if err := homogeneousOnly(inst, "the interval-set oracle"); err != nil {
		return 0, err
	}
	ev, err := response.NewEvaluator(inst.N, inst.Delta, r.grid())
	if err != nil {
		return 0, err
	}
	return ev.WinProbability(r.Set)
}

// ---------------------------------------------------------------------------
// One-bit broadcast protocols (communication extension)

// OneBitRule is the one-bit broadcast protocol: player 0 announces
// 1{x₀ > Cut}; it enters bin 0 when x₀ ≤ SenderTheta, and every listener
// thresholds its own input at BetaLow (bit 0) or BetaHigh (bit 1). The bit
// couples the players, so the rule has no local-rule System; Monte-Carlo
// runs through its own Simulator.
type OneBitRule struct {
	// Cut is the broadcast cut point.
	Cut float64
	// SenderTheta is the sender's own bin-0 threshold.
	SenderTheta float64
	// BetaLow and BetaHigh are the listeners' bit-conditional thresholds.
	BetaLow, BetaHigh float64
}

// Name implements Rule.
func (r OneBitRule) Name() string {
	return fmt.Sprintf("onebit(cut=%g,θ=%g,β=%g|%g)", r.Cut, r.SenderTheta, r.BetaLow, r.BetaHigh)
}

// Fingerprint implements Rule.
func (r OneBitRule) Fingerprint() string {
	return "comm1:" + fbits(r.Cut) + "," + fbits(r.SenderTheta) + "," + fbits(r.BetaLow) + "," + fbits(r.BetaHigh)
}

func (r OneBitRule) protocol(inst Instance) (comm.OneBitBroadcast, error) {
	if err := homogeneousOnly(inst, "the one-bit protocol"); err != nil {
		return comm.OneBitBroadcast{}, err
	}
	p := comm.OneBitBroadcast{N: inst.N, Cut: r.Cut, SenderTheta: r.SenderTheta, BetaLow: r.BetaLow, BetaHigh: r.BetaHigh}
	if err := p.Validate(); err != nil {
		return comm.OneBitBroadcast{}, err
	}
	return p, nil
}

// System implements Rule; the broadcast bit makes the players dependent,
// so no no-communication system exists.
func (r OneBitRule) System(Instance) (*model.System, error) {
	return nil, fmt.Errorf("%w: the broadcast bit couples the players", ErrNoSystem)
}

// ExactWinProbabilityOpts implements ExactOpts by conditioning on the bit
// and evaluating each world's interval-pair vector.
func (r OneBitRule) ExactWinProbabilityOpts(inst Instance, _ int, _ *obs.Observer) (float64, error) {
	p, err := r.protocol(inst)
	if err != nil {
		return 0, err
	}
	return p.WinProbability(inst.Delta)
}

// Simulate implements Simulator: one trial samples all inputs, resolves
// the bit from the sender's input, and plays the matching threshold set.
func (r OneBitRule) Simulate(inst Instance, cfg sim.Config) (sim.Result, error) {
	if _, err := r.protocol(inst); err != nil {
		return sim.Result{}, err
	}
	n, delta := inst.N, inst.Delta
	return sim.Bernoulli(cfg, "engine.onebit", func(rng *rand.Rand) (bool, error) {
		var load0, load1 float64
		x0 := rng.Float64()
		if x0 <= r.SenderTheta {
			load0 = x0
		} else {
			load1 = x0
		}
		beta := r.BetaLow
		if x0 > r.Cut {
			beta = r.BetaHigh
		}
		for i := 1; i < n; i++ {
			x := rng.Float64()
			if x <= beta {
				load0 += x
			} else {
				load1 += x
			}
		}
		return load0 <= delta && load1 <= delta, nil
	})
}

// ---------------------------------------------------------------------------
// PY91 baseline protocols

// DefaultQuadratureGrid is the quadrature resolution PY91Rule uses for
// non-threshold protocols when Grid is zero.
const DefaultQuadratureGrid = 400

// PY91Rule wraps a Papadimitriou–Yannakakis 1991 protocol. It only
// evaluates on the PY91 instance (3 players, capacity 1); threshold
// protocols go through the reproduced Theorem 5.1 closed form, every other
// deterministic protocol through midpoint quadrature, and Monte-Carlo
// through the py91 evaluator (its own seeding discipline, preserved
// bit-for-bit from the pre-engine entry point).
type PY91Rule struct {
	// Protocol is the wrapped protocol.
	Protocol py91.Protocol
	// Grid is the quadrature resolution for non-threshold protocols; 0
	// selects DefaultQuadratureGrid.
	Grid int
}

// Name implements Rule.
func (r PY91Rule) Name() string {
	if r.Protocol == nil {
		return "py91(nil)"
	}
	return "py91:" + r.Protocol.Name()
}

// Fingerprint implements Rule. Protocol names embed their parameters at
// 4-decimal precision, so the fingerprint appends the exact threshold bits
// when available.
func (r PY91Rule) Fingerprint() string {
	if r.Protocol == nil {
		return "py91:nil"
	}
	fp := "py91:" + r.Protocol.Name() + ";g=" + strconv.Itoa(r.grid())
	if tp, ok := r.Protocol.(*py91.ThresholdProtocol); ok {
		fp += ";θ=" + fbitsList(tp.Theta[:])
	}
	return fp
}

func (r PY91Rule) grid() int {
	if r.Grid <= 0 {
		return DefaultQuadratureGrid
	}
	return r.Grid
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

// ExactWinProbabilityOpts implements ExactOpts: the Theorem 5.1 closed
// form for threshold protocols, midpoint quadrature otherwise.
func (r PY91Rule) ExactWinProbabilityOpts(inst Instance, _ int, _ *obs.Observer) (float64, error) {
	if err := r.check(inst); err != nil {
		return 0, err
	}
	if tp, ok := r.Protocol.(*py91.ThresholdProtocol); ok {
		return tp.ExactWinProbability()
	}
	return py91.EvaluateByQuadrature(r.Protocol, r.grid())
}

// Simulate implements Simulator by delegating to py91.Evaluate, keeping
// the baseline's historical per-worker seeding (and therefore its
// published estimates) intact.
func (r PY91Rule) Simulate(inst Instance, cfg sim.Config) (sim.Result, error) {
	if err := r.check(inst); err != nil {
		return sim.Result{}, err
	}
	ev, err := py91.Evaluate(r.Protocol, py91.SimConfig{Trials: cfg.Trials, Workers: cfg.Workers, Seed: cfg.Seed})
	if err != nil {
		return sim.Result{}, err
	}
	var prop stats.Proportion
	if err := prop.AddN(int64(math.Round(ev.P*float64(ev.Trials))), ev.Trials); err != nil {
		return sim.Result{}, err
	}
	lo, hi, err := prop.WilsonCI(1.96)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Result{P: ev.P, StdErr: ev.StdErr, CILo: lo, CIHi: hi, Wins: prop.Successes(), Trials: ev.Trials}, nil
}
