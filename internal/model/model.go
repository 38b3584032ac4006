// Package model defines the distributed decision-making model of Section 3
// of the paper: n players, each receiving a private input uniform on
// [0, π_i] (π_i = 1 for every player in the paper's homogeneous game),
// each choosing one of two bins of capacity δ with no communication, and
// the system "winning" when neither bin overflows.
//
// A LocalRule is the paper's (local) decision-making algorithm A_i in the
// no-communication case: a (possibly randomized) map from the player's own
// input to a bin. The package supplies the two families the paper analyses
// — oblivious coin rules and single-threshold rules — plus arbitrary
// deterministic rules, and the machinery to evaluate a full system on an
// input vector.
package model

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Bin identifies one of the two available bins.
type Bin int

// The two bins of the load-balancing game.
const (
	Bin0 Bin = 0
	Bin1 Bin = 1
)

// String returns "0" or "1".
func (b Bin) String() string {
	if b == Bin0 {
		return "0"
	}
	return "1"
}

// Other returns the opposite bin.
func (b Bin) Other() Bin {
	if b == Bin0 {
		return Bin1
	}
	return Bin0
}

// LocalRule is a player's local decision algorithm in the no-communication
// case: it sees only the player's own input. Randomized rules draw from
// rng, which is non-nil whenever the rule is invoked through System.
type LocalRule interface {
	// Decide maps the player's input to a bin choice.
	Decide(input float64, rng *rand.Rand) (Bin, error)
}

// ObliviousRule ignores the input and selects Bin0 with probability P0
// (the paper's α_i). It is the paper's oblivious algorithm for one player.
type ObliviousRule struct {
	// P0 is the probability of choosing Bin0.
	P0 float64
}

// NewObliviousRule validates P0 ∈ [0, 1] and returns the rule.
func NewObliviousRule(p0 float64) (ObliviousRule, error) {
	if math.IsNaN(p0) || p0 < 0 || p0 > 1 {
		return ObliviousRule{}, fmt.Errorf("model: oblivious probability %v outside [0, 1]", p0)
	}
	return ObliviousRule{P0: p0}, nil
}

// Decide implements LocalRule. It returns an error when the rule is
// strictly randomized (0 < P0 < 1) and rng is nil.
func (r ObliviousRule) Decide(_ float64, rng *rand.Rand) (Bin, error) {
	switch {
	case r.P0 <= 0:
		return Bin1, nil
	case r.P0 >= 1:
		return Bin0, nil
	case rng == nil:
		return 0, fmt.Errorf("model: randomized oblivious rule needs a random source")
	case rng.Float64() < r.P0:
		return Bin0, nil
	default:
		return Bin1, nil
	}
}

// ThresholdRule is the paper's single-threshold non-oblivious algorithm:
// it selects Bin0 when the input is at most Threshold (the paper's a_i) and
// Bin1 otherwise.
type ThresholdRule struct {
	// Threshold is the cut point in [0, 1].
	Threshold float64
}

// NewThresholdRule validates the threshold ∈ [0, 1] and returns the rule.
// (The paper allows thresholds beyond 1, but with U[0,1] inputs any
// threshold ≥ 1 behaves identically to 1, so the constructor normalizes
// the domain.)
func NewThresholdRule(threshold float64) (ThresholdRule, error) {
	if math.IsNaN(threshold) || threshold < 0 || threshold > 1 {
		return ThresholdRule{}, fmt.Errorf("model: threshold %v outside [0, 1]", threshold)
	}
	return ThresholdRule{Threshold: threshold}, nil
}

// Decide implements LocalRule.
func (r ThresholdRule) Decide(input float64, _ *rand.Rand) (Bin, error) {
	if input <= r.Threshold {
		return Bin0, nil
	}
	return Bin1, nil
}

// FuncRule wraps an arbitrary deterministic decision function, giving the
// framework the paper's full generality ("any computable function of the
// inputs it sees").
type FuncRule struct {
	name string
	fn   func(input float64) Bin
}

// NewFuncRule wraps fn under the given name. It returns an error if fn is
// nil.
func NewFuncRule(name string, fn func(input float64) Bin) (FuncRule, error) {
	if fn == nil {
		return FuncRule{}, fmt.Errorf("model: nil decision function %q", name)
	}
	return FuncRule{name: name, fn: fn}, nil
}

// Name returns the rule's label.
func (r FuncRule) Name() string { return r.name }

// Decide implements LocalRule.
func (r FuncRule) Decide(input float64, _ *rand.Rand) (Bin, error) {
	return r.fn(input), nil
}

// Compile-time interface compliance checks.
var (
	_ LocalRule = ObliviousRule{}
	_ LocalRule = ThresholdRule{}
	_ LocalRule = FuncRule{}
)

// System is an n-player no-communication decision-making instance: one
// LocalRule per player, a common bin capacity δ, and per-player input
// ranges (player i's input is uniform on [0, widths[i]]). A nil widths
// slice is the homogeneous U[0, 1] game and takes exactly the code paths
// the system took before heterogeneous ranges existed.
type System struct {
	rules    []LocalRule
	capacity float64
	// widths holds the per-player input ranges π_i; nil means homogeneous
	// U[0, 1]. Constructors canonicalize an all-ones slice to nil.
	widths []float64
}

// NewSystem builds a homogeneous-input system from per-player rules and
// the bin capacity δ. At least two players are required (matching the
// paper's n ≥ 2), every rule must be non-nil, and the capacity must be
// strictly positive.
func NewSystem(rules []LocalRule, capacity float64) (*System, error) {
	return NewSystemPi(rules, capacity, nil)
}

// NewSystemPi builds a system with per-player input ranges: player i's
// input is uniform on [0, widths[i]]. A nil or empty widths slice selects
// the homogeneous U[0, 1] game; otherwise widths must have one strictly
// positive finite entry per rule. An all-ones widths slice is
// canonicalized to the homogeneous game, so homogeneous results stay
// bit-identical however the instance was spelled.
func NewSystemPi(rules []LocalRule, capacity float64, widths []float64) (*System, error) {
	if len(rules) < 2 {
		return nil, fmt.Errorf("model: need at least 2 players, got %d", len(rules))
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("model: capacity %v must be strictly positive and finite", capacity)
	}
	cp := make([]LocalRule, len(rules))
	for i, r := range rules {
		if r == nil {
			return nil, fmt.Errorf("model: nil rule for player %d", i)
		}
		cp[i] = r
	}
	sys := &System{rules: cp, capacity: capacity}
	if len(widths) > 0 {
		if len(widths) != len(rules) {
			return nil, fmt.Errorf("model: %d input ranges for %d players", len(widths), len(rules))
		}
		hetero := false
		for i, w := range widths {
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("model: input range π[%d] = %v must be strictly positive and finite", i, w)
			}
			if w != 1 {
				hetero = true
			}
		}
		if hetero {
			sys.widths = append([]float64(nil), widths...)
		}
	}
	return sys, nil
}

// UniformSystem builds a homogeneous-input system in which every player
// runs the same rule.
func UniformSystem(n int, rule LocalRule, capacity float64) (*System, error) {
	return UniformSystemPi(n, rule, capacity, nil)
}

// UniformSystemPi builds a system in which every player runs the same
// rule, with per-player input ranges as in NewSystemPi.
func UniformSystemPi(n int, rule LocalRule, capacity float64, widths []float64) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("model: need at least 2 players, got %d", n)
	}
	rules := make([]LocalRule, n)
	for i := range rules {
		rules[i] = rule
	}
	return NewSystemPi(rules, capacity, widths)
}

// N returns the number of players.
func (s *System) N() int { return len(s.rules) }

// Capacity returns the bin capacity δ.
func (s *System) Capacity() float64 { return s.capacity }

// InputWidth returns player i's input range π_i (1 for homogeneous
// systems and out-of-range indices).
func (s *System) InputWidth(i int) float64 {
	if i >= 0 && i < len(s.widths) {
		return s.widths[i]
	}
	return 1
}

// Heterogeneous reports whether some player's input range differs from 1.
func (s *System) Heterogeneous() bool { return s.widths != nil }

// Rule returns player i's rule. It returns an error for an out-of-range
// index.
func (s *System) Rule(i int) (LocalRule, error) {
	if i < 0 || i >= len(s.rules) {
		return nil, fmt.Errorf("model: player index %d out of range [0, %d)", i, len(s.rules))
	}
	return s.rules[i], nil
}

// Outcome is the result of playing one round.
type Outcome struct {
	// Decisions holds each player's bin choice.
	Decisions []Bin
	// Load0 and Load1 are the total inputs placed in each bin (the paper's
	// Σ_0 and Σ_1).
	Load0, Load1 float64
	// Win reports whether neither bin overflowed: Σ_0 ≤ δ and Σ_1 ≤ δ.
	Win bool
}

// Play evaluates the system on the given input vector. inputs must have
// one entry per player, each in the player's input range [0, π_i]
// ([0, 1] for homogeneous systems). rng is passed to randomized rules
// and may be nil when all rules are deterministic.
func (s *System) Play(inputs []float64, rng *rand.Rand) (Outcome, error) {
	var out Outcome
	if err := s.PlayInto(&out, inputs, rng); err != nil {
		return Outcome{}, err
	}
	return out, nil
}

// PlayInto evaluates the system like Play but writes the result into a
// caller-owned Outcome, reusing its Decisions buffer when it has capacity.
// A worker that keeps one Outcome across trials plays allocation-free.
func (s *System) PlayInto(out *Outcome, inputs []float64, rng *rand.Rand) error {
	if out == nil {
		return fmt.Errorf("model: nil outcome")
	}
	if len(inputs) != len(s.rules) {
		return fmt.Errorf("model: %d inputs for %d players", len(inputs), len(s.rules))
	}
	if cap(out.Decisions) < len(inputs) {
		out.Decisions = make([]Bin, len(inputs))
	} else {
		out.Decisions = out.Decisions[:len(inputs)]
	}
	out.Load0, out.Load1, out.Win = 0, 0, false
	for i, x := range inputs {
		if w := s.InputWidth(i); math.IsNaN(x) || x < 0 || x > w {
			return fmt.Errorf("model: input %d = %v outside [0, %v]", i, x, w)
		}
		bin, err := s.rules[i].Decide(x, rng)
		if err != nil {
			return fmt.Errorf("model: player %d decision failed: %w", i, err)
		}
		if bin != Bin0 && bin != Bin1 {
			return fmt.Errorf("model: player %d chose invalid bin %d", i, bin)
		}
		out.Decisions[i] = bin
		if bin == Bin0 {
			out.Load0 += x
		} else {
			out.Load1 += x
		}
	}
	out.Win = out.Load0 <= s.capacity && out.Load1 <= s.capacity
	return nil
}

// SampleInputs draws one input vector for the system's n players, each
// uniform on the player's range [0, π_i]. It returns an error if rng is
// nil.
func (s *System) SampleInputs(rng *rand.Rand) ([]float64, error) {
	inputs := make([]float64, len(s.rules))
	if err := s.SampleInputsInto(inputs, rng); err != nil {
		return nil, err
	}
	return inputs, nil
}

// SampleInputsInto fills the caller-owned dst (one slot per player) with
// an input vector, drawing one rng.Float64 per player in player order —
// the same draw count and order as SampleInputs (and as the batch
// kernel), so all sampling paths are interchangeable on a fixed stream.
// For heterogeneous systems each draw is scaled to the player's range.
func (s *System) SampleInputsInto(dst []float64, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("model: nil random source")
	}
	if len(dst) != len(s.rules) {
		return fmt.Errorf("model: %d input slots for %d players", len(dst), len(s.rules))
	}
	if s.widths == nil {
		for i := range dst {
			dst[i] = rng.Float64()
		}
		return nil
	}
	for i := range dst {
		dst[i] = rng.Float64() * s.widths[i]
	}
	return nil
}

// maxFeasibilityPlayers caps the omniscient feasibility check: its walk
// visits up to 2^(n-1) assignments.
const maxFeasibilityPlayers = 30

// FeasibleAssignmentExists reports whether some assignment of the given
// inputs to the two bins keeps both bins within capacity. This is the
// omniscient (full-information, centralized) benchmark: no distributed
// algorithm can win on an input vector for which it is false. The check
// walks the 2^(n-1) essentially distinct assignments depth first, so it is
// meant for the small n used in the paper's experiments. The walk stops at
// the first node whose bin-0 load fits and whose remaining load fits bin
// 1: that is the leaf test of sending every remaining player to bin 1, so
// the answer equals the full enumeration's.
func FeasibleAssignmentExists(inputs []float64, capacity float64) (bool, error) {
	n := len(inputs)
	if n == 0 {
		return true, nil
	}
	if n > maxFeasibilityPlayers {
		return false, fmt.Errorf("model: feasibility check limited to %d players, got %d", maxFeasibilityPlayers, n)
	}
	if !(capacity > 0) {
		return false, fmt.Errorf("model: capacity %v must be strictly positive", capacity)
	}
	var total float64
	for i, x := range inputs {
		if math.IsNaN(x) || x < 0 {
			return false, fmt.Errorf("model: input %d = %v invalid", i, x)
		}
		total += x
	}
	if total > 2*capacity {
		return false, nil
	}
	// Fix player 0 in bin 0 (by symmetry) and place the rest in index order.
	return feasibleFrom(inputs[1:], inputs[0], total, capacity), nil
}

// feasibleFrom reports whether the players in rest can be placed so that
// both bins fit, given the bin-0 load so far. Each player tries bin 0
// first. An assignment's bin-0 load is always summed in index order, so its
// float64 value, and the answer, do not depend on the walk. A branch whose
// bin-0 load already exceeds the capacity is cut: adding non-negative
// inputs never lowers a float64 sum, so no assignment below it fits. A
// node whose bin-0 load fits is accepted as soon as total − load0 fits
// too: that is exactly the leaf test of the assignment sending every
// remaining player to bin 1, whose bin-0 load is this same float64.
func feasibleFrom(rest []float64, load0, total, capacity float64) bool {
	if load0 > capacity {
		return false
	}
	if total-load0 <= capacity {
		return true
	}
	if len(rest) == 0 {
		return false
	}
	return feasibleFrom(rest[1:], load0+rest[0], total, capacity) ||
		feasibleFrom(rest[1:], load0, total, capacity)
}

// FeasibilityKernel plays batches of omniscient feasibility trials: a
// trial wins when some assignment of its inputs fits both bins. It
// follows BatchKernel.Play's contract, so the Monte-Carlo engine runs it
// on the same batched path: every trial draws its n inputs in player
// order with the Float64 construction of rand.New(pcg), scaled by π_i in
// the heterogeneous game, and is decided by the same total cut and walk
// as FeasibleAssignmentExists on those inputs. The inputs are valid by
// construction, so no trial re-validates them. The kernel is immutable
// and safe to share across workers.
type FeasibilityKernel struct {
	capacity float64
	n        int
	// widths holds the per-player input ranges π_i, nil for the
	// homogeneous U[0, 1] game.
	widths []float64
}

// NewFeasibilityKernel builds the kernel for n players with the given
// bin capacity and input ranges (nil for U[0, 1] inputs).
func NewFeasibilityKernel(n int, capacity float64, widths []float64) (*FeasibilityKernel, error) {
	if n < 1 || n > maxFeasibilityPlayers {
		return nil, fmt.Errorf("model: feasibility check takes 1 to %d players, got %d", maxFeasibilityPlayers, n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("model: capacity %v must be strictly positive and finite", capacity)
	}
	if widths != nil {
		if len(widths) != n {
			return nil, fmt.Errorf("model: %d input ranges for %d players", len(widths), n)
		}
		for i, w := range widths {
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("model: input range %d = %v must be strictly positive and finite", i, w)
			}
		}
	}
	return &FeasibilityKernel{capacity: capacity, n: n, widths: widths}, nil
}

// Dims reports the number of values one trial draws: one per player.
func (k *FeasibilityKernel) Dims() int { return k.n }

// Play samples and decides b trials drawn from pcg and returns the number
// of feasible ones, with per-trial flags in sc.Wins()[:b].
func (k *FeasibilityKernel) Play(sc *BatchScratch, pcg *rand.PCG, b int) int {
	sc.ensure(0, b)
	var buf [maxFeasibilityPlayers]float64
	inputs := buf[:k.n]
	capacity := k.capacity
	wins := 0
	for t := range sc.wins {
		var total float64
		if k.widths == nil {
			for i := range inputs {
				x := srcFloat64(pcg.Uint64())
				inputs[i] = x
				total += x
			}
		} else {
			for i, w := range k.widths {
				x := srcFloat64(pcg.Uint64()) * w
				inputs[i] = x
				total += x
			}
		}
		ok := !(total > 2*capacity) && feasibleFrom(inputs[1:], inputs[0], total, capacity)
		sc.wins[t] = ok
		if ok {
			wins++
		}
	}
	return wins
}
