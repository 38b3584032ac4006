// Package py91 implements the three-player setting of Papadimitriou and
// Yannakakis, "On the Value of Information in Distributed Decision-Making"
// (PODC 1991), which the reproduced paper generalizes. PY91 fixes n = 3
// players with U[0,1] inputs, two bins of capacity 1, and studies how the
// best achievable no-overflow probability grows with the communication
// pattern. Protocols in PY91 compare weighted averages of the inputs a
// player sees against thresholds; the no-communication member of that
// family is the single-threshold algorithm whose optimal threshold
// 1 - sqrt(1/7) PY91 conjectured and the reproduced paper proves
// (Section 5.2.1).
//
// The package provides the communication-pattern ladder (none → one-way →
// broadcast → full information), parameterized weighted-average protocols
// for each pattern, and an exact oracle for every protocol it defines:
// Theorem 5.1 for the no-communication member, a closed-form integral
// over player 0's input for the weighted averages (exact.go), and 3/4 for
// full information. OptimizeWeighted tunes the weighted averages on that
// exact objective, so experiments can chart the value of information
// against the paper's no-communication optimum. Monte-Carlo runs through
// the evaluation engine's PY91Rule, which plays Decide on the shared
// simulator.
package py91

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nonoblivious"
)

// Players is the PY91 system size.
const Players = 3

// Capacity is the PY91 bin capacity.
const Capacity = 1.0

// ConjecturedOptimalThreshold is 1 - sqrt(1/7), the no-communication
// threshold PY91 conjectured optimal and the reproduced paper proves
// optimal (Section 5.2.1).
var ConjecturedOptimalThreshold = 1 - math.Sqrt(1.0/7)

// Pattern enumerates the PY91 communication patterns for three players.
type Pattern int

// The communication ladder, ordered by information content.
const (
	// NoCommunication: every player sees only its own input.
	NoCommunication Pattern = iota + 1
	// OneWay: player 0 sends its input to player 1.
	OneWay
	// Broadcast: player 0's input is seen by players 1 and 2.
	Broadcast
	// Full: every player sees every input (centralized decision).
	Full
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case NoCommunication:
		return "none"
	case OneWay:
		return "one-way"
	case Broadcast:
		return "broadcast"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Protocol is a deterministic three-player decision protocol respecting
// some communication pattern.
type Protocol interface {
	// Name labels the protocol.
	Name() string
	// Decide maps the full input vector to the three bin choices, reading
	// only the inputs its communication pattern allows.
	Decide(x [Players]float64) ([Players]model.Bin, error)
}

// ThresholdProtocol is the no-communication member of the PY91 family:
// player i chooses bin 0 exactly when x_i ≤ Theta[i].
type ThresholdProtocol struct {
	// Theta holds the three thresholds.
	Theta [Players]float64
}

// NewThresholdProtocol validates thresholds in [0, 1].
func NewThresholdProtocol(theta [Players]float64) (*ThresholdProtocol, error) {
	for i, a := range theta {
		if math.IsNaN(a) || a < 0 || a > 1 {
			return nil, fmt.Errorf("py91: threshold[%d] = %v outside [0, 1]", i, a)
		}
	}
	return &ThresholdProtocol{Theta: theta}, nil
}

// ConjecturedOptimal returns the symmetric threshold protocol at
// 1 - sqrt(1/7) — the protocol PY91 conjectured optimal for the
// no-communication pattern.
func ConjecturedOptimal() *ThresholdProtocol {
	b := ConjecturedOptimalThreshold
	return &ThresholdProtocol{Theta: [Players]float64{b, b, b}}
}

// Name implements Protocol.
func (p *ThresholdProtocol) Name() string {
	return fmt.Sprintf("threshold(%.4f,%.4f,%.4f)", p.Theta[0], p.Theta[1], p.Theta[2])
}

// Decide implements Protocol.
func (p *ThresholdProtocol) Decide(x [Players]float64) ([Players]model.Bin, error) {
	var out [Players]model.Bin
	for i := range x {
		if x[i] <= p.Theta[i] {
			out[i] = model.Bin0
		} else {
			out[i] = model.Bin1
		}
	}
	return out, nil
}

// ExactWinProbability evaluates the threshold protocol exactly through the
// reproduced paper's Theorem 5.1.
func (p *ThresholdProtocol) ExactWinProbability() (float64, error) {
	return nonoblivious.WinningProbability(p.Theta[:], Capacity, nil)
}

// WeightedAverageProtocol is the PY91 protocol shape for patterns with
// communication: a player that sees extra inputs compares a weighted
// average of what it sees against a threshold. Player 0 always thresholds
// its own input at Theta0. Under OneWay, player 1 chooses bin 0 when
// W*x_0 + (1-W)*x_1 ≤ Theta1 and player 2 thresholds its own input at
// Theta2; under Broadcast, player 2 likewise uses W*x_0 + (1-W)*x_2 ≤
// Theta2.
type WeightedAverageProtocol struct {
	// CommPattern selects OneWay or Broadcast.
	CommPattern Pattern
	// Theta0, Theta1, Theta2 are the per-player cut points.
	Theta0, Theta1, Theta2 float64
	// W is the weight on the heard input x_0.
	W float64
}

// NewWeightedAverageProtocol validates the parameters.
func NewWeightedAverageProtocol(pattern Pattern, theta0, theta1, theta2, w float64) (*WeightedAverageProtocol, error) {
	p := &WeightedAverageProtocol{
		CommPattern: pattern,
		Theta0:      theta0, Theta1: theta1, Theta2: theta2,
		W: w,
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *WeightedAverageProtocol) validate() error {
	if p.CommPattern != OneWay && p.CommPattern != Broadcast {
		return fmt.Errorf("py91: weighted-average protocol needs OneWay or Broadcast, got %v", p.CommPattern)
	}
	for i, v := range []float64{p.Theta0, p.Theta1, p.Theta2} {
		if math.IsNaN(v) || v < -1 || v > 2 {
			return fmt.Errorf("py91: theta%d = %v outside [-1, 2]", i, v)
		}
	}
	if math.IsNaN(p.W) || p.W < 0 || p.W > 1 {
		return fmt.Errorf("py91: weight %v outside [0, 1]", p.W)
	}
	return nil
}

// Name implements Protocol.
func (p *WeightedAverageProtocol) Name() string {
	return fmt.Sprintf("%s-weighted(θ=%.3f,%.3f,%.3f w=%.3f)",
		p.CommPattern, p.Theta0, p.Theta1, p.Theta2, p.W)
}

// Decide implements Protocol.
func (p *WeightedAverageProtocol) Decide(x [Players]float64) ([Players]model.Bin, error) {
	var out [Players]model.Bin
	out[0] = binFor(x[0] <= p.Theta0)
	out[1] = binFor(p.W*x[0]+(1-p.W)*x[1] <= p.Theta1)
	if p.CommPattern == Broadcast {
		out[2] = binFor(p.W*x[0]+(1-p.W)*x[2] <= p.Theta2)
	} else {
		out[2] = binFor(x[2] <= p.Theta2)
	}
	return out, nil
}

func binFor(low bool) model.Bin {
	if low {
		return model.Bin0
	}
	return model.Bin1
}

// FullInformationProtocol is the centralized benchmark: with every input
// visible to everyone, the players agree on any feasible assignment when
// one exists (here: first-fit over all partitions).
type FullInformationProtocol struct{}

// Name implements Protocol.
func (FullInformationProtocol) Name() string { return "full-information" }

// Decide implements Protocol. It returns the first feasible assignment in
// mask order, or the all-but-first split when none is feasible (the
// protocol must still output something; losses are counted by the
// evaluator).
func (FullInformationProtocol) Decide(x [Players]float64) ([Players]model.Bin, error) {
	for mask := 0; mask < 1<<Players; mask++ {
		var load0, load1 float64
		for i := 0; i < Players; i++ {
			if mask&(1<<i) == 0 {
				load0 += x[i]
			} else {
				load1 += x[i]
			}
		}
		if load0 <= Capacity && load1 <= Capacity {
			var out [Players]model.Bin
			for i := 0; i < Players; i++ {
				if mask&(1<<i) != 0 {
					out[i] = model.Bin1
				}
			}
			return out, nil
		}
	}
	return [Players]model.Bin{model.Bin0, model.Bin1, model.Bin1}, nil
}

// Compile-time interface compliance checks.
var (
	_ Protocol = (*ThresholdProtocol)(nil)
	_ Protocol = (*WeightedAverageProtocol)(nil)
	_ Protocol = FullInformationProtocol{}
)
