package nonoblivious

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/problem"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// With distinct thresholds on distinct ranges the bin-1 CDFs take a
// pruned depth-first walk per set (dist.TwoBranchKernel; worst case
// Θ(3^n)), which keeps this cap below MaxNGeneral, where π ≡ 1 needs no
// walk.
const MaxNHetero = 15

// WinningProbabilityPi generalizes Theorem 5.1 to heterogeneous inputs
// x_i ~ U[0, π_i]: the probability that neither bin overflows capacity δ
// when player i sends its input to bin 0 exactly when x_i ≤ thresholds[i].
// A nil (or empty) π means π ≡ 1, the homogeneous WinningProbability;
// any other π must have one entry per player. Thresholds stay in [0, 1],
// matching the rule class the model layer admits; a threshold above π_i
// simply sends player i to bin 0 always. A non-nil observer receives the
// exact.* work counters; nil disables instrumentation.
//
// The evaluation conditions per bin exactly as the homogeneous proof does:
// with c_i = min(a_i, π_i), player i is the two-branch player that puts a
// load uniform on [0, c_i] into bin 0 with mass c_i/π_i and one uniform on
// [c_i, π_i] into bin 1 with mass (π_i − c_i)/π_i, and dist.TwoBranchKernel
// sums the bin choices. The bin-1 CDFs are taken at δ − Σ_{i∈S} a_i, the
// shift identity behind Lemma 2.7. When every player that can choose bin
// 1 has the same threshold, or the same range π_i (π ≡ 1 among them), the
// kernel builds the bin-1 tables with one ladder pass per cardinality,
// and otherwise it walks each set that can contribute. It is WinningProbabilityPiInto with a
// fresh kernel.
func WinningProbabilityPi(thresholds, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
	return WinningProbabilityPiInto(new(dist.TwoBranchKernel), thresholds, pi, capacity, o)
}

// WinningProbabilityPiInto is WinningProbabilityPi built into the caller's
// kernel k: a search, a sweep or an Evaluator that keeps one kernel
// allocates its tables once, and k rebuilds only what the loads change
// (dist.TwoBranchKernel.Build), homogeneous or not. The value has the bits
// of WinningProbabilityPi whatever k held, and the observer receives the
// table work of this build.
func WinningProbabilityPiInto(k *dist.TwoBranchKernel, thresholds, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
	n := len(thresholds)
	if n < 2 {
		return 0, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if len(pi) > 0 && len(pi) != n {
		return 0, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	hetero := false
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("nonoblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
		hetero = hetero || w != 1
	}
	if hetero && n > MaxNHetero {
		return 0, problem.PlayerCapError("nonoblivious: heterogeneous evaluation limited to %d players, got %d", MaxNHetero, n)
	}
	if err := checkGeneral(n, capacity); err != nil {
		return 0, err
	}
	if err := checkThresholds(thresholds); err != nil {
		return 0, err
	}
	var buf [MaxNGeneral]dist.TwoBranch
	players := buf[:n]
	for i, a := range thresholds {
		w := 1.0
		if len(pi) > 0 {
			w = pi[i]
		}
		c := math.Min(a, w)
		players[i] = dist.TwoBranch{Mass0: c / w, Hi0: c, Mass1: (w - c) / w, Lo1: c, Hi1: w}
	}
	if err := k.Build(players, capacity); err != nil {
		return 0, err
	}
	k.Stats().Record(o)
	return k.Sum(), nil
}
