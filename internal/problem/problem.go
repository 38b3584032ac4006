// Package problem defines the canonical distributed decision-making
// problem instance shared by every layer of the reproduction: n players,
// two bins of common capacity δ, and per-player input ranges — player i's
// private input is uniform on [0, π_i] (the heterogeneous regime of the
// paper's Section 2.2 distribution machinery, Lemmas 2.4–2.7). A nil or
// empty π vector means the homogeneous U[0, 1] game analysed in
// Sections 4 and 5.
//
// The package is a leaf: it imports only the standard library, so model,
// sim, the exact evaluators, engine and the harness can all depend on the
// one Instance type without cycles. It owns the single Validate
// implementation, the canonical bit-pattern cache key used by the
// evaluation engine's memoization layer, and ErrPlayerCap, the refusal
// every exact evaluator wraps when an instance has too many players.
package problem

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// ErrPlayerCap is wrapped by an exact evaluator's refusal of an instance
// with more players than it supports. errors.Is tells such a refusal apart
// from an invalid request, so the engine's Auto backend can fall through
// to Monte-Carlo instead of failing.
var ErrPlayerCap = errors.New("player count exceeds the exact evaluator's cap")

// playerCapError keeps an evaluator's own cap message while wrapping
// ErrPlayerCap.
type playerCapError string

func (e playerCapError) Error() string { return string(e) }

func (playerCapError) Unwrap() error { return ErrPlayerCap }

// PlayerCapError formats an exact evaluator's player-cap refusal. The
// message reads exactly as formatted; the error wraps ErrPlayerCap.
func PlayerCapError(format string, args ...any) error {
	return playerCapError(fmt.Sprintf(format, args...))
}

// Instance is one distributed decision-making problem: N players with
// independent inputs x_i ~ U[0, π_i] and two bins of capacity Delta, no
// communication. A nil (or empty) Pi means the homogeneous U[0, 1] game;
// every layer treats that case exactly as it did before heterogeneous
// instances existed.
type Instance struct {
	// N is the number of players (n ≥ 2).
	N int
	// Delta is the bin capacity (the paper's δ = t > 0).
	Delta float64
	// Pi holds the per-player input ranges π_i (x_i ~ U[0, π_i]); nil or
	// empty selects the homogeneous U[0, 1] game. When non-empty it must
	// have exactly N strictly positive, finite entries.
	Pi []float64
}

// New validates and returns a homogeneous U[0, 1] instance.
func New(n int, delta float64) (Instance, error) {
	return NewPi(n, delta, nil)
}

// PaperInstance returns the homogeneous instance with the paper's scaling
// δ = n/3 (δ=1 at n=3, δ=4/3 at n=4, ...).
func PaperInstance(n int) (Instance, error) {
	return New(n, float64(n)/3)
}

// NewPi validates and returns an instance with per-player input ranges.
// The π vector is copied; nil or empty pi selects the homogeneous game,
// and an all-ones pi is canonicalized to nil (U[0, 1] spelled out is the
// same instance).
func NewPi(n int, delta float64, pi []float64) (Instance, error) {
	inst := Instance{N: n, Delta: delta}
	if len(pi) > 0 {
		inst.Pi = append([]float64(nil), pi...)
	}
	if err := inst.Validate(); err != nil {
		return Instance{}, err
	}
	if !inst.Heterogeneous() {
		inst.Pi = nil
	}
	return inst, nil
}

// Validate checks the instance: n ≥ 2, strictly positive finite capacity,
// and — when a π vector is present — one strictly positive finite range
// per player.
func (inst Instance) Validate() error {
	if inst.N < 2 {
		return fmt.Errorf("problem: need at least 2 players, got %d", inst.N)
	}
	if !(inst.Delta > 0) || math.IsInf(inst.Delta, 1) {
		return fmt.Errorf("problem: capacity %v must be strictly positive and finite", inst.Delta)
	}
	if len(inst.Pi) == 0 {
		return nil
	}
	if len(inst.Pi) != inst.N {
		return fmt.Errorf("problem: %d input ranges for %d players", len(inst.Pi), inst.N)
	}
	for i, w := range inst.Pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("problem: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
	}
	return nil
}

// DeltaRat returns the capacity as an exact rational when it is one (the
// paper's instances all are); it reports ok=false when Delta is not
// exactly representable as a small fraction.
func (inst Instance) DeltaRat() (r *big.Rat, ok bool) {
	r = new(big.Rat).SetFloat64(inst.Delta)
	if r == nil {
		return nil, false
	}
	// Accept only small denominators: the paper's δ are n/3-style
	// fractions; float64 artifacts produce huge denominators.
	if r.Denom().BitLen() > 20 {
		// Try to snap to a nearby small fraction k/d, d ≤ 64.
		for d := int64(1); d <= 64; d++ {
			num := math.Round(inst.Delta * float64(d))
			if math.Abs(inst.Delta-num/float64(d)) < 1e-12 {
				return big.NewRat(int64(num), d), true
			}
		}
		return nil, false
	}
	return r, true
}

// Heterogeneous reports whether the instance departs from the homogeneous
// U[0, 1] game: a non-empty π vector with some π_i ≠ 1. An all-ones π is
// the homogeneous game spelled out, so it reports false.
func (inst Instance) Heterogeneous() bool {
	for _, w := range inst.Pi {
		if w != 1 {
			return true
		}
	}
	return false
}

// Width returns player i's input range π_i (1 for homogeneous instances).
// The index is not bounds-checked beyond the π vector: any index of a
// homogeneous instance yields 1.
func (inst Instance) Width(i int) float64 {
	if i >= 0 && i < len(inst.Pi) {
		return inst.Pi[i]
	}
	return 1
}

// Widths returns a copy of the π vector, or nil for homogeneous
// instances (including all-ones π). Callers that need one width per
// player regardless should use Width.
func (inst Instance) Widths() []float64 {
	if !inst.Heterogeneous() {
		return nil
	}
	return append([]float64(nil), inst.Pi...)
}

// Key is the instance's canonical cache-key component. The capacity and
// every π_i are keyed by their exact float64 bit patterns, so nearby
// floats never collide, and the π part is omitted for homogeneous
// instances (an all-ones π keys identically to nil — they are the same
// game). Distinct (N, Delta bits, canonical π bits) triples map to
// distinct keys.
func (inst Instance) Key() string {
	if !inst.Heterogeneous() {
		return "n=" + strconv.Itoa(inst.N) + "|d=" + strconv.FormatUint(math.Float64bits(inst.Delta), 16)
	}
	var b strings.Builder
	b.Grow(32 + 17*len(inst.Pi))
	var buf [16]byte
	b.WriteString("n=")
	b.Write(strconv.AppendInt(buf[:0], int64(inst.N), 10))
	b.WriteString("|d=")
	b.Write(strconv.AppendUint(buf[:0], math.Float64bits(inst.Delta), 16))
	b.WriteString("|pi=")
	for i, w := range inst.Pi {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendUint(buf[:0], math.Float64bits(w), 16))
	}
	return b.String()
}

// String renders the instance for logs and CLI output: "n=3 δ=1" or
// "n=3 δ=1 π=(0.5,1,0.75)".
func (inst Instance) String() string {
	s := fmt.Sprintf("n=%d δ=%g", inst.N, inst.Delta)
	if inst.Heterogeneous() {
		s += " π=(" + FormatPi(inst.Pi) + ")"
	}
	return s
}

// ParsePi parses the CLI spelling of a π vector: a comma-separated float
// list such as "0.5,1,0.75". Whitespace around entries is ignored; an
// empty (or all-whitespace) string parses to nil, the homogeneous game.
// Entries must be strictly positive and finite.
func ParsePi(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	pi := make([]float64, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("problem: empty entry %d in π list %q", i, s)
		}
		w, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("problem: bad π[%d] %q: not a number", i, part)
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("problem: π[%d] = %v must be strictly positive and finite", i, w)
		}
		pi[i] = w
	}
	return pi, nil
}

// FormatPi renders a π vector in the form ParsePi accepts ("0.5,1,0.75").
func FormatPi(pi []float64) string {
	parts := make([]string, len(pi))
	for i, w := range pi {
		parts[i] = strconv.FormatFloat(w, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
