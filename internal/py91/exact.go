package py91

import (
	"math"
	"slices"
)

// ExactWinProbability returns the winning probability. With full
// information the players lose only when no split fits, that is when the
// two smallest inputs overflow one bin together, which has probability
// exactly 1/4.
func (FullInformationProtocol) ExactWinProbability() (float64, error) {
	return 0.75, nil
}

// ExactWinProbability returns the winning probability, integrated over x₀
// in closed form.
//
// Given x₀, player 0's bin is fixed, and players 1 and 2 threshold their
// own inputs at cuts c₁(x₀), c₂(x₀): the weighted average W·x₀ +
// (1−W)·x_j ≤ θ_j is x_j ≤ (θ_j − W·x₀)/(1−W), clamped to [0, 1] (a step
// at x₀ = θ_j when W = 1; the constant θ₂ for player 2 under OneWay).
// For each of the four bin patterns of players 1 and 2 the win region in
// (x₁, x₂) is a box cut by at most one half-plane x₁ + x₂ ≤ t, whose area
// is Lemma 2.3 in two dimensions: inclusion–exclusion over the box
// corners of (t − corner)₊²/2. The conditional win area is therefore
// piecewise quadratic in x₀, and Simpson's rule integrates each piece
// exactly. The pieces break at θ₀, where a cut clamps or steps, and where
// some t − corner changes sign.
func (p *WeightedAverageProtocol) ExactWinProbability() (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	// Primary breaks: within each primary interval player 0's bin is fixed
	// and both cuts are affine in x₀.
	xs := []float64{0, 1, p.Theta0}
	xs = cutBreaks(xs, p.Theta1, p.W)
	xs = cutBreaks(xs, p.Theta2, p.listenerWeight2())
	primary := unitBreaks(xs)
	// Secondary breaks: roots of every t − corner inside its interval.
	xs = slices.Clone(primary)
	for i := 1; i < len(primary); i++ {
		lo, hi := primary[i-1], primary[i]
		for _, k := range p.pieceAt((lo + hi) / 2).kinks() {
			if k.b == 0 {
				continue
			}
			if r := -k.a / k.b; lo < r && r < hi {
				xs = append(xs, r)
			}
		}
	}
	xs = unitBreaks(xs)
	total := 0.0
	for i := 1; i < len(xs); i++ {
		a, b := xs[i-1], xs[i]
		m := (a + b) / 2
		pc := p.pieceAt(m)
		total += (b - a) / 6 * (pc.area(a) + 4*pc.area(m) + pc.area(b))
	}
	return min(max(total, 0), 1), nil
}

// listenerWeight2 is the weight player 2 puts on x₀: W under Broadcast,
// 0 under OneWay (player 2 sees only its own input).
func (p *WeightedAverageProtocol) listenerWeight2() float64 {
	if p.CommPattern == Broadcast {
		return p.W
	}
	return 0
}

// pieceAt returns the affine description of the conditional win area
// around x₀ = m.
func (p *WeightedAverageProtocol) pieceAt(m float64) piece {
	return piece{
		low0: m <= p.Theta0,
		c1:   cutAt(p.Theta1, p.W, m),
		c2:   cutAt(p.Theta2, p.listenerWeight2(), m),
	}
}

// lin is an affine function of player 0's input: v(x₀) = a + b·x₀.
type lin struct{ a, b float64 }

func (l lin) at(x float64) float64 { return l.a + l.b*x }

func (l lin) minus(m lin) lin { return lin{l.a - m.a, l.b - m.b} }

func konst(v float64) lin { return lin{a: v} }

// cutAt returns, as an affine function valid around x₀ = m, the cut c
// such that a player with threshold theta and weight w on x₀ enters bin 0
// exactly when its own input is ≤ c.
func cutAt(theta, w, m float64) lin {
	if w == 1 {
		if m <= theta {
			return konst(1)
		}
		return konst(0)
	}
	raw := lin{theta / (1 - w), -w / (1 - w)}
	switch v := raw.at(m); {
	case v <= 0:
		return konst(0)
	case v >= 1:
		return konst(1)
	}
	return raw
}

// cutBreaks appends the x₀ values at which cutAt(theta, w, ·) changes
// form: the step at theta when w = 1, else where the raw cut crosses 0
// and 1.
func cutBreaks(dst []float64, theta, w float64) []float64 {
	switch {
	case w == 1:
		return append(dst, theta)
	case w > 0:
		return append(dst, theta/w, (theta-(1-w))/w)
	}
	return dst
}

// unitBreaks keeps the values inside [0, 1], sorted and without repeats.
func unitBreaks(xs []float64) []float64 {
	xs = slices.DeleteFunc(xs, func(x float64) bool { return !(x >= 0 && x <= 1) })
	slices.Sort(xs)
	return slices.Compact(xs)
}

// piece is the conditional win area on an x₀ interval where player 0's
// bin is fixed and both cuts are affine.
type piece struct {
	// low0 reports that player 0 is in bin 0.
	low0 bool
	// c1, c2 are the cuts of players 1 and 2.
	c1, c2 lin
}

// slacks returns the room player 0 leaves in bin 0 and in bin 1.
func (pc piece) slacks() (t0, t1 lin) {
	s := lin{1, -1}
	if pc.low0 {
		return s, konst(1)
	}
	return konst(1), s
}

// kinks returns affine functions whose sign changes are the only places
// the area is not a single quadratic: t − u − v for t either slack and u,
// v a corner coordinate of player 1's and player 2's intervals.
func (pc piece) kinks() []lin {
	t0, t1 := pc.slacks()
	out := make([]lin, 0, 18)
	for _, t := range []lin{t0, t1} {
		for _, u := range []lin{konst(0), pc.c1, konst(1)} {
			for _, v := range []lin{konst(0), pc.c2, konst(1)} {
				out = append(out, t.minus(u).minus(v))
			}
		}
	}
	return out
}

// area returns the (x₁, x₂) area of the win region at x₀ = x.
func (pc piece) area(x float64) float64 {
	t0l, t1l := pc.slacks()
	c1, c2, t0, t1 := pc.c1.at(x), pc.c2.at(x), t0l.at(x), t1l.at(x)
	// Players 1 and 2 share a bin: the half-plane x₁ + x₂ ≤ slack.
	a := boxBelow(0, c1, 0, c2, t0) + boxBelow(c1, 1, c2, 1, t1)
	// They split: the one sharing player 0's bin must fit beside x₀.
	if pc.low0 {
		a += segBelow(0, c1, t0)*(1-c2) + (1-c1)*segBelow(0, c2, t0)
	} else {
		a += c1*segBelow(c2, 1, t1) + segBelow(c1, 1, t1)*c2
	}
	return a
}

// boxBelow is the area of [a1, b1] × [a2, b2] ∩ {x₁ + x₂ ≤ t}.
func boxBelow(a1, b1, a2, b2, t float64) float64 {
	return halfSq(t-a1-a2) - halfSq(t-b1-a2) - halfSq(t-a1-b2) + halfSq(t-b1-b2)
}

// segBelow is the length of [a, b] ∩ (−∞, t].
func segBelow(a, b, t float64) float64 {
	return math.Max(t-a, 0) - math.Max(t-b, 0)
}

// halfSq is u₊²/2.
func halfSq(u float64) float64 {
	if u <= 0 {
		return 0
	}
	return u * u / 2
}
