package response

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestScratchSetsMatchNewIntervalSet checks the arena-built sets against
// the same intervals passed through NewIntervalSet (validate, sort,
// merge), on random sets whose endpoints lie on a coarse grid so that
// zero-width and touching intervals occur. One Scratch serves every case,
// reset between cases, so the arena's reuse is exercised too.
func TestScratchSetsMatchNewIntervalSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	grid := func() float64 { return float64(rng.IntN(9)) / 8 }
	var sc Scratch
	for trial := 0; trial < 2000; trial++ {
		var raw []Interval
		for k := rng.IntN(4); k > 0; k-- {
			a, b := grid(), grid()
			raw = append(raw, Interval{min(a, b), max(a, b)})
		}
		s, err := NewIntervalSet(raw)
		if err != nil {
			t.Fatal(err)
		}
		sc.Reset()
		// Complement: the gaps of s, through NewIntervalSet.
		var gaps []Interval
		cursor := 0.0
		for _, iv := range s.intervals {
			if iv.Lo > cursor {
				gaps = append(gaps, Interval{cursor, iv.Lo})
			}
			cursor = iv.Hi
		}
		if cursor < 1 {
			gaps = append(gaps, Interval{cursor, 1})
		}
		wantComp, err := NewIntervalSet(gaps)
		if err != nil {
			t.Fatal(err)
		}
		comp := sc.Complement(s)
		// Intersect with a random window, through NewIntervalSet.
		lo, hi := grid(), grid()
		lo, hi = min(lo, hi), max(lo, hi)
		var clipped []Interval
		for _, iv := range s.intervals {
			if l, h := max(iv.Lo, lo), min(iv.Hi, hi); l <= h {
				clipped = append(clipped, Interval{l, h})
			}
		}
		wantCut, err := NewIntervalSet(clipped)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := sc.Intersect(s, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		beta := grid()
		wantThr, err := NewIntervalSet([]Interval{{0, beta}})
		if err != nil {
			t.Fatal(err)
		}
		if beta == 0 {
			wantThr = IntervalSet{}
		}
		thr, err := sc.Threshold(beta)
		if err != nil {
			t.Fatal(err)
		}
		// Every set built in this case must still hold its intervals
		// after the later ones were appended to the arena.
		for _, c := range []struct {
			name      string
			got, want IntervalSet
		}{
			{"Complement", comp, wantComp},
			{"Intersect", cut, wantCut},
			{"Threshold", thr, wantThr},
			{"package Complement", s.Complement(), wantComp},
		} {
			if !slices.Equal(c.got.intervals, c.want.intervals) {
				t.Fatalf("%s of %v (window [%v, %v], β = %v) = %v, want %v", c.name, s, lo, hi, beta, c.got.intervals, c.want.intervals)
			}
		}
	}
}
