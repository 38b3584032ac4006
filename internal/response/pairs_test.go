package response

import (
	"math"
	"testing"
)

func mustSet(t *testing.T, ivs ...Interval) IntervalSet {
	t.Helper()
	s, err := NewIntervalSet(ivs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIntersect(t *testing.T) {
	s := mustSet(t, Interval{0.1, 0.4}, Interval{0.6, 0.9})
	got, err := s.Intersect(0.3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	ivs := got.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intersection = %v", ivs)
	}
	if math.Abs(ivs[0].Lo-0.3) > 1e-15 || math.Abs(ivs[0].Hi-0.4) > 1e-15 {
		t.Errorf("first piece = %v", ivs[0])
	}
	if math.Abs(ivs[1].Lo-0.6) > 1e-15 || math.Abs(ivs[1].Hi-0.7) > 1e-15 {
		t.Errorf("second piece = %v", ivs[1])
	}
	// Empty intersection.
	empty, err := s.Intersect(0.45, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Measure() != 0 {
		t.Errorf("empty window intersection = %v", empty)
	}
	// Invalid windows.
	if _, err := s.Intersect(0.7, 0.3); err == nil {
		t.Error("inverted window: expected error")
	}
	if _, err := s.Intersect(-0.1, 0.5); err == nil {
		t.Error("negative window: expected error")
	}
	if _, err := s.Intersect(0, 1.5); err == nil {
		t.Error("window beyond 1: expected error")
	}
	if _, err := s.Intersect(math.NaN(), 1); err == nil {
		t.Error("NaN window: expected error")
	}
}

func TestWinProbabilityVectorPairsPartitionMatchesVector(t *testing.T) {
	// When bin1 is exactly the complement of bin0, the pair evaluation
	// must coincide with WinProbabilityVector.
	sets := []IntervalSet{
		mustSet(t, Interval{0, 0.6}),
		mustSet(t, Interval{0.3, 0.8}),
		mustSet(t, Interval{0.5, 1}),
	}
	comps := make([]IntervalSet, len(sets))
	for i, s := range sets {
		comps[i] = s.Complement()
	}
	pairs, err := WinProbabilityVectorPairs(sets, comps, 1)
	if err != nil {
		t.Fatal(err)
	}
	vector, err := WinProbabilityVector(sets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pairs-vector) > 1e-12 {
		t.Errorf("pairs %v vs vector %v", pairs, vector)
	}
}

func TestWinProbabilityVectorPairsConditioningSplitsTotal(t *testing.T) {
	// Splitting player 0's domain at a cut and summing the two
	// conditioned evaluations must recover the unconditioned value.
	full := mustSet(t, Interval{0, 0.55})
	fullC := full.Complement()
	others := mustSet(t, Interval{0, 0.62})
	othersC := others.Complement()
	const cut = 0.4
	lowSet, err := full.Intersect(0, cut)
	if err != nil {
		t.Fatal(err)
	}
	lowC, err := fullC.Intersect(0, cut)
	if err != nil {
		t.Fatal(err)
	}
	highSet, err := full.Intersect(cut, 1)
	if err != nil {
		t.Fatal(err)
	}
	highC, err := fullC.Intersect(cut, 1)
	if err != nil {
		t.Fatal(err)
	}
	unconditioned, err := WinProbabilityVectorPairs(
		[]IntervalSet{full, others, others},
		[]IntervalSet{fullC, othersC, othersC}, 1)
	if err != nil {
		t.Fatal(err)
	}
	low, err := WinProbabilityVectorPairs(
		[]IntervalSet{lowSet, others, others},
		[]IntervalSet{lowC, othersC, othersC}, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := WinProbabilityVectorPairs(
		[]IntervalSet{highSet, others, others},
		[]IntervalSet{highC, othersC, othersC}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(low+high-unconditioned) > 1e-12 {
		t.Errorf("conditioning split %v + %v != total %v", low, high, unconditioned)
	}
}

func TestWinProbabilityVectorPairsValidation(t *testing.T) {
	s := mustSet(t, Interval{0, 0.5})
	c := s.Complement()
	if _, err := WinProbabilityVectorPairs([]IntervalSet{s}, []IntervalSet{c}, 1); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinProbabilityVectorPairs([]IntervalSet{s, s}, []IntervalSet{c}, 1); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := WinProbabilityVectorPairs(make([]IntervalSet, 11), make([]IntervalSet, 11), 1); err == nil {
		t.Error("too many players: expected error")
	}
	if _, err := WinProbabilityVectorPairs([]IntervalSet{s, s}, []IntervalSet{c, c}, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	// Overlapping bin regions.
	overlap := mustSet(t, Interval{0.4, 0.8})
	if _, err := WinProbabilityVectorPairs([]IntervalSet{s, s}, []IntervalSet{overlap, c}, 1); err == nil {
		t.Error("overlapping regions: expected error")
	}
	// A one-point region shares only a point with its complement [0, 1].
	point := mustSet(t, Interval{0.5, 0.5})
	if _, err := WinProbabilityVectorPairs([]IntervalSet{point, s}, []IntervalSet{point.Complement(), c}, 1); err != nil {
		t.Errorf("one-point region inside its complement: %v", err)
	}
	// Too many intervals per region.
	many := mustSet(t,
		Interval{0, 0.05}, Interval{0.1, 0.15}, Interval{0.2, 0.25},
		Interval{0.3, 0.35}, Interval{0.4, 0.45})
	if _, err := WinProbabilityVectorPairs([]IntervalSet{many, s}, []IntervalSet{c, c}, 1); err == nil {
		t.Error("too many intervals: expected error")
	}
}
