package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; for [3, 1, 2] it is [1.0, 2.0, 3.0].
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, trials int
		want         float64
	}{
		{10, 10, 2.0 / 1024},    // every pair one way
		{0, 10, 2.0 / 1024},     // symmetric
		{9, 10, 22.0 / 1024},    // 2·(1 + 10)/2^10
		{5, 10, 1},              // capped at 1
		{0, 0, 1},               // no untied pairs
		{6, 6, 2.0 / 64},        // six of six
		{3, 4, 2 * 5.0 / 16},    // 2·(1 + 4)/2^4
		{1, 1, 1},               // one pair proves nothing
		{20, 20, 2.0 / 1048576}, // 2^-19
	} {
		if got := signTest(c.wins, c.trials); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.wins, c.trials, got, c.want)
		}
	}
}

func TestPairCount(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 11, 10, 8}
	if b, u := pairCount(base, head, true); b != 2 || u != 3 {
		t.Errorf("lower better: %d of %d, want 2 of 3", b, u)
	}
	if b, u := pairCount(base, head, false); b != 1 || u != 3 {
		t.Errorf("higher better: %d of %d, want 1 of 3", b, u)
	}
}

func TestVerdict(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name                         string
		delta, other, spBase, spHead float64
		better, untied               int
		lowerBetter                  bool
		want                         string
	}{
		{"lower in both phases beyond both spreads", -5, -4, 1, -2, 18, 20, true, "better"},
		{"higher in both phases, lower is better", 5, 4, 1, -2, 2, 20, true, "worse"},
		{"higher in both phases, higher is better", 5, 4, 1, -2, 18, 20, false, "better"},
		{"lower in both phases, higher is better", -5, -4, 1, 2, 2, 20, false, "worse"},
		{"phases disagree in sign", -5, 4, 1, 1, 18, 20, true, "unresolved"},
		{"one phase inside the base spread", -5, -0.5, 1, 0.2, 18, 20, true, "unresolved"},
		{"inside the head spread", -5, -4, 0.1, -6, 18, 20, true, "unresolved"},
		{"equal to the spread", -2, -3, 2, 0, 18, 20, true, "unresolved"},
		{"no change", 0, 0, 0, 0, 10, 20, true, "unresolved"},
		{"undefined change", nan, -4, 1, 1, 18, 20, true, "unresolved"},
		{"undefined spread", -5, -4, nan, 1, 18, 20, true, "unresolved"},
		{"pairs lean the other way", -5, -4, 1, 1, 2, 20, true, "unresolved"},
		{"pooled p = 0.0414", -5, -4, 1, 1, 15, 20, true, "better"},
		{"pooled p = 0.115", -5, -4, 1, 1, 14, 20, true, "unresolved"},
		// A report whose medians and spreads alone read "worse": heap_p90_mb
		// +0.85% and +0.94% against spreads of 0.46% and 0.37%, with the
		// head better in 4 and 2 of 10 pairs (pooled 6 of 20, p = 0.115).
		{"heap +0.85% in 6 of 20 pairs", 0.85, 0.94, -0.46, -0.37, 6, 20, true, "unresolved"},
		// ... and "better": cpu_ms_per_op −1.36% and −1.18% against spreads
		// of 0.35% and 0.18%, the head better in 6 of 10 pairs in each phase
		// (pooled 12 of 20, p = 0.503).
		{"cpu −1.36% in 12 of 20 pairs", -1.36, -1.18, -0.35, -0.18, 12, 20, true, "unresolved"},
	} {
		if got := verdict(c.delta, c.other, c.spBase, c.spHead, c.better, c.untied, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict(%v, %v, %v, %v, %d, %d, %v) = %s, want %s",
				c.name, c.delta, c.other, c.spBase, c.spHead, c.better, c.untied, c.lowerBetter, got, c.want)
		}
	}
}
