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
