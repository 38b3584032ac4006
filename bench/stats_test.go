package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	odd := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(odd, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", odd, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no data should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{0.5, 0.25}, [3]float64{0.1875, 0.375, 0.5625}},
		{[]float64{2, 7.5, 1.25, 9, 3.5, 4, 8.25, 6, 5.5, 0.75}, [3]float64{1.8125, 4.75, 7.6875}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one value should be NaN")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one value = %v, want 4", got)
	}
}

// supportedTail returns the highest of p99.9, p99, p95, p90, p80, p75 and
// p50 that leaves at least minBeyond of n samples above it, or 0 when even
// the median does not: the rule each workload's reported tail follows.
func supportedTail(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 800, 750, 500} {
		if n*(1000-permille)/1000 >= minBeyond {
			return float64(permille) / 1000
		}
	}
	return 0
}

// TestTailRule checks the "at least ten samples beyond" rule.
func TestTailRule(t *testing.T) {
	if got := beyond([]float64{1, 2, 3, 3, 4}, 3); got != 1 {
		t.Errorf("beyond = %d, want 1", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9},
		{100, 0.9}, {99, 0.8}, {50, 0.8}, {49, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {19, 0},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The tail each workload reports is supported at its default size: the
	// sample counts of 10-second runs on a 2-core machine, rounded down
	// from the fewest measured (optimize-sweep sent 40–45 requests).
	expected := map[string]int{"eval-hot": 100000, "eval-restart": 40000, "eval-cold": 1500, "optimize-sweep": 40}
	for _, w := range workloads() {
		n, ok := expected[w.name]
		if !ok {
			continue
		}
		if w.tailQ > supportedTail(n) {
			t.Errorf("%s reports p%g, but ~%d samples support only p%g", w.name, 100*w.tailQ, n, 100*supportedTail(n))
		}
	}
}

func TestSamplesReservoir(t *testing.T) {
	s := newSamples(false, 1)
	for i := 0; i < 3*maxSamples; i++ {
		s.add(float64(i))
	}
	if s.n != 3*maxSamples || len(s.v) != maxSamples {
		t.Fatalf("reservoir kept %d of %d, want %d of %d", len(s.v), s.n, maxSamples, 3*maxSamples)
	}
	late := 0
	for _, v := range s.v {
		if v >= maxSamples {
			late++
		}
	}
	// A uniform sample holds about two thirds of its values from the
	// later two thirds of the stream.
	if frac := float64(late) / maxSamples; math.Abs(frac-2.0/3) > 0.02 {
		t.Errorf("reservoir holds %.3f of later values, want ~0.667", frac)
	}

	all := newSamples(true, 1)
	for i := 0; i < maxSamples+5; i++ {
		all.add(float64(i))
	}
	if len(all.v) != maxSamples+5 || all.v[maxSamples+4] != maxSamples+4 {
		t.Errorf("keep-all recorder kept %d values", len(all.v))
	}
}
