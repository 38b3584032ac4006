package obs

import "testing"

// TestHistogramBucketEdges pins the bucket-edge semantics: below-range
// counts as Under, x == Lo lands in the first bucket, x == Hi lands in the
// last bucket, above-range counts as Over.
func TestHistogramBucketEdges(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x      float64
		bucket int // -1 under, -2 over
	}{
		{-0.001, -1},
		{0, 0},
		{0.2499, 0},
		{0.25, 1},
		{0.5, 2},
		{0.74999, 2},
		{0.75, 3},
		{0.99999, 3},
		{1, 3}, // x == Hi goes in the last bucket
		{1.0001, -2},
	}
	for _, c := range cases {
		h.Observe(c.x)
	}
	want := make([]int64, 4)
	var under, over int64
	for _, c := range cases {
		switch c.bucket {
		case -1:
			under++
		case -2:
			over++
		default:
			want[c.bucket]++
		}
	}
	s := h.Stats()
	if s.Under != under || s.Over != over {
		t.Errorf("under/over = %d/%d, want %d/%d", s.Under, s.Over, under, over)
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if h.Total() != int64(len(cases))-under-over {
		t.Errorf("total = %d, want %d", h.Total(), int64(len(cases))-under-over)
	}
}

func TestHistogramInvalidShape(t *testing.T) {
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	reg := NewRegistry()
	if _, err := reg.Histogram("bad", 2, 1, 3); err == nil {
		t.Error("registry accepted inverted range")
	}
}
