package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram bins observations into equal-width buckets over [lo, hi],
// counting out-of-range values in Under/Over: values below Lo count as
// Under, values equal to Hi land in the last bucket, values above Hi count
// as Over. It is safe for concurrent Observe calls. A nil *Histogram is a
// no-op.
type Histogram struct {
	lo, hi  float64
	counts  []atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram with the given number of buckets. It
// returns an error for invalid bounds or bucket counts.
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if !(lo < hi) {
		return nil, fmt.Errorf("obs: invalid histogram range [%v, %v]", lo, hi)
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("obs: bucket count %d must be positive", buckets)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]atomic.Int64, buckets)}, nil
}

// addSum folds x into the running sum of observed values (the Prometheus
// histogram's `_sum` series) with a CAS loop, keeping Observe lock-free.
func (h *Histogram) addSum(x float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.addSum(x)
	switch {
	case x < h.lo:
		h.under.Add(1)
	case x >= h.hi:
		if x == h.hi {
			h.counts[len(h.counts)-1].Add(1)
			return
		}
		h.over.Add(1)
	default:
		idx := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
		h.counts[idx].Add(1)
	}
}

// HistogramStats is a point-in-time copy of a histogram.
type HistogramStats struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int64 `json:"counts"`
	Under  int64   `json:"under,omitempty"`
	Over   int64   `json:"over,omitempty"`
	// Sum is the sum of every observed value (including out-of-range
	// observations), the Prometheus `_sum` series.
	Sum float64 `json:"sum,omitempty"`
}

// Stats returns a snapshot of the histogram's counts.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{Lo: h.lo, Hi: h.hi, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Under = h.under.Load()
	s.Over = h.over.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}
