package comm

import "testing"

// TestWinProbabilityAllocs pins the heap allocations of one probe. A
// one-shot WinProbability builds a fresh scratch (its memo maps and
// buffers); a search's probe reuses one, so once the scratch has grown it
// allocates nothing. A count above its pin is a regression.
func TestWinProbabilityAllocs(t *testing.T) {
	for _, c := range []struct {
		n                int
		broadcast, toOne float64 // one-shot pins
	}{
		{3, 19, 19},
		{6, 25, 29},
	} {
		capacity := float64(c.n) / 3
		b := OneBitBroadcast{N: c.n, Cut: 0.55, SenderTheta: 0.6, BetaLow: 0.7, BetaHigh: 0.5}
		o := OneBitToOne{N: c.n, Cut: 0.55, SenderTheta: 0.6, BetaLow: 0.7, BetaHigh: 0.5, Beta: 0.62}
		sc := new(scratch)
		for _, k := range []struct {
			name string
			pin  float64
			run  func() (float64, error)
		}{
			{"OneBitBroadcast.WinProbability", c.broadcast, func() (float64, error) { return b.WinProbability(capacity) }},
			{"OneBitToOne.WinProbability", c.toOne, func() (float64, error) { return o.WinProbability(capacity) }},
			{"OneBitBroadcast search probe", 0, func() (float64, error) { return b.winProbability(capacity, sc) }},
			{"OneBitToOne search probe", 0, func() (float64, error) { return o.winProbability(capacity, sc) }},
		} {
			if _, err := k.run(); err != nil {
				t.Fatalf("n=%d %s: %v", c.n, k.name, err)
			}
			if got := testing.AllocsPerRun(20, func() { _, _ = k.run() }); got > k.pin {
				t.Errorf("n=%d %s: %v allocations per probe, pinned at %v", c.n, k.name, got, k.pin)
			}
		}
	}
}
