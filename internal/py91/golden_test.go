package py91

import (
	"math"
	"testing"
)

// TestOptimizeWeightedGolden pins the full PY91 search bit for bit: the
// returned cut points and weight and the evaluation's P and StdErr for
// both communication patterns at Trials=20000, Seed=5. Every objective
// value the Nelder-Mead search compares comes from Evaluate, so any
// change to the draw stream or the win count moves these bits.
func TestOptimizeWeightedGolden(t *testing.T) {
	for _, tc := range []struct {
		pattern Pattern
		workers int
		// θ0, θ1, θ2, w, P, StdErr as float bits.
		want [6]uint64
	}{
		{OneWay, 1, [6]uint64{0x3fe27ead5aeb1ad0, 0x3fe4e399806de5e0, 0x3fe434ac69784e50, 0x3f407c2b0ad5531e, 0x3fe16a161e4f7660, 0x3f6cd9864263f752}},
		{OneWay, 2, [6]uint64{0x3fe4cf1cfeb75f58, 0x3fe1adacc4a1c6c3, 0x3fe563b543789fca, 0x3f481adf5cb75fd6, 0x3fe18c7e28240b78, 0x3f6cd3bb6feb7e31}},
		{Broadcast, 1, [6]uint64{0x3fefffdffac12a28, 0x3f7caaaebeb55ef8, 0x3fdffef45af561e3, 0x3fe0099b2e953d35, 0x3fe5404ea4a8c155, 0x3f6b5bd8d8039fb2}},
		{Broadcast, 2, [6]uint64{0x3fefffd13ec79864, 0x3f966d00f48a0665, 0x3fdffefe5e522df1, 0x3fe00886f7fbb7e6, 0x3fe548e8a71de69b, 0x3f6b566aef21aba3}},
	} {
		p, ev, err := OptimizeWeighted(tc.pattern, SimConfig{Trials: 20000, Workers: tc.workers, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := [6]float64{p.Theta0, p.Theta1, p.Theta2, p.W, ev.P, ev.StdErr}
		for i, name := range []string{"θ0", "θ1", "θ2", "w", "P", "StdErr"} {
			if b := math.Float64bits(got[i]); b != tc.want[i] {
				t.Errorf("%v workers=%d: %s = %v (%#x), golden %v (%#x)",
					tc.pattern, tc.workers, name, got[i], b, math.Float64frombits(tc.want[i]), tc.want[i])
			}
		}
		if ev.Trials != 20000 {
			t.Errorf("%v workers=%d: %d trials, want 20000", tc.pattern, tc.workers, ev.Trials)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	p, err := NewWeightedAverageProtocol(Broadcast, 0.62, 0.9, 0.9, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Trials: 400_000, Workers: 1, Seed: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
