package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

// volumeWalkBound is the tolerance for delta-updated volumes along random
// coordinate walks: each touched cell is recomputed from exact subset-sum
// state and rounded once per update, so the accumulated drift stays within
// a few hundred ulps of the n·2^n-op rebuild — far inside the evaluators'
// certified ExactErrorBound (≈1e-8 at these sizes), which is the bound the
// downstream property tests assert end to end.
const volumeWalkBound = 1e-10

// TestVolumeTableBuildMatchesAllSubsetVolumes pins Build against the
// one-shot AllSubsetVolumes bit for bit.
func TestVolumeTableBuildMatchesAllSubsetVolumes(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 1))
	for _, n := range []int{1, 2, 5, 9} {
		widths := make([]float64, n)
		for i := range widths {
			widths[i] = rng.Float64()
		}
		threshold := float64(n) / 3
		want, _, err := AllSubsetVolumes(widths, threshold, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		vt, err := NewVolumeTable(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := vt.Build(widths, threshold); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for mask, w := range want {
			if math.Float64bits(vt.Vol()[mask]) != math.Float64bits(w) {
				t.Fatalf("n=%d mask=%d: table %x, AllSubsetVolumes %x",
					n, mask, math.Float64bits(vt.Vol()[mask]), math.Float64bits(w))
			}
		}
	}
}

// TestVolumeTableSetCoordTracksRebuild walks 200 random coordinate updates
// and checks every subset volume against a fresh AllSubsetVolumes rebuild.
func TestVolumeTableSetCoordTracksRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 2))
	for _, n := range []int{2, 6, 9} {
		widths := make([]float64, n)
		for i := range widths {
			widths[i] = rng.Float64()
		}
		threshold := float64(n) / 3
		vt, err := NewVolumeTable(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := vt.Build(widths, threshold); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			i := rng.IntN(n)
			widths[i] = rng.Float64()
			if err := vt.SetCoord(i, widths[i]); err != nil {
				t.Fatal(err)
			}
			want, _, err := AllSubsetVolumes(widths, threshold, nil)
			if err != nil {
				t.Fatal(err)
			}
			for mask, w := range want {
				if d := math.Abs(vt.Vol()[mask] - w); d > volumeWalkBound {
					t.Fatalf("n=%d step %d mask=%d: delta %v vs rebuild %v (|diff| %g)",
						n, step, mask, vt.Vol()[mask], w, d)
				}
			}
		}
		stats := vt.Stats()
		if stats.Updates == 0 || stats.Subsets != stats.Updates*uint64(1)<<uint(n-1) {
			t.Errorf("n=%d: stats %+v inconsistent", n, stats)
		}
	}
}

// TestVolumeTableSetCoordNoOp requires an unchanged width to leave the
// table untouched without counting an update.
func TestVolumeTableSetCoordNoOp(t *testing.T) {
	vt, err := NewVolumeTable(3)
	if err != nil {
		t.Fatal(err)
	}
	widths := []float64{0.25, 0.5, 0.75}
	if err := vt.Build(widths, 1); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), vt.Vol()...)
	if err := vt.SetCoord(1, 0.5); err != nil {
		t.Fatal(err)
	}
	for mask := range before {
		if math.Float64bits(vt.Vol()[mask]) != math.Float64bits(before[mask]) {
			t.Fatalf("no-op SetCoord changed mask %d", mask)
		}
	}
	if vt.Stats().Updates != 0 {
		t.Errorf("no-op SetCoord counted an update: %+v", vt.Stats())
	}
}

// TestVolumeTableErrors covers the guards: bad dimension, bad widths, use
// before Build, out-of-range coordinates.
func TestVolumeTableErrors(t *testing.T) {
	if _, err := NewVolumeTable(0); err == nil {
		t.Error("NewVolumeTable(0) accepted")
	}
	vt, err := NewVolumeTable(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := vt.SetCoord(0, 0.5); err == nil {
		t.Error("SetCoord before Build accepted")
	}
	if err := vt.Build([]float64{0.5}, 1); err == nil {
		t.Error("Build with wrong length accepted")
	}
	if err := vt.Build([]float64{0.5, math.NaN()}, 1); err == nil {
		t.Error("Build with NaN width accepted")
	}
	if err := vt.Build([]float64{0.5, -1}, 1); err == nil {
		t.Error("Build with negative width accepted")
	}
	if err := vt.Build([]float64{0.5, 0.5}, math.NaN()); err == nil {
		t.Error("Build with NaN threshold accepted")
	}
	if err := vt.Build([]float64{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if err := vt.SetCoord(-1, 0.5); err == nil {
		t.Error("SetCoord(-1) accepted")
	}
	if err := vt.SetCoord(2, 0.5); err == nil {
		t.Error("SetCoord out of range accepted")
	}
	if err := vt.SetCoord(0, math.NaN()); err == nil {
		t.Error("SetCoord NaN accepted")
	}
	if err := vt.SetCoord(0, math.Inf(1)); err == nil {
		t.Error("SetCoord +Inf accepted")
	}
}
