package combin

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestSumTableBuildMatchesSubsetSums pins Build against the one-shot
// SubsetSums bit for bit.
func TestSumTableBuildMatchesSubsetSums(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	for _, n := range []int{0, 1, 2, 5, 9} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 3
		}
		want, err := SubsetSums(nil, vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st, err := NewSumTable(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := st.Build(vals); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for mask, w := range want {
			if math.Float64bits(st.Values()[mask]) != math.Float64bits(w) {
				t.Fatalf("n=%d mask=%d: table %x, SubsetSums %x", n, mask, st.Values()[mask], w)
			}
		}
	}
}

// TestSumTableSetCoordBitIdentical walks random coordinates and requires
// the delta-updated table to stay bit-identical to a fresh build — the
// property that lets the evaluators delta-update their subset-sum state
// without accumulating drift.
func TestSumTableSetCoordBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 2))
	const n = 9
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	st, err := NewSumTable(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build(vals); err != nil {
		t.Fatal(err)
	}
	pt, err := NewProductTable(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Build(vals); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		i := rng.IntN(n)
		vals[i] = rng.Float64() * 2
		if err := st.SetCoord(i, vals[i]); err != nil {
			t.Fatal(err)
		}
		if err := pt.SetCoord(i, vals[i]); err != nil {
			t.Fatal(err)
		}
		wantS, err := SubsetSums(nil, vals)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := SubsetProducts(nil, vals)
		if err != nil {
			t.Fatal(err)
		}
		for mask := range wantS {
			if math.Float64bits(st.Values()[mask]) != math.Float64bits(wantS[mask]) {
				t.Fatalf("step %d sum mask=%d: delta table %x, fresh %x",
					step, mask, math.Float64bits(st.Values()[mask]), math.Float64bits(wantS[mask]))
			}
			if math.Float64bits(pt.Values()[mask]) != math.Float64bits(wantP[mask]) {
				t.Fatalf("step %d product mask=%d: delta table %x, fresh %x",
					step, mask, math.Float64bits(pt.Values()[mask]), math.Float64bits(wantP[mask]))
			}
		}
	}
}

// TestSumTableErrors covers the constructor and input guards.
func TestSumTableErrors(t *testing.T) {
	if _, err := NewSumTable(-1); err == nil {
		t.Error("NewSumTable(-1) accepted")
	}
	if _, err := NewSumTable(MaxSubsetTable + 1); err == nil {
		t.Error("NewSumTable over cap accepted")
	}
	if _, err := NewProductTable(MaxSubsetTable + 1); err == nil {
		t.Error("NewProductTable over cap accepted")
	}
	st, err := NewSumTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build([]float64{1, 2}); err == nil {
		t.Error("Build with wrong length accepted")
	}
	if err := st.SetCoord(3, 0); err == nil {
		t.Error("SetCoord out of range accepted")
	}
	if err := st.SetCoord(-1, 0); err == nil {
		t.Error("SetCoord negative accepted")
	}
	pt, err := NewProductTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Build([]float64{1}); err == nil {
		t.Error("product Build with wrong length accepted")
	}
	if err := pt.SetCoord(7, 0); err == nil {
		t.Error("product SetCoord out of range accepted")
	}
}

// TestChunkSpanMatchesGrid requires the exported chunk geometry to cover
// [0, total) exactly with at most ChunkGrid chunks.
func TestChunkSpanMatchesGrid(t *testing.T) {
	for _, total := range []uint64{1, 7, 64, 65, 1 << 15} {
		span, chunks := ChunkSpan(total)
		if chunks > ChunkGrid {
			t.Errorf("total=%d: %d chunks exceeds grid %d", total, chunks, ChunkGrid)
		}
		if span*chunks < total || (chunks > 0 && (span*(chunks-1) >= total)) {
			t.Errorf("total=%d: span %d × chunks %d does not tile", total, span, chunks)
		}
	}
}
