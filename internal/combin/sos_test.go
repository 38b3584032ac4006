package combin

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestSubsetSumsAndProducts pins both table builders against direct
// per-mask evaluation.
func TestSubsetSumsAndProducts(t *testing.T) {
	vals := []float64{0.5, 1.25, 2, 0.125, 3}
	sums, err := SubsetSums(nil, vals)
	if err != nil {
		t.Fatalf("SubsetSums: %v", err)
	}
	prods, err := SubsetProducts(nil, vals)
	if err != nil {
		t.Fatalf("SubsetProducts: %v", err)
	}
	if len(sums) != 32 || len(prods) != 32 {
		t.Fatalf("table lengths %d, %d, want 32", len(sums), len(prods))
	}
	for mask := uint64(0); mask < 32; mask++ {
		wantS, wantP := 0.0, 1.0
		for i, v := range vals {
			if mask&(1<<uint(i)) != 0 {
				wantS += v
				wantP *= v
			}
		}
		// The values are dyadic, so both recurrences are exact.
		if sums[mask] != wantS {
			t.Fatalf("sums[%b] = %v, want %v", mask, sums[mask], wantS)
		}
		if prods[mask] != wantP {
			t.Fatalf("prods[%b] = %v, want %v", mask, prods[mask], wantP)
		}
	}
}

// TestSubsetTableLimits covers the table-size guards.
func TestSubsetTableLimits(t *testing.T) {
	big := make([]float64, MaxSubsetTable+1)
	if _, err := SubsetSums(nil, big); err == nil {
		t.Fatal("SubsetSums accepted an oversized ground set")
	}
	if _, err := SubsetProducts(nil, big); err == nil {
		t.Fatal("SubsetProducts accepted an oversized ground set")
	}
	if err := SumOverSubsets(make([]float64, 8), 4, 1); err == nil {
		t.Fatal("SumOverSubsets accepted a mismatched table length")
	}
	if _, _, err := ChunkedMaskSum(MaxSubsetTable+1, 1, nil); err == nil {
		t.Fatal("ChunkedMaskSum accepted an oversized ground set")
	}
}

// TestSumOverSubsets pins the zeta transform against the O(3^n) direct
// submask sum, serial and worker-parallel (which must agree exactly: the
// pair additions are identical, only their scheduling differs).
func TestSumOverSubsets(t *testing.T) {
	const n = 8
	base := make([]float64, 1<<n)
	for mask := range base {
		base[mask] = math.Sin(float64(mask)+1) / float64(mask+2)
	}
	want := make([]float64, len(base))
	for mask := uint64(0); mask < uint64(len(base)); mask++ {
		// Direct submask enumeration.
		sub := mask
		for {
			want[mask] += base[sub]
			if sub == 0 {
				break
			}
			sub = (sub - 1) & mask
		}
	}
	for _, workers := range []int{1, 4} {
		got := append([]float64(nil), base...)
		if err := SumOverSubsets(got, n, workers); err != nil {
			t.Fatalf("SumOverSubsets(workers=%d): %v", workers, err)
		}
		for mask := range got {
			if math.Abs(got[mask]-want[mask]) > 1e-12*(1+math.Abs(want[mask])) {
				t.Fatalf("workers=%d: zeta[%b] = %v, want %v", workers, mask, got[mask], want[mask])
			}
		}
	}
	serial := append([]float64(nil), base...)
	parallel := append([]float64(nil), base...)
	if err := SumOverSubsets(serial, n, 1); err != nil {
		t.Fatal(err)
	}
	if err := SumOverSubsets(parallel, n, 3); err != nil {
		t.Fatal(err)
	}
	for mask := range serial {
		if math.Float64bits(serial[mask]) != math.Float64bits(parallel[mask]) {
			t.Fatalf("zeta transform not bit-identical across worker counts at mask %b", mask)
		}
	}
}

// zetaReference is the plain one-bit-per-pass zeta DP: pass b adds every
// bit-b-clear cell into its bit-b-set partner.
func zetaReference(arr []float64, n int) {
	for b := 0; b < n; b++ {
		half := 1 << uint(b)
		for base := 0; base < len(arr); base += 2 * half {
			for i := base; i < base+half; i++ {
				arr[i+half] += arr[i]
			}
		}
	}
}

// TestSumOverSubsetsBitIdenticalToReference pins the fused passes to the
// one-bit-per-pass DP bit for bit, for every ground size the fusion
// treats differently (no octet, an odd or even count of bits above it)
// and for worker counts that split quads and pairs across chunks.
func TestSumOverSubsetsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	for n := 0; n <= 20; n++ {
		base := make([]float64, 1<<uint(n))
		for i := range base {
			base[i] = rng.NormFloat64() * math.Exp2(float64(rng.IntN(40)-20))
		}
		want := append([]float64(nil), base...)
		zetaReference(want, n)
		for _, workers := range []int{1, 2, 3, 7} {
			got := append([]float64(nil), base...)
			if err := SumOverSubsets(got, n, workers); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for mask := range got {
				if math.Float64bits(got[mask]) != math.Float64bits(want[mask]) {
					t.Fatalf("n=%d workers=%d: zeta[%b] = %v, reference %v", n, workers, mask, got[mask], want[mask])
				}
			}
		}
	}
}

// TestSumOverSubsetsSerialAllocs requires the serial transform to run
// without heap allocation: the reusable evaluators call it in their
// zero-allocation steady state.
func TestSumOverSubsetsSerialAllocs(t *testing.T) {
	arr := make([]float64, 1<<12)
	for _, workers := range []int{0, 1} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := SumOverSubsets(arr, 12, workers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: %v allocs per transform, want 0", workers, allocs)
		}
	}
}

// BenchmarkSumOverSubsets times the serial transform at the exact
// backends' typical ground sizes.
func BenchmarkSumOverSubsets(b *testing.B) {
	for _, n := range []int{12, 15, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			arr := make([]float64, 1<<uint(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SumOverSubsets(arr, n, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChunkedMaskSumDeterminism pins the sharded reduction: exact same
// bits for 1, 2 and 7 workers, and agreement with a compensated serial sum.
func TestChunkedMaskSumDeterminism(t *testing.T) {
	const n = 11
	term := func(mask uint64) float64 {
		v := math.Sin(float64(mask) + 0.5)
		if mask%3 == 1 {
			return -v
		}
		return v
	}
	makeTerm := func() func(uint64) float64 { return term }
	ref, chunks, err := ChunkedMaskSum(n, 1, makeTerm)
	if err != nil {
		t.Fatalf("ChunkedMaskSum: %v", err)
	}
	if chunks <= 1 {
		t.Fatalf("expected a multi-chunk grid at n=%d, got %d chunks", n, chunks)
	}
	for _, workers := range []int{2, 7} {
		got, gotChunks, err := ChunkedMaskSum(n, workers, makeTerm)
		if err != nil {
			t.Fatalf("ChunkedMaskSum(workers=%d): %v", workers, err)
		}
		if gotChunks != chunks {
			t.Fatalf("chunk grid changed with workers: %d vs %d", gotChunks, chunks)
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d sum %v not bit-identical to serial %v", workers, got, ref)
		}
	}
	var acc Accumulator
	for mask := uint64(0); mask < 1<<n; mask++ {
		acc.Add(term(mask))
	}
	if math.Abs(ref-acc.Sum()) > 1e-10 {
		t.Fatalf("chunked sum %v far from compensated serial sum %v", ref, acc.Sum())
	}
}

// shardCutoffs are the ground sizes at which each chunked kernel starts
// sharding, with a run of the kernel over a seeded 2^n table.
var shardCutoffs = []struct {
	name string
	n    int
	run  func(t *testing.T, arr []float64, n, workers int) []float64
}{
	{"zeta", bits.Len64(zetaShardCells) - 1, func(t *testing.T, arr []float64, n, workers int) []float64 {
		out := append([]float64(nil), arr...)
		if err := SumOverSubsets(out, n, workers); err != nil {
			t.Fatal(err)
		}
		return out
	}},
	{"masksum", bits.Len64(maskSumShardMasks) - 1, func(t *testing.T, arr []float64, n, workers int) []float64 {
		full := uint64(len(arr) - 1)
		total, _, err := ChunkedMaskSum(n, workers, func() func(uint64) float64 {
			return func(mask uint64) float64 { return arr[full&^mask] * arr[mask] }
		})
		if err != nil {
			t.Fatal(err)
		}
		return []float64{total}
	}},
}

// TestShardCutoffs pins the size gate of both chunked kernels. One size
// below its cutoff, a kernel asked for 8 workers allocates exactly what
// it allocates serially, so the serial path ran; at the cutoff, 2 workers
// allocate more (the sharded path's goroutines). At both sizes the
// output is bit-identical for 1, 2 and 7 workers, which keeps the
// sharded branch under the race detector.
func TestShardCutoffs(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 3))
	for _, k := range shardCutoffs {
		for _, n := range []int{k.n - 1, k.n} {
			arr := make([]float64, 1<<uint(n))
			for i := range arr {
				arr[i] = rng.NormFloat64()
			}
			want := k.run(t, arr, n, 1)
			for _, workers := range []int{2, 7} {
				got := k.run(t, arr, n, workers)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d workers=%d: cell %d = %v, serial %v", k.name, n, workers, i, got[i], want[i])
					}
				}
			}
			serial := testing.AllocsPerRun(2, func() { k.run(t, arr, n, 1) })
			wide := 8
			if n == k.n {
				wide = 2
			}
			sharded := testing.AllocsPerRun(2, func() { k.run(t, arr, n, wide) })
			if n < k.n && sharded != serial {
				t.Errorf("%s n=%d below the cutoff: %v allocs with %d workers, %v serially", k.name, n, sharded, wide, serial)
			}
			if n == k.n && sharded <= serial {
				t.Errorf("%s n=%d at the cutoff: %v allocs with %d workers, %v serially; the sharded path did not run", k.name, n, sharded, wide, serial)
			}
		}
	}
}
