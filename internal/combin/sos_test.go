package combin

import (
	"fmt"
	"math"
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
	if err := SumOverSubsets(make([]float64, 8), 4); err == nil {
		t.Fatal("SumOverSubsets accepted a mismatched table length")
	}
	if _, err := ChunkedMaskSum(MaxSubsetTable+1, nil); err == nil {
		t.Fatal("ChunkedMaskSum accepted an oversized ground set")
	}
}

// TestSumOverSubsets pins the zeta transform against the O(3^n) direct
// submask sum.
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
	got := append([]float64(nil), base...)
	if err := SumOverSubsets(got, n); err != nil {
		t.Fatal(err)
	}
	for mask := range got {
		if math.Abs(got[mask]-want[mask]) > 1e-12*(1+math.Abs(want[mask])) {
			t.Fatalf("zeta[%b] = %v, want %v", mask, got[mask], want[mask])
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
// treats differently (no octet, an odd or even count of bits above it).
func TestSumOverSubsetsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	for n := 0; n <= 20; n++ {
		base := make([]float64, 1<<uint(n))
		for i := range base {
			base[i] = rng.NormFloat64() * math.Exp2(float64(rng.IntN(40)-20))
		}
		want := append([]float64(nil), base...)
		zetaReference(want, n)
		got := append([]float64(nil), base...)
		if err := SumOverSubsets(got, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for mask := range got {
			if math.Float64bits(got[mask]) != math.Float64bits(want[mask]) {
				t.Fatalf("n=%d: zeta[%b] = %v, reference %v", n, mask, got[mask], want[mask])
			}
		}
	}
}

// TestSumOverSubsetsSerialAllocs requires the transform to run without
// heap allocation: the reusable evaluators call it in their
// zero-allocation steady state.
func TestSumOverSubsetsSerialAllocs(t *testing.T) {
	arr := make([]float64, 1<<12)
	allocs := testing.AllocsPerRun(20, func() {
		if err := SumOverSubsets(arr, 12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per transform, want 0", allocs)
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
				if err := SumOverSubsets(arr, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChunkedMaskSumDeterminism checks the chunked sum of an
// alternating-sign series against one compensated serial sum.
func TestChunkedMaskSumDeterminism(t *testing.T) {
	const n = 11
	term := func(mask uint64) float64 {
		v := math.Sin(float64(mask) + 0.5)
		if mask%3 == 1 {
			return -v
		}
		return v
	}
	got, err := ChunkedMaskSum(n, term)
	if err != nil {
		t.Fatalf("ChunkedMaskSum: %v", err)
	}
	var acc Accumulator
	for mask := uint64(0); mask < 1<<n; mask++ {
		acc.Add(term(mask))
	}
	if math.Abs(got-acc.Sum()) > 1e-10 {
		t.Fatalf("chunked sum %v far from compensated serial sum %v", got, acc.Sum())
	}
}
