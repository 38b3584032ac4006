package response

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/combin"
)

// goldenCase is one (n, δ, grid) evaluator configuration of the
// golden-bits tests. δ ≥ n truncates nothing; δ = 0.01 truncates every
// generation from the first.
type goldenCase struct {
	n     int
	delta float64
	grid  int
}

var goldenCases = []goldenCase{
	{3, 1, 16},
	{3, 5, 16},
	{4, 4.0 / 3, 512},
	{5, 1.7, 512},
	{5, 0.01, 512},
	{12, 4, 16},
	{12, 4, 512},
	{3, 1, 4096},
	{4, 4.0 / 3, 4096},
}

// goldenSets returns the interval sets of the golden-bits test: seeded
// one-, two- and three-interval sets, the empty and full sets, and a
// degenerate [0,0] ∪ [b,c].
func goldenSets(t *testing.T) []IntervalSet {
	t.Helper()
	rng := rand.New(rand.NewPCG(15, 0x5eed))
	var specs [][]Interval
	for k := 1; k <= 3; k++ {
		for rep := 0; rep < 2; rep++ {
			pts := make([]float64, 2*k)
			for i := range pts {
				pts[i] = rng.Float64()
			}
			// Sorted endpoints pair into disjoint intervals.
			for i := 1; i < len(pts); i++ {
				for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
					pts[j], pts[j-1] = pts[j-1], pts[j]
				}
			}
			ivs := make([]Interval, k)
			for i := range ivs {
				ivs[i] = Interval{pts[2*i], pts[2*i+1]}
			}
			specs = append(specs, ivs)
		}
	}
	specs = append(specs, nil, []Interval{{0, 1}}, []Interval{{0, 0}, {0.3, 0.65}})
	sets := make([]IntervalSet, len(specs))
	for i, ivs := range specs {
		s, err := NewIntervalSet(ivs)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = s
	}
	return sets
}

// goldenSteps returns the step rules of the golden-bits test: 0/1 cells,
// soft cells, and a mix of both.
func goldenSteps(t *testing.T) []*StepRule {
	t.Helper()
	var rules []*StepRule
	for _, probs := range [][]float64{
		{1, 1, 0, 0, 1, 0, 0, 0},
		{0.5},
		{1, 0.7, 0, 0.3, 1, 0, 0.25},
		{0.9, 0.8, 0.6, 0.4, 0.2, 0.1, 0, 0, 0, 0.05, 0.5},
	} {
		r, err := NewStepRule(probs)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	return rules
}

// goldenBits holds, per golden case, the float bits of WinProbability on
// every golden set followed by WinProbabilityStep on every golden step
// rule, recorded from the untruncated convolution kernel.
var goldenBits = [][]uint64{
	{ // n=3 δ=1 grid=16
		0x3fd0b18beb23c025, 0x3fcc26004d0371f4, 0x3fd41444baed5cae, 0x3fdc45b8281e2a46,
		0x3fd29b44bf61ca63, 0x3fd97c4f59a12d73, 0x3fc5400000000000, 0x3fc5400000000000,
		0x3fdab6e147ae147a, 0x3fd73c0000000000, 0x3fdaa80000000000, 0x3fda544a9b101768,
		0x3fd41332b13613ce,
	},
	{ // n=3 δ=5 grid=16
		0x3fefffffffffffff, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
		0x3ff0000000000000, 0x3fefffffffffffff, 0x3ff0000000000000, 0x3ff0000000000000,
		0x3fefffffffffffff, 0x3ff0000000000000, 0x3ff0000000000000, 0x3fefffffffffffff,
		0x3ff0000000000000,
	},
	{ // n=4 δ=1.3333333333333333 grid=512
		0x3fcbfc8dda88e2e3, 0x3fc736190411f726, 0x3fd4a265ea9fc852, 0x3fdb622a2bdbf7e2,
		0x3fd0e8c62f1a5cef, 0x3fda17a4557a8e46, 0x3fc097b12f67ffff, 0x3fc097b12f67ffff,
		0x3fdc68ba66d885cc, 0x3fd6bb8649c95555, 0x3fdb9add6b8e3554, 0x3fdafdfe7d0e8449,
		0x3fd402b819e7b773,
	},
	{ // n=5 δ=1.7 grid=512
		0x3fca30e5f11924e3, 0x3fc5f0950a1baafe, 0x3fd48547622f51f2, 0x3fdf9852e9a33861,
		0x3fd0c9bcab25abf7, 0x3fdf26b3bcb32eb5, 0x3fbc7f5a15bf7fff, 0x3fbc7f5a15bf7fff,
		0x3fdd192cef716d3d, 0x3fd6f614e05467ff, 0x3fdf554a0bc1a699, 0x3fdd79ee37999ddc,
		0x3fd499abc537ffb2,
	},
	{ // n=5 δ=0.01 grid=512
		0x3d69333333333334, 0x3d69333333333334, 0x3d69333333333334, 0x3d69333333333334,
		0x3d69333333333334, 0x3d69333333333334, 0x3d69333333333334, 0x3d69333333333334,
		0x3d69333333333334, 0x3d69333333333334, 0x3d9bfce147ae147b, 0x3d69333333333334,
		0x3d85063854046413,
	},
	{ // n=12 δ=4 grid=16
		0x3fb636271f23d8ed, 0x3fad03700c47801b, 0x3fcf0255baebf918, 0x3fe47445e181711d,
		0x3fc353aec6b06948, 0x3fe35d8e562a2c9b, 0x3f969f8b77140000, 0x3f969f8b77140000,
		0x3fe00fdd3784b7d8, 0x3fd1453a632b2480, 0x3fe430760931816c, 0x3fe0ba69bd2970d8,
		0x3fce59aa90d5f63f,
	},
	{ // n=12 δ=4 grid=512
		0x3fb6162358a10fc9, 0x3fad33a0615fb428, 0x3fcf134814e7e55a, 0x3fe476bb98bad395,
		0x3fc37077f98d5185, 0x3fe36085cf89356a, 0x3f96cf5d1c483915, 0x3f96cf5d1c483915,
		0x3fe00de3e28874ca, 0x3fd1481c23d32082, 0x3fe42e422dc61fbb, 0x3fe0abe463a81570,
		0x3fce4cff06b4fd56,
	},
	{ // n=3 δ=1 grid=4096
		0x3fd0a9f0c302168f, 0x3fcc3bfc32b12e7f, 0x3fd417df6ee2cc94, 0x3fdc3a8762b75fe6,
		0x3fd2b99fbea44cd0, 0x3fd95e32abf984f4, 0x3fc5555540000000, 0x3fc5555540000000,
		0x3fdae2fc6a2cf5b9, 0x3fd73aaaac000000, 0x3fdaaaaaa8000000, 0x3fda5081c19a1506,
		0x3fd4002a176c6153,
	},
	{ // n=4 δ=1.3333333333333333 grid=4096
		0x3fcbfc9163515123, 0x3fc7361c0bac1927, 0x3fd4a26aa3b8acee, 0x3fdb6224a5f9c670,
		0x3fd0e8cac9ad6e04, 0x3fda17a349398ba6, 0x3fc097b41a12f67f, 0x3fc097b41a12f67f,
		0x3fdc68ba9b6a7035, 0x3fd6bb85cd4ce1ea, 0x3fdb9add3cca38e2, 0x3fdafe026b80e7c0,
		0x3fd402b58f446bcc,
	},
}

// TestWinProbabilityGoldenBits pins the grid oracle's output bits: the
// truncated, run-skipping convolution must reproduce the untruncated
// kernel it replaced exactly, not merely to rounding.
func TestWinProbabilityGoldenBits(t *testing.T) {
	sets, steps := goldenSets(t), goldenSteps(t)
	for ci, c := range goldenCases {
		ev, err := NewEvaluator(c.n, c.delta, c.grid)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenBits[ci]
		if len(want) != len(sets)+len(steps) {
			t.Fatalf("case %d: %d golden values, want %d", ci, len(want), len(sets)+len(steps))
		}
		for i, s := range sets {
			p, err := ev.WinProbability(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(p); got != want[i] {
				t.Errorf("n=%d δ=%v grid=%d set %v: P = %v (%#x), golden %v (%#x)",
					c.n, c.delta, c.grid, s, p, got, math.Float64frombits(want[i]), want[i])
			}
		}
		for i, r := range steps {
			p, err := ev.WinProbabilityStep(r)
			if err != nil {
				t.Fatal(err)
			}
			w := want[len(sets)+i]
			if got := math.Float64bits(p); got != w {
				t.Errorf("n=%d δ=%v grid=%d step %v: P = %v (%#x), golden %v (%#x)",
					c.n, c.delta, c.grid, r.Probs(), p, got, math.Float64frombits(w), w)
			}
		}
	}
}

// oracleConvolve is the untruncated discrete convolution h·(f*g) over the
// full length len(f)+len(g)-1.
func oracleConvolve(h float64, f, g []float64) []float64 {
	out := make([]float64, len(f)+len(g)-1)
	for i, fv := range f {
		if fv == 0 {
			continue
		}
		for j, gv := range g {
			out[i+j] += fv * gv
		}
	}
	for i := range out {
		out[i] *= h
	}
	return out
}

// oraclePartialMasses computes N(0..n) with untruncated convolutions and
// a mass scan that stops at the first cell with no weight below δ.
func oraclePartialMasses(e *Evaluator, d []float64) []float64 {
	massBelow := func(d []float64, m int) float64 {
		var acc combin.Accumulator
		halfGen := float64(m) / 2
		for i, v := range d {
			if v == 0 {
				continue
			}
			center := (float64(i) + halfGen) * e.h
			cellLo := center - e.h/2
			w := (e.capacity - cellLo) / e.h
			if w <= 0 {
				break
			}
			if w > 1 {
				w = 1
			}
			acc.Add(v * w)
		}
		return acc.Sum() * e.h
	}
	out := make([]float64, e.n+1)
	out[0] = 1
	cur := d
	for m := 1; m <= e.n; m++ {
		out[m] = massBelow(cur, m)
		if m < e.n {
			cur = oracleConvolve(e.h, cur, d)
		}
	}
	return out
}

// TestPartialMassesMatchesUntruncatedOracle compares the kernel with the
// untruncated convolution bit for bit on seeded densities: 0/1 runs, soft
// values, isolated cells, and all-zero and all-one densities.
func TestPartialMassesMatchesUntruncatedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, c := range []goldenCase{
		{2, 0.3, 16}, {2, 1, 16}, {3, 0.5, 16}, {3, 1, 64}, {3, 2.9, 64}, {4, 4, 32}, {5, 0.01, 128},
		{6, 1.5, 100}, {8, 2.2, 48}, {12, 0.7, 16}, {12, 12, 16},
	} {
		ev, err := NewEvaluator(c.n, c.delta, c.grid)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			d := make([]float64, c.grid)
			switch trial % 5 {
			case 0: // 0/1 runs
				on := rng.IntN(2) == 1
				for i := range d {
					if rng.IntN(6) == 0 {
						on = !on
					}
					if on {
						d[i] = 1
					}
				}
			case 1: // soft values with zero gaps
				for i := range d {
					if rng.IntN(3) > 0 {
						d[i] = rng.Float64()
					}
				}
			case 2: // isolated cells
				for k := 0; k < 3; k++ {
					d[rng.IntN(len(d))] = rng.Float64()
				}
			case 3: // all zero
			case 4: // all one
				for i := range d {
					d[i] = 1
				}
			}
			want := oraclePartialMasses(ev, d)
			got := ev.partialMasses(d)
			for m := range want {
				if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
					t.Errorf("n=%d δ=%v grid=%d trial %d: N(%d) = %v, oracle %v",
						c.n, c.delta, c.grid, trial, m, got[m], want[m])
				}
			}
		}
	}
}

func BenchmarkWinProbability(b *testing.B) {
	set, err := NewIntervalSet([]Interval{{0, 0.35}, {0.55, 0.8}})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []goldenCase{{5, 5.0 / 3, 512}, {3, 1, 4096}} {
		ev, err := NewEvaluator(c.n, c.delta, c.grid)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/grid=%d", c.n, c.grid), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.WinProbability(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
