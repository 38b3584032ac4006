package problem

import (
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		inst Instance
		ok   bool
	}{
		{"homogeneous", Instance{N: 3, Delta: 1}, true},
		{"fractional capacity", Instance{N: 4, Delta: 0.75}, true},
		{"hetero", Instance{N: 3, Delta: 1, Pi: []float64{0.5, 1, 0.75}}, true},
		{"all-ones pi", Instance{N: 2, Delta: 1, Pi: []float64{1, 1}}, true},
		{"one player", Instance{N: 1, Delta: 1}, false},
		{"zero players", Instance{N: 0, Delta: 1}, false},
		{"negative players", Instance{N: -2, Delta: 1}, false},
		{"zero capacity", Instance{N: 3, Delta: 0}, false},
		{"negative capacity", Instance{N: 3, Delta: -1}, false},
		{"NaN capacity", Instance{N: 3, Delta: math.NaN()}, false},
		{"infinite capacity", Instance{N: 3, Delta: math.Inf(1)}, false},
		{"pi length mismatch", Instance{N: 3, Delta: 1, Pi: []float64{0.5, 1}}, false},
		{"zero pi entry", Instance{N: 2, Delta: 1, Pi: []float64{0, 1}}, false},
		{"negative pi entry", Instance{N: 2, Delta: 1, Pi: []float64{-0.5, 1}}, false},
		{"NaN pi entry", Instance{N: 2, Delta: 1, Pi: []float64{math.NaN(), 1}}, false},
		{"infinite pi entry", Instance{N: 2, Delta: 1, Pi: []float64{math.Inf(1), 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.inst.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
			if err != nil && !strings.HasPrefix(err.Error(), "problem: ") {
				t.Fatalf("error %q lacks the problem: prefix", err)
			}
		})
	}
}

func TestNewPiCanonicalizes(t *testing.T) {
	inst, err := NewPi(3, 1, []float64{1, 1, 1})
	if err != nil {
		t.Fatalf("NewPi: %v", err)
	}
	if inst.Pi != nil {
		t.Fatalf("all-ones π not canonicalized to nil: %v", inst.Pi)
	}
	if inst.Heterogeneous() {
		t.Fatalf("all-ones instance reported heterogeneous")
	}

	pi := []float64{0.5, 1, 0.75}
	inst, err = NewPi(3, 1, pi)
	if err != nil {
		t.Fatalf("NewPi: %v", err)
	}
	pi[0] = 99 // NewPi must have copied
	if inst.Pi[0] != 0.5 {
		t.Fatalf("NewPi aliased the caller's slice")
	}
	if !inst.Heterogeneous() {
		t.Fatalf("π=(0.5,1,0.75) reported homogeneous")
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(1, 1); err == nil {
		t.Fatalf("New(1, 1) succeeded")
	}
	if _, err := NewPi(3, 1, []float64{0.5, 1}); err == nil {
		t.Fatalf("NewPi with short π succeeded")
	}
}

func TestPaperInstanceScaling(t *testing.T) {
	inst, err := PaperInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	if inst.N != 4 || math.Abs(inst.Delta-4.0/3) > 1e-15 || inst.Pi != nil {
		t.Errorf("PaperInstance(4) = %+v, want homogeneous δ = 4/3", inst)
	}
	if _, err := PaperInstance(1); err == nil {
		t.Error("n=1: expected error")
	}
}

func TestDeltaRat(t *testing.T) {
	inst, err := PaperInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := inst.DeltaRat()
	if !ok {
		t.Fatal("δ = 4/3 should be recognized as rational")
	}
	if r.Cmp(big.NewRat(4, 3)) != 0 {
		t.Errorf("DeltaRat = %v, want 4/3", r)
	}
	r, ok = Instance{N: 3, Delta: 0.5}.DeltaRat()
	if !ok || r.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("DeltaRat(0.5) = %v, %v", r, ok)
	}
	if _, ok := (Instance{N: 3, Delta: math.Pi / 3}).DeltaRat(); ok {
		t.Error("π/3 should not be recognized as a small rational")
	}
}

func TestPlayerCapError(t *testing.T) {
	err := PlayerCapError("pkg: evaluation limited to %d players, got %d", 20, 22)
	if got, want := err.Error(), "pkg: evaluation limited to 20 players, got 22"; got != want {
		t.Errorf("message = %q, want %q", got, want)
	}
	if !errors.Is(err, ErrPlayerCap) {
		t.Error("PlayerCapError does not wrap ErrPlayerCap")
	}
	if errors.Is(errors.New("pkg: other failure"), ErrPlayerCap) {
		t.Error("unrelated error matched ErrPlayerCap")
	}
}

func TestWidth(t *testing.T) {
	hom := Instance{N: 3, Delta: 1}
	for i := 0; i < 3; i++ {
		if w := hom.Width(i); w != 1 {
			t.Fatalf("homogeneous Width(%d) = %v, want 1", i, w)
		}
	}
	if hom.Widths() != nil {
		t.Fatalf("homogeneous Widths() = %v, want nil", hom.Widths())
	}

	het := Instance{N: 3, Delta: 1, Pi: []float64{0.5, 1, 0.75}}
	want := []float64{0.5, 1, 0.75}
	for i, w := range want {
		if got := het.Width(i); got != w {
			t.Fatalf("Width(%d) = %v, want %v", i, got, w)
		}
	}
	ws := het.Widths()
	ws[0] = 99
	if het.Pi[0] != 0.5 {
		t.Fatalf("Widths() aliased the instance's slice")
	}

	allOnes := Instance{N: 2, Delta: 1, Pi: []float64{1, 1}}
	if allOnes.Widths() != nil {
		t.Fatalf("all-ones Widths() = %v, want nil", allOnes.Widths())
	}
}

func TestKey(t *testing.T) {
	a := Instance{N: 3, Delta: 1}
	b := Instance{N: 3, Delta: 1}
	if a.Key() != b.Key() {
		t.Fatalf("identical instances keyed differently")
	}
	// An all-ones π is the same game, so it must share the key (and
	// therefore the memoized evaluations).
	ones := Instance{N: 3, Delta: 1, Pi: []float64{1, 1, 1}}
	if ones.Key() != a.Key() {
		t.Fatalf("all-ones π keyed differently from nil π: %q vs %q", ones.Key(), a.Key())
	}

	distinct := []Instance{
		{N: 3, Delta: 1},
		{N: 4, Delta: 1},
		{N: 3, Delta: math.Nextafter(1, 2)},
		{N: 3, Delta: 1, Pi: []float64{0.5, 1, 1}},
		{N: 3, Delta: 1, Pi: []float64{1, 0.5, 1}},
		{N: 3, Delta: 1, Pi: []float64{math.Nextafter(0.5, 1), 1, 1}},
	}
	seen := make(map[string]int)
	for i, inst := range distinct {
		k := inst.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("instances %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
}

func TestString(t *testing.T) {
	hom := Instance{N: 3, Delta: 0.5}
	if got := hom.String(); got != "n=3 δ=0.5" {
		t.Fatalf("String() = %q", got)
	}
	het := Instance{N: 3, Delta: 1, Pi: []float64{0.5, 1, 0.75}}
	if got := het.String(); got != "n=3 δ=1 π=(0.5,1,0.75)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParsePi(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"   ", nil},
		{"0.5,1,0.75", []float64{0.5, 1, 0.75}},
		{" 0.5 , 1 , 0.75 ", []float64{0.5, 1, 0.75}},
		{"2", []float64{2}},
	}
	for _, tc := range good {
		got, err := ParsePi(tc.in)
		if err != nil {
			t.Fatalf("ParsePi(%q): %v", tc.in, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("ParsePi(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ParsePi(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}

	bad := []string{"0.5,,1", "0.5,x", "0.5,-1", "0,1", "1,+Inf", "1,NaN", ","}
	for _, in := range bad {
		if _, err := ParsePi(in); err == nil {
			t.Fatalf("ParsePi(%q) succeeded, want error", in)
		}
	}
}

func TestFormatPiRoundTrips(t *testing.T) {
	pi := []float64{0.5, 1, 0.75, 1.0 / 3.0}
	back, err := ParsePi(FormatPi(pi))
	if err != nil {
		t.Fatalf("ParsePi(FormatPi): %v", err)
	}
	for i := range pi {
		if back[i] != pi[i] {
			t.Fatalf("round trip changed π[%d]: %v -> %v", i, pi[i], back[i])
		}
	}
}

// TestValidateAllocs guards the hot path: Validate runs inside every
// engine evaluation and must not allocate on success.
func TestValidateAllocs(t *testing.T) {
	inst := Instance{N: 5, Delta: 1, Pi: []float64{0.5, 1, 0.75, 1, 0.25}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %.1f times per call, want 0", allocs)
	}
}

// TestKeyAllocs bounds Key's allocation count so cache lookups stay
// cheap: one for the homogeneous concatenation, a handful for the π
// builder.
func TestKeyAllocs(t *testing.T) {
	hom := Instance{N: 5, Delta: 0.75}
	if allocs := testing.AllocsPerRun(100, func() { _ = hom.Key() }); allocs > 2 {
		t.Fatalf("homogeneous Key allocates %.1f times per call, want ≤ 2", allocs)
	}
	het := Instance{N: 5, Delta: 0.75, Pi: []float64{0.5, 1, 0.75, 1, 0.25}}
	if allocs := testing.AllocsPerRun(100, func() { _ = het.Key() }); allocs > 10 {
		t.Fatalf("heterogeneous Key allocates %.1f times per call, want ≤ 10", allocs)
	}
}
