package nonoblivious

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// symbolicGoldenInstances lists the instances pinned by
// testdata/optimal_symmetric.golden: n = 2..10 at δ ∈ {n/3, n/4, 1}, then
// Figure 3's n = 4 capacity grid δ = 16/24 … 48/24.
func symbolicGoldenInstances() []struct {
	n     int
	delta *big.Rat
} {
	var out []struct {
		n     int
		delta *big.Rat
	}
	add := func(n int, delta *big.Rat) {
		out = append(out, struct {
			n     int
			delta *big.Rat
		}{n, delta})
	}
	for n := 2; n <= 10; n++ {
		add(n, big.NewRat(int64(n), 3))
		add(n, big.NewRat(int64(n), 4))
		add(n, big.NewRat(1, 1))
	}
	for num := int64(16); num <= 48; num++ {
		add(4, big.NewRat(num, 24))
	}
	return out
}

// TestOptimalSymmetricGolden pins OptimalSymmetric bit for bit: the exact
// β* enclosure, the exact P(β*), the optimality-condition polynomial and a
// SHA-256 of the whole piecewise curve, as the rational-arithmetic
// implementation computed them. Every quantity is an exact rational, so any
// correct reformulation of the symbolic expansion or of root isolation
// reproduces the file byte for byte. Regenerate with -update-golden only
// for a deliberate change of the mathematics.
func TestOptimalSymmetricGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range symbolicGoldenInstances() {
		res, err := OptimalSymmetric(in.n, in.delta)
		if err != nil {
			t.Fatalf("n=%d δ=%s: %v", in.n, in.delta.RatString(), err)
		}
		fmt.Fprintf(&b, "n=%d delta=%s\n", in.n, in.delta.RatString())
		fmt.Fprintf(&b, "  beta.lo=%s\n", res.Beta.Lo.RatString())
		fmt.Fprintf(&b, "  beta.hi=%s\n", res.Beta.Hi.RatString())
		fmt.Fprintf(&b, "  p=%s\n", res.WinProbability.RatString())
		fmt.Fprintf(&b, "  condition=%s\n", res.Condition.String())
		fmt.Fprintf(&b, "  curve.sha256=%x\n", sha256.Sum256([]byte(res.Curve.String())))
	}
	path := filepath.Join("testdata", "optimal_symmetric.golden")
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden length mismatch: %d lines, want %d", len(gl), len(wl))
	}
}

// TestSymbolicPiecesMatchRatOracle checks every piece of SymbolicSymmetric
// against the independent Theorem 5.1 oracle WinningProbabilityPiRat with
// all thresholds equal to β, as exact rational equality: at both ends of the
// piece (so each interior breakpoint is checked from either side) and at
// its midpoint, for n ≤ 6 on a grid of capacities.
func TestSymbolicPiecesMatchRatOracle(t *testing.T) {
	deltas := []*big.Rat{rat(1, 3), rat(1, 2), rat(2, 3), rat(1, 1), rat(5, 4), rat(3, 2), rat(7, 3), rat(3, 1)}
	for n := 2; n <= 6; n++ {
		for _, delta := range append(deltas, rat(int64(n), 3), rat(int64(n), 2)) {
			pw, err := SymbolicSymmetric(n, delta)
			if err != nil {
				t.Fatal(err)
			}
			oracle := func(beta *big.Rat) *big.Rat {
				ths := make([]*big.Rat, n)
				for i := range ths {
					ths[i] = beta
				}
				v, err := WinningProbabilityPiRat(ths, nil, delta)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			for i := 0; i < pw.NumPieces(); i++ {
				piece, iv, err := pw.Piece(i)
				if err != nil {
					t.Fatal(err)
				}
				for _, beta := range []*big.Rat{iv.Lo, iv.Mid(), iv.Hi} {
					if got, want := piece.Eval(beta), oracle(beta); got.Cmp(want) != 0 {
						t.Errorf("n=%d δ=%s piece %d at β=%s: %s, oracle %s",
							n, delta.RatString(), i, beta.RatString(), got.RatString(), want.RatString())
					}
				}
			}
		}
	}
}
