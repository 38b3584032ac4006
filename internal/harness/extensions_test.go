package harness

import (
	"math"
	"math/big"
	"strconv"
	"testing"

	"repro/internal/nonoblivious"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

func TestFigure3CrossoverAtN4(t *testing.T) {
	fig, err := Figure3(4, Params{Points: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("got %d series", len(fig.Series))
	}
	threshold, coin, split := fig.Series[0], fig.Series[1], fig.Series[2]
	if len(threshold.X) != len(coin.X) || len(coin.X) != len(split.X) {
		t.Fatal("series lengths differ")
	}
	// The documented finding: near δ = 4/3 the coin beats the optimal
	// threshold; at small δ the threshold wins.
	coinWinsSomewhere := false
	thresholdWinsSomewhere := false
	for i := range threshold.X {
		if coin.Y[i] > threshold.Y[i]+1e-9 {
			coinWinsSomewhere = true
		}
		if threshold.Y[i] > coin.Y[i]+1e-9 {
			thresholdWinsSomewhere = true
		}
		// The balanced split dominates the coin everywhere (multilinear
		// vertex optimum).
		if split.Y[i] < coin.Y[i]-1e-9 {
			t.Errorf("δ=%v: balanced split %v below coin %v", threshold.X[i], split.Y[i], coin.Y[i])
		}
		for _, s := range fig.Series {
			if s.Y[i] < 0 || s.Y[i] > 1 {
				t.Fatalf("series %q has probability %v outside [0,1]", s.Name, s.Y[i])
			}
		}
	}
	if !coinWinsSomewhere {
		t.Error("expected a region where the oblivious coin beats the threshold optimum")
	}
	if !thresholdWinsSomewhere {
		t.Error("expected a region where the threshold optimum beats the coin")
	}
}

func TestFigure3MonotoneInCapacity(t *testing.T) {
	fig, err := Figure3(3, Params{Points: 13})
	if err != nil {
		t.Fatal(err)
	}
	// More capacity never hurts any of the classes.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Errorf("series %q decreases from δ=%v to δ=%v (%v -> %v)",
					s.Name, s.X[i-1], s.X[i], s.Y[i-1], s.Y[i])
			}
		}
	}
}

func TestFigure3Validation(t *testing.T) {
	if _, err := Figure3(1, Params{Points: 10}); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := Figure3(4, Params{Points: 1}); err == nil {
		t.Error("1 point: expected error")
	}
}

func TestTableBeyondThresholds(t *testing.T) {
	tab, err := TableBeyondThresholds()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	improvements := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", row[5], err)
		}
		if v < 0 {
			t.Errorf("row %d: improvement %v < 0 over the threshold optimum", i, v)
		}
		improvements[i] = v
	}
	// n=3: the search collapses onto the threshold optimum; n=4: the
	// band rule improves by ≈ +0.05.
	if got := tab.Rows[0][4]; got != "[0.0000, 0.6220]" {
		t.Errorf("n=3 region = %q, want [0.0000, 0.6220]", got)
	}
	if improvements[0] != 0 {
		t.Errorf("n=3 improvement = %v, want 0 (threshold optimal)", improvements[0])
	}
	if improvements[1] < 0.03 {
		t.Errorf("n=4 improvement = %v, want ≈ +0.05 (band rule)", improvements[1])
	}
	// The oracle the improvements are measured against reproduces the
	// exact §5.2 optimum at [0, β*].
	opt, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := response.NewEvaluator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := response.Threshold(opt.BetaFloat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ev.WinProbability(thr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-opt.WinProbabilityFloat) > 1e-12 {
		t.Errorf("oracle at [0, β*] = %v, exact P* = %v", p, opt.WinProbabilityFloat)
	}
}

func TestTableAsymptoticsTrend(t *testing.T) {
	tab, err := TableAsymptotics([]int{4, 8, 16, 24}, Params{Sim: sim.Config{Trials: 20000, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", s, err)
		}
		return v
	}
	// P* threshold and oblivious both increase with n at δ = n/3
	// (concentration), and the balanced split dominates the coin.
	var prevThr, prevObl float64
	for i, row := range tab.Rows {
		thr := parse(row[2])
		obl := parse(row[3])
		split := parse(row[4])
		if i > 0 {
			if thr < prevThr-1e-9 {
				t.Errorf("threshold P* decreased at row %d: %v -> %v", i, prevThr, thr)
			}
			if obl < prevObl-1e-9 {
				t.Errorf("oblivious P decreased at row %d: %v -> %v", i, prevObl, obl)
			}
		}
		if split < obl-1e-9 {
			t.Errorf("row %d: balanced split %v below coin %v", i, split, obl)
		}
		prevThr, prevObl = thr, obl
	}
	// Large-n feasibility column is suppressed (too expensive).
	last := tab.Rows[len(tab.Rows)-1]
	if last[5] != "-" {
		t.Errorf("n=24 feasibility = %q, want suppressed", last[5])
	}
	if _, err := TableAsymptotics(nil, Params{Sim: sim.Config{Trials: 10}}); err == nil {
		t.Error("empty list: expected error")
	}
}

func TestTableOneBitValue(t *testing.T) {
	tab, err := TableOneBitValue([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		gain, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("parsing gain %q: %v", row[4], err)
		}
		// One bit strictly helps on both paper instances.
		if gain < 0.01 {
			t.Errorf("row %v: one-bit gain %v should be clearly positive", row, gain)
		}
	}
	if _, err := TableOneBitValue(nil); err == nil {
		t.Error("empty list: expected error")
	}
}

func TestTableNonUniformInputs(t *testing.T) {
	tab, err := TableNonUniformInputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", s, err)
		}
		return v
	}
	// Row 0 is uniform: best β on the 1/64 grid is 0.625, and the two P
	// columns coincide.
	if tab.Rows[0][1] != "0.6250" || tab.Rows[0][2] != tab.Rows[0][3] {
		t.Errorf("uniform row wrong: %v", tab.Rows[0])
	}
	// Small-skew rows pull β down and raise P; large-skew pushes β up and
	// lowers P.
	uniformBest := parse(tab.Rows[0][1])
	if parse(tab.Rows[1][1]) >= uniformBest {
		t.Errorf("small skew should lower β*: %v", tab.Rows[1])
	}
	if parse(tab.Rows[2][1]) <= uniformBest {
		t.Errorf("large skew should raise β*: %v", tab.Rows[2])
	}
	if parse(tab.Rows[1][2]) <= parse(tab.Rows[0][2]) {
		t.Errorf("small skew should raise P*: %v", tab.Rows[1])
	}
	if parse(tab.Rows[2][2]) >= parse(tab.Rows[0][2]) {
		t.Errorf("large skew should lower P*: %v", tab.Rows[2])
	}
	// The uniform-case threshold is strictly suboptimal under skew.
	for _, i := range []int{1, 2, 3} {
		if parse(tab.Rows[i][3]) >= parse(tab.Rows[i][2]) {
			t.Errorf("row %d: uniform-case β should be suboptimal: %v", i, tab.Rows[i])
		}
	}
}

func TestTableValueOfInformationLadder(t *testing.T) {
	tab, err := TableValueOfInformation(Params{Sim: sim.Config{Trials: 30000, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d rows, want 6 rungs", len(tab.Rows))
	}
	// Every rung is exact; parse the P column.
	ps := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", row[2], err)
		}
		ps[i] = v
		if row[3] != "0 (exact)" {
			t.Errorf("rung %q: std err %q, want exact", row[0], row[3])
		}
	}
	last := len(ps) - 1
	if ps[last] != 0.75 {
		t.Errorf("full information P = %v, want 3/4", ps[last])
	}
	// The exact one-bit rung strictly improves on no communication.
	if !(ps[1] > ps[0]+0.02) {
		t.Errorf("one-bit rung %v should clearly beat no communication %v", ps[1], ps[0])
	}
	// The weighted-average families contain the no-communication optimum
	// (W = 0), so their tuned values cannot fall below it.
	weighted := 0
	for i, row := range tab.Rows {
		if row[0] != py91.OneWay.String() && row[0] != py91.Broadcast.String() {
			continue
		}
		weighted++
		if ps[i] < ps[0] {
			t.Errorf("weighted rung %q value %v below no communication %v", row[0], ps[i], ps[0])
		}
	}
	if weighted != 2 {
		t.Errorf("found %d weighted rungs, want 2", weighted)
	}
	for i := 1; i < last; i++ {
		if ps[i] > ps[last] {
			t.Errorf("rung %q value %v above full information %v", tab.Rows[i][0], ps[i], ps[last])
		}
	}
}
