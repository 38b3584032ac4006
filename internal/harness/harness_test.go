package harness

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plot"
	"repro/internal/problem"
	"repro/internal/sim"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	out, err := tab.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"X: demo", "a", "bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" {
		t.Errorf("CSV output wrong:\n%s", buf.String())
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2|3"}},
		Notes:   []string{"footnote"},
	}
	md, err := tab.Markdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"**X: demo**", "| a | b |", "|---|---|", `2\|3`, "> footnote"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	bad := Table{ID: "B", Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if _, err := bad.Markdown(); err == nil {
		t.Error("ragged rows: expected error")
	}
}

func TestTableValidation(t *testing.T) {
	bad := Table{ID: "B", Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if _, err := bad.Render(); err == nil {
		t.Error("ragged rows: expected error")
	}
	if err := bad.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("ragged rows: expected CSV error")
	}
	empty := Table{ID: "E"}
	if _, err := empty.Render(); err == nil {
		t.Error("no columns: expected error")
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	fig := Figure{
		ID: "FX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []plot.Series{{Name: "s", X: []float64{0, 1}, Y: []float64{1, 0}}},
	}
	ascii, err := fig.ASCII(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii, "FX: demo") {
		t.Error("ASCII missing title")
	}
	svg, err := fig.SVG(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") {
		t.Error("SVG missing root element")
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "series,x,y") {
		t.Errorf("figure CSV header wrong: %q", buf.String())
	}
	if strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("figure CSV should have 3 lines:\n%s", buf.String())
	}
	// Mismatched series length.
	fig.Series[0].Y = fig.Series[0].Y[:1]
	if err := fig.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("mismatched series: expected error")
	}
}

func TestFigure1ShapeAndNonUniformity(t *testing.T) {
	fig, err := Figure1(Params{Points: 101})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(FigureNs) {
		t.Fatalf("got %d series", len(fig.Series))
	}
	argmax := make([]float64, len(fig.Series))
	for si, s := range fig.Series {
		if len(s.X) != 101 {
			t.Fatalf("series %q has %d points", s.Name, len(s.X))
		}
		best := 0
		for i := range s.X {
			if s.Y[i] < 0 || s.Y[i] > 1 {
				t.Fatalf("series %q has probability %v outside [0,1]", s.Name, s.Y[i])
			}
			if s.Y[i] > s.Y[best] {
				best = i
			}
		}
		argmax[si] = s.X[best]
	}
	// Non-uniformity made visible: the n=3 and n=4 argmaxes differ.
	if math.Abs(argmax[0]-argmax[1]) < 0.02 {
		t.Errorf("F1 argmaxes %v should differ across n (non-uniformity)", argmax)
	}
	// n=3 curve peaks near the paper's 0.622.
	if math.Abs(argmax[0]-0.622) > 0.02 {
		t.Errorf("n=3 argmax = %v, want ≈ 0.622", argmax[0])
	}
	if _, err := Figure1(Params{Points: 1}); err == nil {
		t.Error("1 point: expected error")
	}
}

func TestFigure2PeaksAtHalf(t *testing.T) {
	fig, err := Figure2(Params{Points: 101})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		best := 0
		for i := range s.X {
			if s.Y[i] > s.Y[best] {
				best = i
			}
		}
		if math.Abs(s.X[best]-0.5) > 0.01 {
			t.Errorf("series %q argmax = %v, want 0.5 (uniformity)", s.Name, s.X[best])
		}
	}
	if _, err := Figure2(Params{}); err == nil {
		t.Error("0 points: expected error")
	}
}

func TestTableObliviousContents(t *testing.T) {
	tab, err := TableOblivious([]int{3, 4}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // two δ per n, minus the n=3 coincidence δ=1=n/3
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	out, err := tab.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.416667") { // 5/12 for n=3, δ=1
		t.Errorf("T1 missing the 5/12 value:\n%s", out)
	}
	if _, err := TableOblivious(nil, Params{}); err == nil {
		t.Error("empty list: expected error")
	}
}

func TestTableCaseN3Contents(t *testing.T) {
	tab, err := TableCaseN3()
	if err != nil {
		t.Fatal(err)
	}
	out, err := tab.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0.622036", "0.544631", "6/7"} {
		if !strings.Contains(out, want) {
			t.Errorf("T2 missing %q:\n%s", want, out)
		}
	}
}

func TestTableCaseN4Contents(t *testing.T) {
	tab, err := TableCaseN4()
	if err != nil {
		t.Fatal(err)
	}
	out, err := tab.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0.677998", "0.43132", "0.42853"} {
		if !strings.Contains(out, want) {
			t.Errorf("T3 missing %q:\n%s", want, out)
		}
	}
}

func TestTableTradeoffOrdering(t *testing.T) {
	p := Params{Sim: sim.Config{Trials: 60000, Seed: 3}}
	tab, err := TableTradeoff([]int{3, 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	if _, err := TableTradeoff(nil, p); err == nil {
		t.Error("empty list: expected error")
	}
}

func TestTableValidationAllWithinFiveSigma(t *testing.T) {
	tab, err := TableValidation(Params{Sim: sim.Config{Trials: 150000, Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 7 {
		t.Fatalf("got %d validation rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		z, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("parsing z %q: %v", row[5], err)
		}
		if z > 5 {
			t.Errorf("validation row %v deviates %v standard errors", row, z)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	ids := IDs()
	want := []string{"F1", "F2", "F3", "T1", "T10", "T11", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "V1"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], id)
		}
	}
	for _, id := range ids {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case KindFigure:
			if e.RunFigure == nil {
				t.Errorf("%s: figure without runner", id)
			}
		case KindTable:
			if e.RunTable == nil {
				t.Errorf("%s: table without runner", id)
			}
		default:
			t.Errorf("%s: unknown kind %v", id, e.Kind)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id: expected error")
	}
}

func TestRegistryRunnersExecute(t *testing.T) {
	// Smoke-run every registry entry with small budgets.
	p := Params{Points: 21, Sim: sim.Config{Trials: 20000, Seed: 4}}
	for _, id := range IDs() {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case KindFigure:
			fig, err := e.RunFigure(p)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			if len(fig.Series) == 0 {
				t.Errorf("%s: no series", id)
			}
		case KindTable:
			tab, err := e.RunTable(p)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s: no rows", id)
			}
			if _, err := tab.Render(); err != nil {
				t.Errorf("%s render: %v", id, err)
			}
		}
	}
}

func TestComputeTradeoffOrdering(t *testing.T) {
	inst, err := problem.PaperInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	row, err := computeTradeoff(inst, sim.Config{Trials: 150000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// The ladder for n=3, δ=1: oblivious 1/2 (5/12) < deterministic split
	// (1/2) < threshold optimum (0.5446) < feasibility (3/4).
	if !(row.obliviousHalf < row.obliviousDeterministic &&
		row.obliviousDeterministic < row.thresholdOptimum &&
		row.thresholdOptimum < row.feasibility) {
		t.Errorf("trade-off ordering violated: %+v", row)
	}
	if math.Abs(row.optimalBeta-(1-math.Sqrt(1.0/7))) > 1e-12 {
		t.Errorf("optimal β = %v", row.optimalBeta)
	}
	if _, err := optimalThreshold(problem.Instance{N: 3, Delta: math.Pi / 3}); err == nil {
		t.Error("irrational capacity: expected error from optimalThreshold")
	}
}
