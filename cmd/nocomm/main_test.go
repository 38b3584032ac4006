package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunDispatch(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"no args", nil, true},
		{"unknown", []string{"bogus"}, true},
		{"help", []string{"help"}, false},
		{"list", []string{"list"}, false},
		{"eval threshold", []string{"eval", "-n", "3", "-delta", "1", "-kind", "threshold", "-param", "0.622"}, false},
		{"eval oblivious", []string{"eval", "-kind", "oblivious", "-param", "0.5"}, false},
		{"eval bad kind", []string{"eval", "-kind", "quantum"}, true},
		{"eval bad instance", []string{"eval", "-n", "1"}, true},
		{"eval bad param", []string{"eval", "-kind", "threshold", "-param", "1.5"}, true},
		{"optimize threshold", []string{"optimize", "-n", "3", "-delta", "1", "-kind", "threshold"}, false},
		{"optimize oblivious", []string{"optimize", "-n", "4", "-delta", "1.3333333333333333", "-kind", "oblivious"}, false},
		{"optimize bad kind", []string{"optimize", "-kind", "psychic"}, true},
		{"simulate threshold", []string{"simulate", "-n", "3", "-delta", "1", "-kind", "threshold", "-param", "0.622", "-trials", "2000"}, false},
		{"simulate oblivious", []string{"simulate", "-kind", "oblivious", "-param", "0.5", "-trials", "2000"}, false},
		{"simulate feasibility", []string{"simulate", "-kind", "feasibility", "-trials", "2000"}, false},
		{"simulate bad kind", []string{"simulate", "-kind", "nope", "-trials", "10"}, true},
		{"simulate zero trials", []string{"simulate", "-trials", "0"}, true},
		{"certify n3", []string{"certify", "-n", "3", "-delta", "1"}, false},
		{"certify n4", []string{"certify", "-n", "4", "-delta", "1.3333333333333333"}, false},
		{"certify bad instance", []string{"certify", "-n", "0"}, true},
		{"certify irrational delta", []string{"certify", "-n", "3", "-delta", "1.0471975511965976"}, true},
		{"figure missing id", []string{"figure"}, true},
		{"figure unknown id", []string{"figure", "F9"}, true},
		{"figure on table id", []string{"figure", "T1"}, true},
		{"figure f1", []string{"figure", "f1", "-points", "21"}, false},
		{"table missing id", []string{"table"}, true},
		{"table unknown id", []string{"table", "T99"}, true},
		{"table on figure id", []string{"table", "F1"}, true},
		{"table t2", []string{"table", "t2"}, false},
		{"metrics missing path", []string{"metrics"}, true},
		{"metrics missing file", []string{"metrics", "/nonexistent/run.jsonl"}, true},
		{"bad metrics format", []string{"simulate", "-trials", "100", "-metrics", "-metrics-format", "xml"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if c.wantErr && err == nil {
				t.Errorf("run(%v): expected error", c.args)
			}
			if !c.wantErr && err != nil {
				t.Errorf("run(%v): unexpected error %v", c.args, err)
			}
		})
	}
}

// TestTrialsFlagRefused requires every -trials flag to refuse a
// non-positive count with the simulator's wording, whatever the backend,
// instead of silently running the default trial count.
func TestTrialsFlagRefused(t *testing.T) {
	for _, args := range [][]string{
		{"eval", "-backend", "mc", "-trials", "-5"},
		{"eval", "-trials", "0"},
		{"figure", "F1", "-backend", "mc", "-points", "3", "-trials", "-5"},
		{"figure", "F1", "-points", "3", "-trials", "0"},
		{"optimize", "-backend", "mc", "-trials", "-5"},
		{"optimize", "-trials", "0"},
		{"table", "T1", "-trials", "-5"},
		{"simulate", "-trials", "-5"},
	} {
		trials := args[len(args)-1]
		want := "sim: trial count " + trials + " must be positive"
		if err := run(args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want an error containing %q", args, err, want)
		}
	}
}

// TestUsageErrorListsAllSubcommands keeps the first-line usage error, the
// help output, and the dispatch switch consistent: every subcommand —
// including certify and metrics — must appear in the advertised list.
func TestUsageErrorListsAllSubcommands(t *testing.T) {
	err := run(nil)
	if err == nil {
		t.Fatal("no-args run should fail with a usage error")
	}
	for _, sub := range []string{"eval", "optimize", "simulate", "certify", "figure", "table", "metrics", "list"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("usage error omits subcommand %q: %v", sub, err)
		}
		if !strings.Contains(subcommandList, sub) {
			t.Errorf("help list omits subcommand %q: %s", sub, subcommandList)
		}
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "certify") {
		t.Errorf("unknown-subcommand error should list all subcommands, got: %v", err)
	}
}

// TestObsRoundTripThroughCLI drives the full observability path the README
// documents: simulate with -obs writing a JSONL log, then replay it with
// the metrics subcommand machinery and check the convergence trace.
func TestObsRoundTripThroughCLI(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "run.jsonl")
	if err := run([]string{"simulate", "-n", "3", "-delta", "1", "-kind", "threshold",
		"-param", "0.622", "-trials", "24000", "-workers", "2", "-obs", log}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(events)
	if len(sum.Checkpoints) != 1 || len(sum.Checkpoints[0].Points) < 10 {
		t.Fatalf("want one convergence stream with >= 10 checkpoints, got %+v", sum.Checkpoints)
	}
	if sum.Final == nil {
		t.Fatal("run log lacks the final metrics snapshot")
	}
	if sum.Final.Counters["sim.trials"] != 24000 {
		t.Errorf("sim.trials = %d, want 24000", sum.Final.Counters["sim.trials"])
	}
	if _, ok := sum.Final.Gauges["run.wall_seconds"]; !ok {
		t.Error("snapshot lacks run.wall_seconds")
	}
	text := sum.Render()
	for _, want := range []string{"sim.trials", "sim.wins", "convergence trace sim.convergence"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
	// The metrics subcommand must replay the same file without error.
	if err := run([]string{"metrics", log}); err != nil {
		t.Fatal(err)
	}
	// Global flags are also accepted before the subcommand.
	if err := run([]string{"-obs", log, "eval", "-n", "3", "-delta", "1", "-param", "0.5"}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileFlags checks that -cpuprofile/-memprofile produce pprof
// artifacts.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"simulate", "-trials", "5000", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunFigureWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "f2.svg")
	csv := filepath.Join(dir, "f2.csv")
	if err := run([]string{"figure", "F2", "-points", "11", "-svg", svg, "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	svgData, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svgData), "<svg") {
		t.Error("SVG artifact malformed")
	}
	csvData, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "series,") {
		t.Error("CSV artifact malformed")
	}
}

func TestRunTableWritesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "t1.csv")
	if err := run([]string{"table", "T1", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "0.416667") {
		t.Errorf("T1 CSV missing the 5/12 value:\n%s", data)
	}
}

// TestEvalAutoPastExactCap pins -backend auto past an exact oracle's
// player cap: a 16-player π instance (the heterogeneous threshold oracle
// stops at 15) answers with a Monte-Carlo estimate, while -backend exact
// still refuses and names the cap. A homogeneous 30-player instance is
// inside the symmetric oracle's domain and answers exactly.
func TestEvalAutoPastExactCap(t *testing.T) {
	pi := "0.5" + strings.Repeat(",1", 15)
	args := []string{"eval", "-pi", pi, "-delta", "5", "-trials", "2000", "-workers", "1"}
	got := captureStdout(t, func() error { return run(append(args, "-backend", "auto")) })
	if want := "n=16 δ=5 π=(" + pi + ") threshold(0.5): P(win) = "; !strings.HasPrefix(got, want) || !strings.HasSuffix(got, "(mc, 2000 trials)\n") {
		t.Errorf("auto output = %q, want a 2000-trial mc estimate", got)
	}
	err := run(append(args, "-backend", "exact"))
	if err == nil || !strings.Contains(err.Error(), "limited to 15 players") {
		t.Errorf("exact error = %v, want the 15-player cap", err)
	}
	got = captureStdout(t, func() error { return run([]string{"eval", "-n", "30", "-delta", "10", "-backend", "exact"}) })
	if want := "n=30 δ=10 threshold(0.5): P(win) = 0.281187245\n"; got != want {
		t.Errorf("exact n=30 output = %q, want %q", got, want)
	}
}
