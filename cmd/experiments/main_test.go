package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// TestWorkersFlagRefused requires a negative -workers to be refused before
// any artifact is written, even though the exact backend never reads it.
func TestWorkersFlagRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	const want = "worker count -1 must be non-negative"
	if err := run([]string{"-out", dir, "-workers", "-1"}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run = %v, want an error containing %q", err, want)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("output directory created despite the refusal: %v", err)
	}
}

func TestRunWritesAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration is slow")
	}
	dir := t.TempDir()
	obsLog := filepath.Join(dir, "run.jsonl")
	if err := run([]string{"-out", dir, "-trials", "20000", "-points", "21", "-obs", obsLog}); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{
		"f1.csv", "f1.svg", "f2.csv", "f2.svg", "f3.csv", "f3.svg",
		"t1.txt", "t1.csv", "t1.md", "t2.txt", "t2.csv", "t2.md",
		"t3.txt", "t3.csv", "t3.md", "t4.txt", "t4.csv", "t4.md",
		"t5.txt", "t5.csv", "t5.md", "t6.txt", "t6.csv", "t6.md",
		"t7.txt", "t7.csv", "t7.md", "t8.txt", "t8.csv", "t8.md", "t9.txt", "t9.csv", "t9.md",
		"v1.txt", "v1.csv", "v1.md",
		"summary.txt",
	}
	for _, f := range wantFiles {
		path := filepath.Join(dir, f)
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", f)
		}
	}
	summary, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0.622036", "0.677998", "T4", "V1"} {
		if !strings.Contains(string(summary), want) {
			t.Errorf("summary missing %q", want)
		}
	}

	// The observability log must hold one root span per experiment plus a
	// final metrics snapshot.
	f, err := os.Open(obsLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{}
	sawSnapshot := false
	for _, ev := range events {
		if ev.Type == obs.EventSpanStart && ev.Parent == 0 && strings.HasPrefix(ev.Name, "experiment.") {
			roots[ev.Name]++
		}
		if ev.Type == obs.EventSnapshot {
			sawSnapshot = true
		}
	}
	for _, id := range harness.IDs() {
		if roots["experiment."+id] != 1 {
			t.Errorf("experiment %s has %d root spans, want 1", id, roots["experiment."+id])
		}
	}
	if !sawSnapshot {
		t.Error("run log lacks the final metrics snapshot")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag: expected error")
	}
}
