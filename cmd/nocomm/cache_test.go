package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestCacheGolden pins the `nocomm cache` subcommand byte-for-byte: the
// stats view over a freshly-filled directory, the purge report, and the
// stats view of the emptied directory. The test runs from a temp working
// directory with a relative -cache-dir so no machine-specific path leaks
// into the output; the byte counts are deterministic because the entry
// encoding (header + canonical JSON payload) is.
func TestCacheGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join(wd, "testdata")
	t.Chdir(t.TempDir())

	// Fill the cache with one exact evaluation.
	captureStdout(t, func() error {
		return run([]string{"eval", "-cache-dir", "cache", "-n", "3", "-delta", "1",
			"-kind", "threshold", "-param", "0.6220355269907728", "-backend", "exact"})
	})

	check := func(name string, args []string) {
		t.Helper()
		got := captureStdout(t, func() error { return run(args) })
		path := filepath.Join(goldenDir, name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update-golden to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	check("cache_stats.golden", []string{"cache", "-cache-dir", "cache"})
	check("cache_purge.golden", []string{"cache", "-cache-dir", "cache", "-purge"})
	check("cache_empty.golden", []string{"cache", "-cache-dir", "cache"})

	if err := run([]string{"cache"}); err == nil {
		t.Error("cache without -cache-dir should fail")
	}
}

// TestCacheGCGolden pins the `nocomm cache -max-age` / `-max-bytes`
// garbage-collection reports byte-for-byte. Two exact evaluations, each
// run opening its own store, fill the cache with two one-record
// segments; the segment sorting first by file name is backdated past the
// age bound, so the age pass purges exactly that entry, and a zero byte
// budget then empties the directory. The two records have the same
// length and the encoding is canonical, so every count in the output is
// deterministic.
func TestCacheGCGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join(wd, "testdata")
	t.Chdir(t.TempDir())

	for _, param := range []string{"0.5", "0.6220355269907728"} {
		captureStdout(t, func() error {
			return run([]string{"eval", "-cache-dir", "cache", "-n", "3", "-delta", "1",
				"-kind", "threshold", "-param", param, "-backend", "exact"})
		})
	}
	names, err := filepath.Glob(filepath.Join("cache", "*.ncs"))
	if err != nil || len(names) != 2 {
		t.Fatalf("cache holds %d entries (%v), want 2", len(names), err)
	}
	sort.Strings(names)
	stale := time.Now().Add(-100 * time.Hour)
	if err := os.Chtimes(names[0], stale, stale); err != nil {
		t.Fatal(err)
	}

	check := func(name string, args []string) {
		t.Helper()
		got := captureStdout(t, func() error { return run(args) })
		path := filepath.Join(goldenDir, name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update-golden to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	check("cache_gc_age.golden", []string{"cache", "-cache-dir", "cache", "-max-age", "72h"})
	check("cache_gc_bytes.golden", []string{"cache", "-cache-dir", "cache", "-max-bytes", "0"})
	check("cache_gc_empty.golden", []string{"cache", "-cache-dir", "cache", "-max-age", "72h", "-max-bytes", "0"})

	if err := run([]string{"cache", "-cache-dir", "cache", "-purge", "-max-age", "1h"}); err == nil {
		t.Error("-purge with -max-age should be rejected")
	}
	if err := run([]string{"cache", "-cache-dir", "cache", "-max-age", "-1h"}); err == nil {
		t.Error("negative -max-age should be rejected")
	}
}

// TestEvalCacheDirWarm checks the CLI half of the warm-restart contract:
// a second `nocomm eval -cache-dir` process-equivalent run returns the
// same bytes as the first — the cached result is indistinguishable on
// stdout — and the disk tier reports the lookup as a hit.
func TestEvalCacheDirWarm(t *testing.T) {
	t.Chdir(t.TempDir())
	args := []string{"eval", "-cache-dir", "cache", "-n", "3", "-delta", "1",
		"-kind", "threshold", "-param", "0.6220355269907728", "-backend", "exact"}
	first := captureStdout(t, func() error { return run(args) })
	second := captureStdout(t, func() error { return run(args) })
	if first != second {
		t.Errorf("warm run output differs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}
