package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMemorySingleflight checks the slot coalescing contract the engine
// depends on: concurrent fills of one key run the compute exactly once,
// and every caller observes the same bits.
func TestMemorySingleflight(t *testing.T) {
	m := NewMemory(Options{})
	var computes atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	vals := make([]Value, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot, _ := m.Acquire("k")
			slot.Fill(func() (Value, error) {
				computes.Add(1)
				return Value{P: 0.25, Backend: "exact"}, nil
			})
			vals[g], _ = slot.Result()
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for g, v := range vals {
		if v.P != 0.25 || v.Backend != "exact" {
			t.Errorf("goroutine %d saw %+v", g, v)
		}
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

// TestFillError checks that a failed fill is cached (the engine's
// original behavior: the error sticks to the slot) and never written
// through to disk.
func TestFillError(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	slot, _ := s.Acquire("bad")
	slot.Fill(func() (Value, error) {
		return Value{}, os.ErrInvalid
	})
	if _, err := slot.Result(); err == nil {
		t.Fatal("error not cached in slot")
	}
	if st := s.Stats(); st.Disk.Entries != 0 {
		t.Errorf("failed fill wrote %d disk entries", st.Disk.Entries)
	}
}

// TestLRUEviction checks the memory bound: completed slots are evicted
// least-recently-used first, the store.evictions counter counts them,
// and an evicted key is recomputed on next acquire.
func TestLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMemory(Options{MaxEntries: 2, Obs: obs.New(reg, nil)})
	fill := func(key string, p float64) {
		slot, _ := m.Acquire(key)
		slot.Fill(func() (Value, error) { return Value{P: p}, nil })
	}
	fill("a", 1)
	fill("b", 2)
	// Refresh "a" so "b" is the LRU victim.
	if _, ok := m.Acquire("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	fill("c", 3)
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	// Probe the index directly: Acquire would itself insert (and evict).
	resident := func(key string) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		_, ok := m.index[key]
		return ok
	}
	if resident("b") {
		t.Error("LRU victim b still resident")
	}
	if !resident("a") {
		t.Error("recently used a was evicted")
	}
	if got := reg.Counter("store.evictions").Value(); got < 1 {
		t.Errorf("store.evictions = %d, want ≥ 1", got)
	}
	if st := m.Stats(); st.Evictions < 1 || st.MaxEntries != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestLRUKeepsInflight checks that an in-flight slot is never evicted:
// evicting it would sever the abandoned-computation-warms-cache path.
func TestLRUKeepsInflight(t *testing.T) {
	m := NewMemory(Options{MaxEntries: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		slot, _ := m.Acquire("slow")
		slot.Fill(func() (Value, error) {
			close(started)
			<-release
			return Value{P: 9}, nil
		})
	}()
	<-started
	// Overflow the bound while "slow" is still computing.
	slot, _ := m.Acquire("fast")
	slot.Fill(func() (Value, error) { return Value{P: 1}, nil })
	if _, ok := m.Acquire("slow"); !ok {
		t.Error("in-flight slot was evicted")
	}
	close(release)
}

// TestDiskRoundTrip checks Put/Get value fidelity, including the nested
// simulation result.
func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Value{
		P:       0.5446311396758939,
		StdErr:  0.00123,
		Backend: "mc",
		Sim:     &sim.Result{P: 0.5446, StdErr: 0.00123, CILo: 0.54, CIHi: 0.55, Wins: 54460, Trials: 100000},
	}
	if err := d.Put("key-1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("key-1")
	if !ok {
		t.Fatal("entry not found after Put")
	}
	if got.P != want.P || got.StdErr != want.StdErr || got.Backend != want.Backend {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got.Sim == nil || *got.Sim != *want.Sim {
		t.Errorf("sim result mangled: %+v vs %+v", got.Sim, want.Sim)
	}
	if _, ok := d.Get("key-2"); ok {
		t.Error("absent key reported found")
	}
	st := d.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Bytes <= 0 {
		t.Errorf("Stats = %+v", st)
	}
	if ratio, ok := st.HitRatio(); !ok || ratio != 0.5 {
		t.Errorf("HitRatio = %v, %v; want 0.5, true", ratio, ok)
	}
}

// TestWriteThroughAcrossRestart is the tentpole contract: a value
// computed through one store is served from disk — without recompute —
// by a fresh store opened on the same directory.
func TestWriteThroughAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := s1.Acquire("eval-key")
	slot.Fill(func() (Value, error) { return Value{P: 0.75, Backend: "exact"}, nil })
	if slot.FromDisk() {
		t.Error("computed slot claims disk origin")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Disk.Entries != 1 {
		t.Fatalf("restarted store sees %d entries, want 1", st.Disk.Entries)
	}
	slot2, existed := s2.Acquire("eval-key")
	if existed {
		t.Error("fresh memory tier claims the key is resident")
	}
	computed := false
	slot2.Fill(func() (Value, error) {
		computed = true
		return Value{}, nil
	})
	if computed {
		t.Error("restart recomputed a persisted value")
	}
	if !slot2.FromDisk() {
		t.Error("slot not marked as disk-filled")
	}
	if v, _ := slot2.Result(); v.P != 0.75 || v.Backend != "exact" {
		t.Errorf("disk value = %+v", v)
	}
}

// recordOf returns the segment file holding key's indexed record and the
// record's offset and length.
func recordOf(t *testing.T, d *Disk, key string) (path string, off, n int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.index[sha256.Sum256([]byte(key))]
	if !ok {
		t.Fatalf("key %q not indexed", key)
	}
	return filepath.Join(d.dir, d.segs[l.seg].name), l.off, int64(l.n)
}

// segmentFiles lists the segment files in dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// writeSegment fills a segment of its own in dir with keys through a
// fresh Disk, closes it and sets the segment's modification time.
func writeSegment(t *testing.T, dir string, mod time.Time, keys ...string) string {
	t.Helper()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := d.Put(k, Value{P: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	path, _, _ := recordOf(t, d, keys[0])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptQuarantine checks every validation failure class on the last
// record of a segment: the record is never served, is counted once in
// store.corrupt and copied into corrupt/, the key recomputes, and the
// record before it is still served — by this Disk and by a fresh one,
// which finds the record quarantined already and counts no new one.
func TestCorruptQuarantine(t *testing.T) {
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:headerSize-4] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version mismatch", func(b []byte) []byte { b[4] = 99; return b }},
		{"bad length", func(b []byte) []byte { b[8] ^= 0xFF; return b }},
		{"checksum mismatch", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"arbitrary garbage", func(b []byte) []byte { return []byte("not an entry at all") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			dir := t.TempDir()
			d, err := OpenDisk(dir, obs.New(reg, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for _, k := range []string{"before", "k"} {
				if err := d.Put(k, Value{P: 0.5, Backend: "exact"}); err != nil {
					t.Fatal(err)
				}
			}
			path, off, _ := recordOf(t, d, "k")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data[:off:off], c.mangle(data[off:])...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("mangled record was served")
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("mangled record was served on the second lookup")
			}
			if got := reg.Counter("store.corrupt").Value(); got != 1 {
				t.Errorf("store.corrupt = %d, want 1", got)
			}
			q, err := os.ReadDir(filepath.Join(dir, corruptDir))
			if err != nil || len(q) != 1 {
				t.Errorf("quarantine holds %d files (err %v), want 1", len(q), err)
			}
			if st := d.Stats(); st.Entries != 1 {
				t.Errorf("corrupt record still counted: %+v", st)
			}
			if _, ok := d.Get("before"); !ok {
				t.Error("the intact record before the mangled one was lost")
			}
			fresh, err := OpenDisk(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if _, ok := fresh.Get("k"); ok {
				t.Error("a fresh Disk served the mangled record")
			}
			if _, ok := fresh.Get("before"); !ok {
				t.Error("a fresh Disk lost the intact record")
			}
			// The record is quarantined already: the fresh Disk neither
			// copies nor counts it again.
			if st := fresh.Stats(); st.Entries != 1 || st.Corrupt != 0 {
				t.Errorf("fresh Disk stats: %+v, want 1 entry and no newly quarantined record", st)
			}
			if q, err := os.ReadDir(filepath.Join(dir, corruptDir)); err != nil || len(q) != 1 {
				t.Errorf("after reopening, quarantine holds %d files (err %v), want 1", len(q), err)
			}
		})
	}
}

// TestStaleVersionSkipped checks that a record written under an older
// entry version, with its frame intact, is stale rather than corrupt: a
// fresh Disk neither serves, quarantines nor counts it, and still serves
// the current record after it in the same segment.
func TestStaleVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	old, err := EncodeEntry("old", Value{P: 0.25, Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(old[4:8], entryVersion-1)
	cur, err := EncodeEntry("current", Value{P: 0.75, Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-1"+entryExt), append(old, cur...), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d, err := OpenDisk(dir, obs.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.Corrupt != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 entry and no corrupt record", st)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDir)); !os.IsNotExist(err) {
		t.Errorf("quarantine directory exists (err %v), want none", err)
	}
	if _, ok := d.Get("old"); ok {
		t.Error("a stale record was served")
	}
	if v, ok := d.Get("current"); !ok || v.P != 0.75 {
		t.Errorf("Get(current) = %+v, %v; want P = 0.75", v, ok)
	}
	if got := reg.Counter("store.corrupt").Value(); got != 0 {
		t.Errorf("store.corrupt = %d, want 0", got)
	}
}

// TestKeyMismatch checks the guard that a record is served only under
// the key its payload names: an index entry pointing at another key's
// record (a digest collision) is rejected, and so is an old per-key file
// copied onto another key's file name.
func TestKeyMismatch(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("original", Value{P: 0.5}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.index[sha256.Sum256([]byte("impostor"))] = d.index[sha256.Sum256([]byte("original"))]
	d.mu.Unlock()
	if _, ok := d.Get("impostor"); ok {
		t.Error("record served under the wrong key")
	}

	dir := t.TempDir()
	data, err := EncodeEntry("original", Value{P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath(dir, "impostor"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get("impostor"); ok {
		t.Error("renamed per-key file served under its file name's key")
	}
	if _, ok := d2.Get("original"); !ok {
		t.Error("renamed per-key file not served under the key it names")
	}
}

// TestPurge checks the cache-clearing path behind `nocomm cache -purge`.
func TestPurge(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := d.Put(k, Value{P: 1}); err != nil {
			t.Fatal(err)
		}
	}
	entries, bytes, err := d.Purge()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 3 || bytes <= 0 {
		t.Errorf("Purge removed %d entries, %d bytes", entries, bytes)
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("Stats after purge: %+v", st)
	}
	if _, ok := d.Get("a"); ok {
		t.Error("entry survived purge")
	}
}

// TestGCMaxAge checks the age half of the GC contract behind
// `nocomm cache -max-age`: segments last written before the cutoff go
// with every entry in them, younger ones stay, and the accounting tracks.
func TestGCMaxAge(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, time.Now().Add(-100*time.Hour), "old-a", "old-b")
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("young", Value{P: 1}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	entries, bytes, err := d.GC(72*time.Hour, -1)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 2 || bytes <= 0 {
		t.Errorf("GC removed %d entries, %d bytes; want 2 expired entries", entries, bytes)
	}
	st := d.Stats()
	if st.Entries != 1 || st.Bytes != before.Bytes-bytes {
		t.Errorf("Stats after GC: %+v (purged %d bytes of %d)", st, bytes, before.Bytes)
	}
	if _, ok := d.Get("old-a"); ok {
		t.Error("expired entry survived GC")
	}
	if _, ok := d.Get("young"); !ok {
		t.Error("young entry did not survive GC")
	}
	if n := len(segmentFiles(t, dir)); n != 1 {
		t.Errorf("%d segments after GC, want 1", n)
	}
	// A second pass with the same bounds is a no-op.
	if entries, bytes, err = d.GC(72*time.Hour, -1); err != nil || entries != 0 || bytes != 0 {
		t.Errorf("repeated GC: %d entries, %d bytes, %v; want no-op", entries, bytes, err)
	}
}

// TestGCMaxBytes checks the size half: the oldest segments go first
// until the live records fit, maxBytes 0 empties the tier, and a Put
// after GC removed this Disk's own segment starts a new one.
func TestGCMaxBytes(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"first", "second", "third"}
	for i, k := range keys {
		// Distinct mtimes, oldest first, without sleeping.
		writeSegment(t, dir, time.Now().Add(time.Duration(i-10)*time.Minute), k)
	}
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	total := d.Stats().Bytes
	// Budget for exactly the two youngest entries: only the oldest goes.
	_, _, oldest := recordOf(t, d, "first")
	budget := total - oldest
	entries, bytes, err := d.GC(0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 {
		t.Errorf("GC removed %d entries, want the single oldest", entries)
	}
	if _, ok := d.Get("first"); ok {
		t.Error("oldest entry survived a size-bound GC")
	}
	for _, k := range keys[1:] {
		if _, ok := d.Get(k); !ok {
			t.Errorf("entry %q should have survived", k)
		}
	}
	if st := d.Stats(); st.Bytes != total-bytes || st.Bytes > budget {
		t.Errorf("Stats after GC: %+v, want ≤ %d bytes", st, budget)
	}
	if err := d.Put("fourth", Value{P: 4}); err != nil {
		t.Fatal(err)
	}
	// maxBytes 0 empties the tier, this Disk's own segment included.
	if entries, _, err = d.GC(0, 0); err != nil || entries != 3 {
		t.Errorf("GC to zero: removed %d entries, %v; want the remaining 3", entries, err)
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("Stats after GC to zero: %+v", st)
	}
	if n := len(segmentFiles(t, dir)); n != 0 {
		t.Errorf("%d segments after GC to zero", n)
	}
	if err := d.Put("fifth", Value{P: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("fifth"); !ok {
		t.Error("Put after GC removed the active segment was lost")
	}
}

// TestOpenIgnoresCrashLeftovers checks that what a crashed writer can
// leave behind — a segment created but never written, a segment cut
// inside its first header, a temp file of the old per-key layout — is
// never counted as an entry, and that the directory still takes writes.
func TestOpenIgnoresCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	valid, err := EncodeEntry("k", Value{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"seg-1" + entryExt: nil,
		"seg-2" + entryExt: valid[:headerSize-4],
		"tmp-12345":        []byte("partial"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("crash leftovers counted as entries: %+v", st)
	}
	if _, ok := d.Get("k"); ok {
		t.Error("a torn record was served")
	}
	if err := d.Put("k", Value{P: 1}); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get("k"); !ok || v.P != 1 {
		t.Errorf("Get after Put = %+v, %v", v, ok)
	}
}

// TestConcurrentPutOneKey checks that concurrent writes of one key count
// one entry: the index, not the directory, decides what is live.
func TestConcurrentPutOneKey(t *testing.T) {
	const writers = 8
	data, err := EncodeEntry("k", Value{P: 0.5, Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		d, err := OpenDisk(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.Put("k", Value{P: 0.5, Backend: "exact"})
			}()
		}
		wg.Wait()
		if st := d.Stats(); st.Entries != 1 || st.Bytes != int64(len(data)) || st.Writes != writers {
			t.Fatalf("rep %d: Stats = %+v, want 1 entry of %d bytes after %d writes", rep, st, len(data), writers)
		}
		d.Close()
	}
}

// TestOneSegmentPerDisk is the mechanism behind the tier's write cost:
// one Disk's Puts all append to one file, so 1,000 of them add exactly
// one file to the directory, and a fresh Disk serves every one.
func TestOneSegmentPerDisk(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const puts = 1000
	for i := 0; i < puts; i++ {
		if err := d.Put(fmt.Sprintf("key-%d", i), Value{P: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Fatalf("%d Puts left %d files, want 1", puts, len(des))
	}
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Entries != puts {
		t.Errorf("reopened tier holds %d entries, want %d", st.Entries, puts)
	}
	for i := 0; i < puts; i++ {
		if v, ok := d2.Get(fmt.Sprintf("key-%d", i)); !ok || v.P != float64(i) {
			t.Fatalf("key-%d: %+v, %v", i, v, ok)
		}
	}
}

// TestTornTail checks crash recovery: a segment whose last record was
// cut short keeps serving every record before the tear, and the torn
// record is never served — its key recomputes and is written again.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	path := writeSegment(t, dir, time.Now(), "a", "b", "c")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, obs.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b"} {
		if v, ok := d.Get(k); !ok || v.P != float64(i) {
			t.Errorf("record %q before the tear: %+v, %v", k, v, ok)
		}
	}
	if _, ok := d.Get("c"); ok {
		t.Fatal("torn record was served")
	}
	if st := d.Stats(); st.Entries != 2 || st.Corrupt != 1 {
		t.Errorf("Stats = %+v, want 2 entries and 1 corrupt record", st)
	}
	if err := d.Put("c", Value{P: 2}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, ok := d2.Get("c"); !ok || v.P != 2 {
		t.Errorf("rewritten record: %+v, %v", v, ok)
	}
}

// legacyPath is where the old per-key layout kept key's entry: a file
// named by the SHA-256 hex of the key.
func legacyPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+entryExt)
}

// TestLegacyLayout checks that a directory of the old per-key files reads
// as one-record segments: every entry is served and counted, GC removes
// them one file at a time, and serving more of them than maxOpen keeps at
// most maxOpen read handles.
func TestLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	const files = maxOpen + 8
	var total int64
	for i := 0; i < files; i++ {
		key := fmt.Sprintf("legacy-%d", i)
		data, err := EncodeEntry(key, Value{P: float64(i), Backend: "exact"})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(legacyPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
	}
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.Entries != files || st.Bytes != total {
		t.Errorf("Stats = %+v, want %d entries of %d bytes", st, files, total)
	}
	for i := 0; i < files; i++ {
		if v, ok := d.Get(fmt.Sprintf("legacy-%d", i)); !ok || v.P != float64(i) {
			t.Errorf("legacy-%d: %+v, %v", i, v, ok)
		}
	}
	d.mu.Lock()
	held := len(d.open)
	d.mu.Unlock()
	if held > maxOpen {
		t.Errorf("%d read handles held, want at most %d", held, maxOpen)
	}
	entries, _, err := d.GC(0, total-1)
	if err != nil || entries != 1 {
		t.Errorf("GC to one byte under the total removed %d entries (%v), want 1", entries, err)
	}
	if n := len(segmentFiles(t, dir)); n != files-1 {
		t.Errorf("%d files after GC, want %d", n, files-1)
	}
}

// TestEncodeDecodeEntry round-trips the entry codec directly.
func TestEncodeDecodeEntry(t *testing.T) {
	want := Value{P: 0.123, StdErr: 0.004, Backend: "mc-qmc", Sim: &sim.Result{Replicates: 16, Trials: 65536}}
	data, err := EncodeEntry("some|key", want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data, "some|key")
	if err != nil {
		t.Fatal(err)
	}
	if got.P != want.P || got.Backend != want.Backend || got.Sim.Replicates != 16 {
		t.Errorf("round trip: %+v vs %+v", got, want)
	}
	if _, err := DecodeEntry(data, "other|key"); err == nil {
		t.Error("key mismatch accepted")
	}
	if _, err := DecodeEntry(data, ""); err != nil {
		t.Errorf("empty wantKey should skip the key check: %v", err)
	}
}
