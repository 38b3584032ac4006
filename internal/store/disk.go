package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Disk record format, version 1. A segment file is a sequence of
// records, each a fixed 24-byte header followed by a JSON payload:
//
//	[0:4]   magic "NCSE"
//	[4:8]   format version, uint32 little-endian
//	[8:16]  payload length, uint64 little-endian
//	[16:24] FNV-64a checksum of the payload, uint64 little-endian
//	[24:]   payload: {"key": <cache key>, "value": <Value>}
//
// The payload repeats the full cache key, so the index is rebuilt from
// the records alone and a record is never served under another key.
// Bump entryVersion whenever the Value encoding — or the meaning of any
// key component — changes. A record of an older version whose frame is
// intact (magic, length and checksum valid) is stale: scans skip it,
// neither serving nor quarantining it. A newer version fails validation
// like any other malformation and is quarantined, never trusted.
const (
	entryMagic   = "NCSE"
	entryVersion = 3
	headerSize   = 24
	// entryExt is the segment file suffix; everything else in the
	// directory is ignored by scans.
	entryExt = ".ncs"
	// corruptDir is the quarantine subdirectory for copies of records
	// that failed validation.
	corruptDir = "corrupt"
	// maxOpen bounds the read handles held on segments other than the
	// Disk's own, so a directory of thousands of segments costs no more
	// file descriptors than a handful.
	maxOpen = 32
)

// answerCanaries records, at index v, the SHA-256 of the answers that the
// code of entry version v gives to a fixed request set, one per persisted
// rule kind and backend (TestStoredAnswerCanary). The test requires the
// last entry to sit at entryVersion, to match the current answers and to
// differ from every earlier entry. So a change that moves a served bit
// needs a new entry, whose index is a version bump; overwriting an
// earlier entry instead shows in the diff as a deleted record.
var answerCanaries = [...]string{
	1: "fb31fba462801c612714bddf979bd7f28c86b599f0319951389ac6e9ede77e8d",
	2: "6feb299f3ee812b1c3243b05dac5bc3ff1dbbc35b5779bf116406317ce189427",
	3: "51b109cfac19b226690c2c6cd6ac794321041fc423c36b20e0d85bcd67dd6c84",
}

// diskEntry is the JSON payload of one record.
type diskEntry struct {
	Key   string `json:"key"`
	Value Value  `json:"value"`
}

// digest is the SHA-256 of a cache key: the index holds 32 bytes per
// entry whatever the key's length.
type digest [sha256.Size]byte

// loc places one record: segment id, byte offset and length.
type loc struct {
	seg int32
	n   uint32
	off int64
}

// segment is one append-only file of records.
type segment struct {
	id   int32
	name string
	f    *os.File // nil while no handle is held
	size int64    // append offset (the Disk's own segment only)

	// live and liveBytes count the indexed records the segment holds.
	live      int
	liveBytes int64
}

// Disk is the log-structured disk tier. Each Disk appends its records to
// one segment of its own, created on the first Put, and serves lookups
// from an in-memory index that maps a key's digest to its newest record.
// OpenDisk builds the index by scanning every segment in the directory,
// so replicas sharing a directory see each other's entries when they
// open it, not while both are running. Safe for concurrent use.
type Disk struct {
	dir string
	obs *obs.Observer

	mu      sync.Mutex // guards everything below
	index   map[digest]loc
	segs    []*segment // by id; nil once removed
	active  *segment   // this Disk's own segment, nil until the first Put
	open    []*segment // other segments holding a read handle, oldest first
	entries int        // len(index), kept past Close
	bytes   int64      // total length of the indexed records
	closed  bool

	hits, misses, writes, corrupt atomic.Int64
}

// errClosed refuses writes after Close.
var errClosed = errors.New("store: disk tier closed")

// errStale marks an intact record of an older entry version: written by
// code whose answers may differ, so it is not served, but not corrupt.
var errStale = errors.New("store: stale entry")

// OpenDisk opens (creating if needed) the disk tier rooted at dir and
// scans every segment into the index. Stale records are skipped and
// records that fail validation are quarantined as they are met; a
// segment whose framing breaks (a torn tail left by a crashed writer)
// loses only the bytes from the break on.
func OpenDisk(dir string, o *obs.Observer) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening cache dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning cache dir: %w", err)
	}
	d := &Disk{dir: dir, obs: o, index: make(map[digest]loc)}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entryExt) {
			continue
		}
		d.scan(de.Name())
	}
	return d, nil
}

// scan indexes one segment, reading it a record at a time up to its size
// when opened: records another process appends later are not seen.
func (d *Disk) scan(name string) {
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return
	}
	s := d.addSegment(name, nil)
	r := bufio.NewReader(f)
	var rec []byte
	for off, size := int64(0), info.Size(); off < size; off += int64(len(rec)) {
		hdr, _ := r.Peek(headerSize)
		n := frame(hdr, size-off)
		rec = slices.Grow(rec[:0], int(n))[:n]
		if _, err := io.ReadFull(r, rec); err != nil {
			return // the segment shrank since it was opened
		}
		switch ent, err := decodeEntry(rec); {
		case errors.Is(err, errStale):
			// Older code's answer: not served, but not corrupt either.
		case err != nil:
			d.quarantine(s, off, rec)
		default:
			d.link(sha256.Sum256([]byte(ent.Key)), loc{seg: s.id, n: uint32(n), off: off})
		}
	}
}

// frame returns the length of the record whose header starts hdr, with
// rest bytes left in its segment: the length the header declares, or all
// of rest when the header is short, not a record header, or declares
// more than rest holds — no record boundary after such a break can be
// trusted.
func frame(hdr []byte, rest int64) int64 {
	if rest < headerSize || len(hdr) < headerSize || string(hdr[:4]) != entryMagic {
		return rest
	}
	if n := binary.LittleEndian.Uint64(hdr[8:16]); n <= uint64(rest-headerSize) {
		return headerSize + int64(n)
	}
	return rest
}

// addSegment registers a segment file under the next id. Called with mu
// held, or before the Disk is shared.
func (d *Disk) addSegment(name string, f *os.File) *segment {
	s := &segment{id: int32(len(d.segs)), name: name, f: f}
	d.segs = append(d.segs, s)
	return s
}

// link points a digest at a record, retiring the record it replaces.
// Called with mu held.
func (d *Disk) link(sum digest, l loc) {
	if old, ok := d.index[sum]; ok {
		d.unlink(old)
	}
	d.index[sum] = l
	s := d.segs[l.seg]
	s.live++
	s.liveBytes += int64(l.n)
	d.entries++
	d.bytes += int64(l.n)
}

// unlink takes a record out of the live counts. Called with mu held.
func (d *Disk) unlink(l loc) {
	s := d.segs[l.seg]
	s.live--
	s.liveBytes -= int64(l.n)
	d.entries--
	d.bytes -= int64(l.n)
}

// Dir returns the cache directory.
func (d *Disk) Dir() string { return d.dir }

// Get looks the key up, returning the stored value and whether it was
// found. A key absent from the index costs no system call. A record
// that fails validation (bad magic, version, length, checksum, or a
// payload key that does not match) is dropped from the index,
// quarantined and reported as a miss — a corrupt cache can cost a
// recomputation, never a wrong answer.
func (d *Disk) Get(key string) (Value, bool) {
	sum := sha256.Sum256([]byte(key))
	d.mu.Lock()
	l, ok := d.index[sum]
	var rec []byte
	if ok {
		var err error
		rec, err = d.read(l)
		ok = err == nil
	}
	d.mu.Unlock()
	if ok {
		v, err := DecodeEntry(rec, key)
		if err == nil {
			d.hits.Add(1)
			d.obs.Counter("store.disk.hits").Inc()
			return v, true
		}
		d.mu.Lock()
		// Count the record once: a concurrent Get or Put may have
		// dropped or replaced it already.
		var s *segment
		if cur, still := d.index[sum]; still && cur == l {
			delete(d.index, sum)
			d.unlink(l)
			s = d.segs[l.seg]
		}
		d.mu.Unlock()
		if s != nil {
			d.quarantine(s, l.off, rec)
		}
	}
	d.misses.Add(1)
	d.obs.Counter("store.disk.misses").Inc()
	return Value{}, false
}

// read returns the bytes at l, fewer when the segment has been cut
// short since it was indexed. An error means the segment could not be
// read at all, which is a miss rather than a corrupt record. Called with
// mu held.
func (d *Disk) read(l loc) ([]byte, error) {
	s := d.segs[l.seg]
	if s.f == nil {
		f, err := os.Open(filepath.Join(d.dir, s.name))
		if err != nil {
			return nil, err
		}
		if len(d.open) == maxOpen {
			d.release(d.open[0])
		}
		s.f = f
		d.open = append(d.open, s)
	}
	rec := make([]byte, l.n)
	n, err := s.f.ReadAt(rec, l.off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return rec[:n], nil
}

// release closes a segment's read handle. Called with mu held.
func (d *Disk) release(s *segment) {
	for i, o := range d.open {
		if o == s {
			d.open = append(d.open[:i], d.open[i+1:]...)
			break
		}
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Put appends the entry to this Disk's segment with one write and points
// the index at it; an older record of the key becomes dead space that
// GC reclaims with its segment. Write failures are reported to the
// observer and returned, but callers on the evaluation path treat them
// as advisory — a failed write-through must never fail the evaluation
// that produced the value.
func (d *Disk) Put(key string, v Value) error {
	data, err := EncodeEntry(key, v)
	if err == nil {
		d.mu.Lock()
		err = d.append(sha256.Sum256([]byte(key)), data)
		d.mu.Unlock()
	}
	if err != nil {
		d.obs.EmitError("store.disk", err)
		return err
	}
	d.writes.Add(1)
	d.obs.Counter("store.disk.writes").Inc()
	return nil
}

// append writes one record to the active segment, creating it first if
// needed. Called with mu held.
func (d *Disk) append(sum digest, data []byte) error {
	if d.closed {
		return errClosed
	}
	if d.active == nil {
		f, err := os.CreateTemp(d.dir, "seg-*"+entryExt)
		if err != nil {
			return fmt.Errorf("store: creating segment: %w", err)
		}
		d.active = d.addSegment(filepath.Base(f.Name()), f)
	}
	s := d.active
	if _, err := s.f.Write(data); err != nil {
		// The write may have left a torn record; no later record may
		// follow it, so the next Put starts a new segment.
		s.f.Close()
		s.f, d.active = nil, nil
		return fmt.Errorf("store: writing entry: %w", err)
	}
	d.link(sum, loc{seg: s.id, n: uint32(len(data)), off: s.size})
	s.size += int64(len(data))
	return nil
}

// quarantine copies an invalid record into corrupt/, named by its
// segment and offset, and counts it. The file is created exclusively, so
// a record some process has quarantined already is neither copied nor
// counted again. The caller has already kept the record out of the index,
// so it is never served.
func (d *Disk) quarantine(s *segment, off int64, rec []byte) {
	// The copy is kept for inspection only: when it cannot be written the
	// record is still counted and never served.
	qdir := filepath.Join(d.dir, corruptDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		f, err := os.OpenFile(filepath.Join(qdir, fmt.Sprintf("%s.%d", s.name, off)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			return
		}
		if err == nil {
			_, _ = f.Write(rec)
			_ = f.Close()
		}
	}
	d.corrupt.Add(1)
	d.obs.Counter("store.corrupt").Inc()
}

// remove deletes a segment file and forgets it, returning the entries
// and bytes it held; dropIndexed then drops the index entries of every
// removed segment in one pass. Called with mu held.
func (d *Disk) remove(s *segment) (int, int64, error) {
	if err := os.Remove(filepath.Join(d.dir, s.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, 0, err
	}
	d.release(s)
	if d.active == s {
		d.active = nil
	}
	d.segs[s.id] = nil
	d.entries -= s.live
	d.bytes -= s.liveBytes
	return s.live, s.liveBytes, nil
}

// dropIndexed deletes the index entries that point into removed
// segments. Called with mu held.
func (d *Disk) dropIndexed() {
	for sum, l := range d.index {
		if d.segs[l.seg] == nil {
			delete(d.index, sum)
		}
	}
}

// Purge deletes every segment this Disk knows (those present when it
// opened, and its own) and the quarantine directory, returning how many
// entries (and bytes) were removed. Lookup/write counters keep counting
// across a purge, and a later Put starts a new segment.
func (d *Disk) Purge() (entries int, bytes int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		if s == nil {
			continue
		}
		n, b, rerr := d.remove(s)
		err = errors.Join(err, rerr)
		entries += n
		bytes += b
	}
	d.dropIndexed()
	if rerr := os.RemoveAll(filepath.Join(d.dir, corruptDir)); rerr != nil {
		err = errors.Join(err, rerr)
	}
	return entries, bytes, err
}

// GC prunes the disk tier by age and size, one whole segment at a time:
// segments older than maxAge are removed (maxAge <= 0 disables the age
// bound), then — when maxBytes >= 0 — the oldest surviving segments are
// removed until the live records fit in maxBytes. A segment's age is the
// modification time of its file, its last write, so every entry in it is
// as old as the segment's newest record. Ties break by file name, so a
// GC pass is deterministic for a given directory state. GC acts on the
// segments Purge does. Returns how many entries (and bytes) were purged.
func (d *Disk) GC(maxAge time.Duration, maxBytes int64) (entries int, bytes int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	type aged struct {
		s   *segment
		mod time.Time
	}
	var segs []aged
	for _, s := range d.segs {
		if s == nil {
			continue
		}
		if info, serr := os.Stat(filepath.Join(d.dir, s.name)); serr == nil {
			segs = append(segs, aged{s, info.ModTime()})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if !segs[i].mod.Equal(segs[j].mod) {
			return segs[i].mod.Before(segs[j].mod)
		}
		return segs[i].s.name < segs[j].s.name
	})
	cutoff := time.Now().Add(-maxAge)
	for _, a := range segs {
		expired := maxAge > 0 && a.mod.Before(cutoff)
		oversize := maxBytes >= 0 && d.bytes > maxBytes
		if !expired && !oversize {
			// segs is oldest-first: once one segment survives both
			// bounds, every younger one does too.
			break
		}
		n, b, rerr := d.remove(a.s)
		err = errors.Join(err, rerr)
		entries += n
		bytes += b
	}
	d.dropIndexed()
	return entries, bytes, err
}

// Stats implements the disk half of Store.Stats.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	entries, bytes := d.entries, d.bytes
	d.mu.Unlock()
	return DiskStats{
		Dir:     d.dir,
		Entries: entries,
		Bytes:   bytes,
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Writes:  d.writes.Load(),
		Corrupt: d.corrupt.Load(),
	}
}

// Close releases the tier's file handles and its index; Stats keeps
// reporting the counts at close. Later lookups miss and later writes
// fail.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.index, d.segs = nil, nil
	var err error
	if s := d.active; s != nil {
		err = s.f.Close()
		s.f, d.active = nil, nil
	}
	for len(d.open) > 0 {
		d.release(d.open[0])
	}
	return err
}

// EncodeEntry renders one record: header + JSON payload.
func EncodeEntry(key string, v Value) ([]byte, error) {
	payload, err := json.Marshal(diskEntry{Key: key, Value: v})
	if err != nil {
		return nil, fmt.Errorf("store: encoding entry: %w", err)
	}
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], entryMagic)
	binary.LittleEndian.PutUint32(buf[4:8], entryVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	binary.LittleEndian.PutUint64(buf[16:24], h.Sum64())
	copy(buf[headerSize:], payload)
	return buf, nil
}

// DecodeEntry validates and decodes one record. A non-empty wantKey
// additionally requires the payload's key to match — the guard against
// serving a record under another key. DecodeEntry never panics, whatever
// the bytes: every malformation is an error.
func DecodeEntry(data []byte, wantKey string) (Value, error) {
	ent, err := decodeEntry(data)
	if err != nil {
		return Value{}, err
	}
	if wantKey != "" && ent.Key != wantKey {
		return Value{}, fmt.Errorf("store: entry key mismatch")
	}
	return ent.Value, nil
}

// decodeEntry validates one record's header and checksum and decodes its
// payload. An intact record of an older version is errStale.
func decodeEntry(data []byte) (diskEntry, error) {
	var ent diskEntry
	if len(data) < headerSize {
		return ent, fmt.Errorf("store: entry truncated: %d bytes", len(data))
	}
	if string(data[0:4]) != entryMagic {
		return ent, fmt.Errorf("store: bad entry magic %q", data[0:4])
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return ent, fmt.Errorf("store: entry payload length %d, have %d bytes", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	h := fnv.New64a()
	h.Write(payload)
	if sum := binary.LittleEndian.Uint64(data[16:24]); sum != h.Sum64() {
		return ent, fmt.Errorf("store: entry checksum mismatch")
	}
	switch v := binary.LittleEndian.Uint32(data[4:8]); {
	case v < entryVersion:
		return ent, fmt.Errorf("%w: version %d, want %d", errStale, v, entryVersion)
	case v > entryVersion:
		return ent, fmt.Errorf("store: entry version %d, want %d", v, entryVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ent); err != nil {
		return ent, fmt.Errorf("store: decoding entry payload: %w", err)
	}
	return ent, nil
}
