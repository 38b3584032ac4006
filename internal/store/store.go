package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Value is one cached evaluation result — the engine's payload, kept
// backend-agnostic so the store never imports the engine. Backend is the
// resolved backend's canonical spelling ("exact", "mc", "mc-qmc"); Sim
// carries the full simulation result for the sampled backends.
type Value struct {
	// P is the winning probability.
	P float64 `json:"p"`
	// StdErr is the estimate's standard error (0 for exact results).
	StdErr float64 `json:"std_err,omitempty"`
	// Backend is the resolved backend spelling.
	Backend string `json:"backend"`
	// Sim holds the full simulation result for sampled backends.
	Sim *sim.Result `json:"sim,omitempty"`
}

// Store is the contract the engine evaluates against: singleflight slot
// acquisition over however many tiers the implementation layers.
type Store interface {
	// Acquire returns the slot for key — created when absent — and
	// whether the slot already existed. The caller fills it via
	// Slot.Fill; concurrent identical keys share one slot.
	Acquire(key string) (*Slot, bool)
	// Len reports the number of resident (memory-tier) entries.
	Len() int
	// Stats reports the store's counters and tier sizes.
	Stats() Stats
	// Close releases the disk tier, if any. The store must not be used
	// after Close.
	Close() error
}

// Stats is a point-in-time snapshot of a store's accounting.
type Stats struct {
	// Entries is the resident memory-tier entry count.
	Entries int
	// MaxEntries is the memory tier's LRU bound (0 = unbounded).
	MaxEntries int
	// Evictions counts memory-tier LRU evictions since open.
	Evictions int64
	// Disk holds the disk tier's stats, nil when the store is
	// memory-only.
	Disk *DiskStats
}

// DiskStats is the disk tier's accounting since open.
type DiskStats struct {
	// Dir is the cache directory.
	Dir string
	// Entries and Bytes count the live records: the newest record of
	// each key in the index, not the dead space older records and
	// corrupt bytes still take in their segments.
	Entries int
	Bytes   int64
	// Hits, Misses and Writes count lookups and write-throughs since
	// open; Corrupt counts records quarantined after failing the
	// magic/version/length/checksum/key validation, each once: a record
	// already in corrupt/ is not counted again.
	Hits, Misses, Writes, Corrupt int64
}

// HitRatio returns hits/(hits+misses) since open, and whether any
// lookup happened at all.
func (d DiskStats) HitRatio() (float64, bool) {
	total := d.Hits + d.Misses
	if total == 0 {
		return 0, false
	}
	return float64(d.Hits) / float64(total), true
}

// Slot is one singleflight cache slot. The sync.Once gives the engine's
// original coalescing semantics: concurrent identical evaluations share
// one fill, and every later caller observes the same bits. done flips
// after the fill finishes, distinguishing a warm hit from a coalesced
// join onto an in-flight computation and letting deadline-aware callers
// skip the watchdog goroutine on warm slots.
type Slot struct {
	once     sync.Once
	done     atomic.Bool
	fromDisk bool
	val      Value
	err      error

	key  string
	disk *Disk // nil on memory-only stores
}

// Done reports whether the slot has been filled.
func (s *Slot) Done() bool { return s.done.Load() }

// FromDisk reports whether the slot was filled from the disk tier
// rather than computed. It is meaningful only after Done.
func (s *Slot) FromDisk() bool { return s.Done() && s.fromDisk }

// Result returns the filled value and error. It is meaningful only
// after Done (or after Fill returns).
func (s *Slot) Result() (Value, error) { return s.val, s.err }

// Fill runs the slot's singleflight fill and reports whether this call
// ran it (false: the slot was already filled, or another goroutine is
// filling it — Fill then blocks until that fill completes, exactly like
// the sync.Once it wraps). The disk tier, when present, is consulted
// before compute, and a computed success is written through to it;
// compute errors stay memory-only, so a restart retries them.
func (s *Slot) Fill(compute func() (Value, error)) (ran bool) {
	s.once.Do(func() {
		ran = true
		if s.disk != nil {
			if v, ok := s.disk.Get(s.key); ok {
				s.val, s.fromDisk = v, true
				s.done.Store(true)
				return
			}
		}
		s.val, s.err = compute()
		if s.err == nil && s.disk != nil {
			s.disk.Put(s.key, s.val)
		}
		s.done.Store(true)
	})
	return ran
}
