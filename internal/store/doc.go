// Package store is the engine's tiered result store: the memoization
// layer that used to live as an unexported map inside internal/engine,
// extracted behind a small Store interface so cached evaluations can be
// size-bounded, persisted across process restarts, and shared between
// replicas.
//
// Two tiers compose:
//
//   - The memory tier (Memory) keeps the engine's original singleflight
//     semantics bit-for-bit: one Slot per cache key, concurrent identical
//     evaluations coalesce onto one computation via sync.Once, and a
//     computation abandoned by its caller still lands in the slot. On top
//     it adds size-bounded LRU eviction (Options.MaxEntries) with a
//     store.evictions counter; in-flight slots are never evicted.
//
//   - The optional disk tier (Disk) is log-structured. Each Disk appends
//     records to one segment file of its own, created on its first
//     write, so a process creates one file rather than one per cached
//     result. A record is the versioned, checksummed encoding of one
//     entry and repeats its full cache key (problem.Key + rule
//     fingerprint + backend/config key). Opening a directory scans every
//     segment into an in-memory index from the SHA-256 digest of a key
//     to its newest record, so a lookup that misses makes no system
//     call and a hit reads one record at its offset. A record that fails
//     validation is never served: it is dropped from the index, copied
//     into a corrupt/ subdirectory and counted in store.corrupt, and its
//     key recomputes. GC and Purge remove whole segments, and a
//     segment's age is its last write. Hits, misses and writes since
//     open are counted in store.disk.hits / store.disk.misses /
//     store.disk.writes.
//
// A memory miss consults the disk tier before computing, and a computed
// success is written through — so expensive exact and QMC results survive
// restarts. Replicas sharing a cache directory each append to their own
// segment and see each other's entries when they open the directory, not
// while both are running. Whether a slot was filled from disk is reported
// by Slot.FromDisk, which the engine surfaces as a store.fill span
// attribute.
//
// Entry invalidation is by construction, not by protocol: the cache key
// encodes every knob that changes the returned bits (instance bit
// patterns, rule fingerprint, resolved backend, trial/seed/worker or
// replicate tolerances), so a changed configuration addresses a different
// entry, and entryVersion is bumped whenever the Value encoding or any
// evaluation semantics change — old records then fail the version check
// and are quarantined rather than served. A canary test hashes the
// answers the code serves to a fixed request set and fails when they
// move, until the new hash is recorded under a new entry version.
package store
