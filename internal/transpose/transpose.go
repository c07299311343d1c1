// Package transpose implements a sharded, memory-bounded transposition
// table for duplicate detection in the branch-and-bound search.
//
// The paper's algorithm explores a TREE of partial schedules, so one state
// — reachable by many placement orders and processor relabelings — is
// re-expanded once per arrival path. Orr & Sinnen (duplicate-free task
// scheduling state spaces) showed pruning those re-arrivals yields
// order-of-magnitude searched-vertex reductions; Akram/Maas/Sanders showed
// the win survives parallel search when the table is sharded and its
// memory hard-bounded. This package is that table, kept deliberately
// dependency-free: keys are the 128-bit canonical signatures computed by
// internal/sched (processor-permutation-invariant), values are the depth
// and lower bound of the first expansion.
//
// Design:
//
//   - A power-of-two array of 64-byte buckets (two 32-byte slots each, one
//     cache line). The byte budget fixes a ceiling, the largest
//     power-of-two bucket count that fits it; a new table starts at 1024
//     buckets (64 KiB) or the ceiling if that is smaller, and doubles when
//     a store would otherwise evict. The array never passes the ceiling,
//     so bytes-in-use ≤ budget holds structurally, and a solve that
//     stores a few thousand states never zeroes the whole budget.
//   - Growth is invisible to callers: it happens only below the ceiling
//     and before any live entry would be displaced, and the rehash keeps
//     every live entry and its slot, so probe answers and counters equal
//     those of a table allocated at its ceiling from the start.
//   - Striped locks: key hash → one of up to 128 stripes, each with its
//     own mutex and counters, so concurrent workers (SolveParallel) rarely
//     contend. The stripe depends only on the hash, never on the current
//     size; growth takes every stripe lock.
//   - Replacement (at the ceiling only): slot 0 is depth-preferred —
//     shallower entries (larger subtrees, more valuable to dedup) displace
//     deeper ones, the loser falls to slot 1; slot 1 is always-replace.
//     Overwriting a live entry counts as an eviction.
//   - Reset is O(#stripes): a global epoch is bumped and entries from old
//     epochs are treated as absent (counted stale when touched) and
//     reclaimed lazily. SolveIDA resets between threshold iterations;
//     fleet workers reset between solves and after non-exhausted slices.
//
// Subsumption: Probe reports a hit only for an entry with the same key AND
// depth whose stored bound is ≤ the probing child's bound. True duplicates
// have equal bounds (the bound is a function of the state); the depth and
// bound comparisons are collision guards layered on the 128-bit key, so a
// hash accident must also match depth and present a not-worse bound before
// it can prune anything.
package transpose

import (
	"sync"
	"sync/atomic"
)

// Entry is the exportable form of one table record, used for the fleet's
// signature-digest exchange (see internal/dist).
type Entry struct {
	Lo    uint64
	Hi    uint64
	Depth int32
	LB    int64
}

// slot is one stored state: 32 bytes, two per cache-line-sized bucket.
type slot struct {
	lo    uint64
	hi    uint64
	lb    int64
	depth int32
	epoch uint32 // 0 = never used; live iff epoch == table epoch
}

type bucket [2]slot

const (
	slotBytes   = 32
	bucketBytes = 64
	numStripes  = 128

	// MinBudget is the smallest accepted byte budget (64 buckets); New
	// clamps smaller requests up so the table always holds something.
	MinBudget = 64 * bucketBytes

	// initialBuckets is the starting size of a table whose ceiling is
	// larger: 64 KiB.
	initialBuckets = 1024

	// DefaultBudget is the budget used when a caller passes 0: 64 MiB,
	// roughly two million states.
	DefaultBudget = 64 << 20
)

// stripe is one lock shard with its counters, padded to a cache line so
// neighbouring stripes do not false-share.
type stripe struct {
	mu        sync.Mutex
	hits      int64
	misses    int64
	stores    int64
	evictions int64
	stale     int64
	live      int64 // slots holding a current-epoch entry
	_         [2]uint64
}

// Stats is a point-in-time snapshot of the table counters and sizing.
type Stats struct {
	Hits      int64 // Probe found a subsuming entry
	Misses    int64 // Probe found nothing usable
	Stores    int64 // Store calls (including overwrites)
	Evictions int64 // live entries displaced by replacement
	Stale     int64 // old-epoch entries touched (counted once per touch)
	Dropped   int64 // collected entries discarded because the digest buffer was full

	Buckets    int   // current bucket count (power of two)
	Budget     int64 // configured byte budget
	BytesCap   int64 // bytes currently allocated for buckets (≤ Budget)
	BytesInUse int64 // live entries × 32 bytes (≤ BytesCap)
}

// Table is the sharded transposition table. All methods are safe for
// concurrent use.
type Table struct {
	// buckets, mask and epoch are written under ALL stripe locks and read
	// under any one.
	buckets []bucket
	mask    uint64
	epoch   uint32

	budget     int64
	ceiling    int    // largest bucket count the budget admits
	stripeMask uint64 // min(starting bucket count, numStripes) - 1
	stripes    [numStripes]stripe

	// digest collection (fleet mode): bounded buffer of recent stores.
	// collectCap is atomic so the store fast path can skip the buffer
	// lock entirely when collection is off.
	collectCap     atomic.Int64
	collectMu      sync.Mutex
	collect        []Entry
	collectDropped int64
}

// New builds a table whose bucket array may grow to the largest power of
// two that fits budgetBytes (0 picks DefaultBudget; smaller than
// MinBudget is clamped up to it). It starts at 1024 buckets, or at that
// ceiling if it is smaller.
func New(budgetBytes int64) *Table {
	return newSized(budgetBytes, initialBuckets)
}

// newSized is New with the starting bucket count capped at initial
// instead of initialBuckets.
func newSized(budgetBytes int64, initial int) *Table {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	if budgetBytes < MinBudget {
		budgetBytes = MinBudget
	}
	ceiling := 1
	for int64(ceiling*2)*bucketBytes <= budgetBytes {
		ceiling *= 2
	}
	n := min(ceiling, initial)
	return &Table{
		buckets:    make([]bucket, n),
		mask:       uint64(n - 1),
		epoch:      1,
		budget:     budgetBytes,
		ceiling:    ceiling,
		stripeMask: uint64(min(n, numStripes) - 1),
	}
}

// Budget returns the configured byte budget.
func (t *Table) Budget() int64 { return t.budget }

// hash mixes a 128-bit key into the 64-bit value that picks both the
// stripe (low bits below the stripe count) and the bucket (low bits below
// the current size). The splitmix64 finalizer spreads the low bits, so a
// table grows only when three keys really share a bucket's bits.
func hash(lo, hi uint64) uint64 {
	h := lo ^ hi*0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// stripeFor picks the lock shard from hash bits the bucket index also
// uses at every size (a table never has fewer buckets than stripes in
// use), so one stripe guards each bucket.
func (t *Table) stripeFor(h uint64) *stripe {
	return &t.stripes[h&t.stripeMask]
}

// Probe reports whether a stored entry subsumes the state (same key, same
// depth, stored bound ≤ lb): the caller may prune the state as a
// duplicate.
func (t *Table) Probe(lo, hi uint64, depth int32, lb int64) bool {
	h := hash(lo, hi)
	st := t.stripeFor(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := &t.buckets[h&t.mask]
	for i := range b {
		s := &b[i]
		if s.lo != lo || s.hi != hi || s.depth != depth {
			continue
		}
		if s.epoch != t.epoch {
			if s.epoch != 0 {
				st.stale++
			}
			continue
		}
		if s.lb <= lb {
			st.hits++
			return true
		}
	}
	st.misses++
	return false
}

// Store records an expanded state. Same-key entries are refreshed;
// otherwise dead (old-epoch or never-used) slots are claimed first. A
// full bucket doubles the table while it is below its ceiling; at the
// ceiling the depth-preferred replacement runs: a new entry at depth ≤
// slot 0's displaces it into slot 1; deeper entries replace slot 1 only.
func (t *Table) Store(lo, hi uint64, depth int32, lb int64) {
	h := hash(lo, hi)
	st := t.stripeFor(h)
	st.mu.Lock()
	var b *bucket
	for {
		b = &t.buckets[h&t.mask]
		// Refresh an existing record of the same state.
		for i := range b {
			s := &b[i]
			if s.lo == lo && s.hi == hi && s.depth == depth && s.epoch == t.epoch {
				st.stores++
				if lb < s.lb {
					s.lb = lb
				}
				st.mu.Unlock()
				return
			}
		}
		if b[0].epoch != t.epoch || b[1].epoch != t.epoch || len(t.buckets) == t.ceiling {
			break
		}
		// Both slots live below the ceiling: grow rather than evict, then
		// look again (a concurrent store may have refreshed this key).
		n := len(t.buckets)
		st.mu.Unlock()
		t.grow(n)
		st.mu.Lock()
	}
	st.stores++
	entry := slot{lo: lo, hi: hi, lb: lb, depth: depth, epoch: t.epoch}
	// Tier placement. Slot 0 is the depth-preferred tier: a dead slot 0 is
	// claimed outright, and a new entry no deeper than the resident one
	// displaces it (the resident falls to slot 1). Everything else lands in
	// the always-replace slot 1.
	switch {
	case b[0].epoch != t.epoch:
		b[0] = entry
		st.live++
	case depth <= b[0].depth:
		if b[1].epoch != t.epoch {
			st.live++
		} else {
			st.evictions++
		}
		b[1] = b[0]
		b[0] = entry
	default:
		if b[1].epoch != t.epoch {
			st.live++
		} else {
			st.evictions++
		}
		b[1] = entry
	}
	st.mu.Unlock()
	t.collected(Entry{Lo: lo, Hi: hi, Depth: depth, LB: lb})
}

// grow doubles a table that still has n buckets, under every stripe lock
// (the protocol Reset uses); another store may have grown it first.
func (t *Table) grow(n int) {
	for i := range t.stripes {
		t.stripes[i].mu.Lock()
	}
	if len(t.buckets) == n {
		t.rehash(2 * n)
	}
	for i := range t.stripes {
		t.stripes[i].mu.Unlock()
	}
}

// rehash moves the current-epoch entries into a new array of n buckets;
// old-epoch entries are dropped. Each old bucket's slots are placed in
// order into the first free slot of their new bucket, so a new bucket
// keeps the old one's slot order (slot 0 the shallower) and the table
// holds exactly what one allocated at its ceiling would. Callers hold
// every stripe lock.
func (t *Table) rehash(n int) {
	buckets := make([]bucket, n)
	mask := uint64(n - 1)
	for i := range t.buckets {
		for _, s := range t.buckets[i] {
			if s.epoch != t.epoch {
				continue
			}
			nb := &buckets[hash(s.lo, s.hi)&mask]
			if nb[0].epoch == 0 {
				nb[0] = s
			} else {
				nb[1] = s
			}
		}
	}
	t.buckets, t.mask = buckets, mask
}

// StoreEntry is Store over the exported record form.
func (t *Table) StoreEntry(e Entry) { t.Store(e.Lo, e.Hi, e.Depth, e.LB) }

// Import bulk-loads entries (a digest received from a peer).
func (t *Table) Import(entries []Entry) {
	for _, e := range entries {
		t.Store(e.Lo, e.Hi, e.Depth, e.LB)
	}
}

// Reset invalidates every entry in O(#stripes) by bumping the epoch. Old
// entries are reclaimed lazily as their slots are touched.
func (t *Table) Reset() {
	for i := range t.stripes {
		t.stripes[i].mu.Lock()
	}
	t.epoch++
	if t.epoch == 0 { // uint32 wrap: 0 is the never-used sentinel
		t.epoch = 1
		for i := range t.buckets {
			t.buckets[i] = bucket{}
		}
	}
	for i := range t.stripes {
		t.stripes[i].live = 0
		t.stripes[i].mu.Unlock()
	}
	t.collectMu.Lock()
	t.collect = t.collect[:0]
	t.collectMu.Unlock()
}

// SetCollect turns on digest collection: up to cap of the next stores are
// buffered for DrainCollected; beyond that they are counted as dropped.
// cap 0 disables collection and clears the buffer.
func (t *Table) SetCollect(capEntries int) {
	t.collectMu.Lock()
	t.collectCap.Store(int64(capEntries))
	t.collect = t.collect[:0]
	t.collectMu.Unlock()
}

// collected buffers a fresh store for the digest exchange when collection
// is on. Refreshes of existing records are deliberately not re-collected.
func (t *Table) collected(e Entry) {
	if t.collectCap.Load() == 0 {
		return
	}
	t.collectMu.Lock()
	if max := int(t.collectCap.Load()); max > 0 {
		if len(t.collect) < max {
			t.collect = append(t.collect, e)
		} else {
			t.collectDropped++
		}
	}
	t.collectMu.Unlock()
}

// DrainCollected appends the buffered stores to buf, clears the buffer,
// and returns the result.
func (t *Table) DrainCollected(buf []Entry) []Entry {
	t.collectMu.Lock()
	buf = append(buf, t.collect...)
	t.collect = t.collect[:0]
	t.collectMu.Unlock()
	return buf
}

// Snapshot aggregates the per-stripe counters.
func (t *Table) Snapshot() Stats {
	out := Stats{Budget: t.budget}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		if i == 0 {
			out.Buckets = len(t.buckets)
			out.BytesCap = int64(out.Buckets) * bucketBytes
		}
		out.Hits += st.hits
		out.Misses += st.misses
		out.Stores += st.stores
		out.Evictions += st.evictions
		out.Stale += st.stale
		out.BytesInUse += st.live * slotBytes
		st.mu.Unlock()
	}
	t.collectMu.Lock()
	out.Dropped = t.collectDropped
	t.collectMu.Unlock()
	return out
}
