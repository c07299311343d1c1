package transpose

import (
	"math/rand"
	"sync"
	"testing"
)

func TestSizingRespectsBudget(t *testing.T) {
	if s := New(0).Snapshot(); s.BytesCap > 64<<10 || s.Budget != DefaultBudget {
		t.Fatalf("fresh New(0): %d bytes allocated, budget %d; want ≤ 64 KiB of %d", s.BytesCap, s.Budget, DefaultBudget)
	}
	for _, budget := range []int64{0, 1, MinBudget, MinBudget + 1, 100_000, 1 << 20, (1 << 20) + 13} {
		tb := New(budget)
		s := tb.Snapshot()
		if s.Buckets&(s.Buckets-1) != 0 {
			t.Fatalf("budget %d: bucket count %d not a power of two", budget, s.Buckets)
		}
		if s.BytesCap > s.Budget {
			t.Fatalf("budget %d: allocated %d bytes over budget %d", budget, s.BytesCap, s.Budget)
		}
		if budget == 0 {
			continue // overfilling 64 MiB is too slow for a unit test
		}
		// Overfill: the table grows to the largest fitting power of two
		// and never past the budget.
		rng := rand.New(rand.NewSource(budget))
		for i := 0; i < 8*int(s.Budget/slotBytes); i++ {
			tb.Store(rng.Uint64(), rng.Uint64(), int32(i%40), int64(i))
			if i%1024 == 0 {
				if s := tb.Snapshot(); s.BytesCap > s.Budget {
					t.Fatalf("budget %d: grew to %d bytes, over budget %d", budget, s.BytesCap, s.Budget)
				}
			}
		}
		s = tb.Snapshot()
		if s.BytesCap > s.Budget || s.BytesCap*2 <= s.Budget {
			t.Fatalf("budget %d: overfilled table holds %d bytes of %d (not the largest fitting power of two)", budget, s.BytesCap, s.Budget)
		}
	}
}

// TestGrowthMatchesCeilingTable is the differential oracle for growth: a
// table that starts small and doubles on demand must answer every probe
// and count every hit, miss, store, eviction and live byte exactly as one
// allocated at its ceiling from the start. The key space is narrow so
// keys collide, buckets fill and, at the ceiling, entries are evicted.
// Stale is excluded: growth drops old-epoch entries instead of copying
// them, so fewer are ever touched.
func TestGrowthMatchesCeilingTable(t *testing.T) {
	for _, budget := range []int64{MinBudget, 128 * bucketBytes, 64 << 10, 1 << 20} {
		ceiling := New(budget).ceiling
		lazy, eager := newSized(budget, 64), newSized(budget, ceiling)
		rng := rand.New(rand.NewSource(budget))
		keys := uint64(3 * ceiling) // 1.5 keys per slot: the ceiling is reached
		ops := 40 * ceiling
		for i := 0; i < ops; i++ {
			lo := rng.Uint64() % keys
			hi := lo % 3
			depth := int32(rng.Intn(4))
			lb := int64(rng.Intn(8))
			switch r := rng.Intn(10 * ceiling); {
			case r == 0: // a few epochs per stream, each long enough to fill the table
				lazy.Reset()
				eager.Reset()
			case r < 5*ceiling:
				lazy.Store(lo, hi, depth, lb)
				eager.Store(lo, hi, depth, lb)
			default:
				if a, b := lazy.Probe(lo, hi, depth, lb), eager.Probe(lo, hi, depth, lb); a != b {
					t.Fatalf("budget %d op %d: Probe(%d,%d,%d,%d) = %v, ceiling table says %v", budget, i, lo, hi, depth, lb, a, b)
				}
			}
		}
		ls, es := lazy.Snapshot(), eager.Snapshot()
		ls.Stale, es.Stale = 0, 0
		if ls != es {
			t.Fatalf("budget %d: counters diverge\n grown:   %+v\n ceiling: %+v", budget, ls, es)
		}
		if es.Evictions == 0 || ls.Buckets != ceiling {
			t.Fatalf("budget %d: stream never reached the ceiling (%d of %d buckets, %d evictions)", budget, ls.Buckets, ceiling, es.Evictions)
		}
	}
}

func TestProbeStoreSubsumption(t *testing.T) {
	tb := New(MinBudget)
	if tb.Probe(1, 2, 3, 10) {
		t.Fatal("empty table produced a hit")
	}
	tb.Store(1, 2, 3, 10)
	if !tb.Probe(1, 2, 3, 10) {
		t.Fatal("equal-bound duplicate not subsumed")
	}
	if !tb.Probe(1, 2, 3, 11) {
		t.Fatal("worse-bound duplicate not subsumed")
	}
	if tb.Probe(1, 2, 3, 9) {
		t.Fatal("better-bound state wrongly subsumed")
	}
	if tb.Probe(1, 2, 4, 10) {
		t.Fatal("depth mismatch wrongly subsumed")
	}
	if tb.Probe(1, 3, 3, 10) {
		t.Fatal("key mismatch wrongly subsumed")
	}
	// Refresh lowers the stored bound.
	tb.Store(1, 2, 3, 7)
	if !tb.Probe(1, 2, 3, 7) {
		t.Fatal("refreshed bound not applied")
	}
	s := tb.Snapshot()
	if s.Hits != 3 || s.Misses != 4 {
		t.Fatalf("counters hits=%d misses=%d, want 3/4", s.Hits, s.Misses)
	}
	if s.BytesInUse != slotBytes {
		t.Fatalf("BytesInUse = %d, want %d (one live slot)", s.BytesInUse, slotBytes)
	}
}

func TestDepthPreferredReplacement(t *testing.T) {
	tb := New(MinBudget) // at its ceiling from the start: full buckets evict
	// Three keys colliding into one bucket (same low hash bits).
	var ks []uint64
	for k := uint64(1); len(ks) < 3; k++ {
		if hash(k, 0)&tb.mask == hash(5, 0)&tb.mask {
			ks = append(ks, k)
		}
	}
	k1, k2, k3 := ks[0], ks[1], ks[2]
	tb.Store(k1, 0, 8, 100) // depth 8
	tb.Store(k2, 0, 4, 200) // depth 4 → shallower, takes slot 0
	tb.Store(k3, 0, 6, 300) // bucket full: deeper than slot 0 → replaces slot 1
	if tb.Probe(k1, 0, 8, 100) {
		t.Fatal("deepest entry should have been evicted")
	}
	if !tb.Probe(k2, 0, 4, 200) || !tb.Probe(k3, 0, 6, 300) {
		t.Fatal("surviving entries lost")
	}
	s := tb.Snapshot()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.BytesInUse > s.BytesCap {
		t.Fatalf("BytesInUse %d exceeds BytesCap %d", s.BytesInUse, s.BytesCap)
	}
}

func TestResetInvalidatesAndCountsStale(t *testing.T) {
	tb := New(MinBudget)
	tb.Store(1, 2, 3, 10)
	tb.Reset()
	if tb.Probe(1, 2, 3, 10) {
		t.Fatal("entry survived Reset")
	}
	s := tb.Snapshot()
	if s.Stale != 1 {
		t.Fatalf("stale = %d, want 1", s.Stale)
	}
	if s.BytesInUse != 0 {
		t.Fatalf("BytesInUse = %d after Reset, want 0", s.BytesInUse)
	}
	// The slot is reclaimed by the next store.
	tb.Store(9, 9, 1, 1)
	if !tb.Probe(9, 9, 1, 1) {
		t.Fatal("post-reset store lost")
	}
}

func TestCollectionDrainAndDrop(t *testing.T) {
	tb := New(MinBudget)
	tb.SetCollect(2)
	tb.Store(1, 0, 1, 1)
	tb.Store(2, 0, 1, 1)
	tb.Store(3, 0, 1, 1) // over cap → dropped
	tb.Store(1, 0, 1, 1) // refresh → not re-collected
	got := tb.DrainCollected(nil)
	if len(got) != 2 || got[0].Lo != 1 || got[1].Lo != 2 {
		t.Fatalf("drained %v", got)
	}
	if s := tb.Snapshot(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
	if again := tb.DrainCollected(nil); len(again) != 0 {
		t.Fatalf("second drain returned %v", again)
	}
	tb2 := New(MinBudget)
	tb2.Import(got)
	if !tb2.Probe(1, 0, 1, 1) || !tb2.Probe(2, 0, 1, 1) {
		t.Fatal("import lost entries")
	}
}

// TestConcurrentMixedUse hammers the table from many goroutines (run under
// -race by the standard test invocation of scripts/check.sh). The table
// starts far below its ceiling, so growth races with probes and stores.
func TestConcurrentMixedUse(t *testing.T) {
	tb := newSized(1<<20, 64)
	tb.SetCollect(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				lo, hi := rng.Uint64(), rng.Uint64()
				switch i % 8 {
				case 0:
					if i%1024 == 0 {
						tb.Reset()
					}
				case 1:
					tb.Snapshot()
				case 2:
					tb.DrainCollected(nil)
				default:
					tb.Store(lo, hi, int32(i%30), int64(i))
					tb.Probe(lo, hi, int32(i%30), int64(i))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := tb.Snapshot()
	if s.BytesInUse > s.BytesCap || s.BytesCap > s.Budget {
		t.Fatalf("memory accounting violated: inUse=%d cap=%d budget=%d", s.BytesInUse, s.BytesCap, s.Budget)
	}
	if s.Buckets == 64 {
		t.Fatal("table never grew: the run did not race growth against probes")
	}
}

// TestBytesInUseNeverExceedsBudget fills the table far past capacity and
// checks the structural bound the bbload assertion relies on.
func TestBytesInUseNeverExceedsBudget(t *testing.T) {
	tb := New(MinBudget) // 64 buckets = 128 slots
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		tb.Store(rng.Uint64(), rng.Uint64(), int32(i%40), int64(i))
	}
	s := tb.Snapshot()
	if s.BytesInUse > s.BytesCap || s.BytesCap > s.Budget {
		t.Fatalf("memory accounting violated: inUse=%d cap=%d budget=%d", s.BytesInUse, s.BytesCap, s.Budget)
	}
	if s.Evictions == 0 {
		t.Fatal("overfill produced no evictions")
	}
	if s.BytesInUse != s.BytesCap {
		t.Fatalf("overfilled table not fully live: inUse=%d cap=%d", s.BytesInUse, s.BytesCap)
	}
}
