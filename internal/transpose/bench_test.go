package transpose

import (
	"math/rand"
	"testing"
)

// benchKeys returns n reproducible random signatures.
func benchKeys(n int) [][2]uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([][2]uint64, n)
	for i := range keys {
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	return keys
}

// BenchmarkNewDefault measures building the default-budget table, the
// cost every duplicate-detecting solve pays before its first expansion.
func BenchmarkNewDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(0)
	}
}

// BenchmarkProbeStore measures one probe plus one store (a refresh) of a
// resident key on a warm table of 2^16 entries.
func BenchmarkProbeStore(b *testing.B) {
	keys := benchKeys(1 << 16)
	tb := New(0)
	for i, k := range keys {
		tb.Store(k[0], k[1], int32(i%16), int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		tb.Probe(k[0], k[1], int32(i%16), int64(i))
		tb.Store(k[0], k[1], int32(i%16), int64(i))
	}
}

// BenchmarkGrowTo64K measures a fresh default-budget table taking the
// stores that grow it to 65536 buckets: the allocation, every doubling
// and rehash on the way, and the stores themselves.
func BenchmarkGrowTo64K(b *testing.B) {
	const target = 1 << 16
	keys := benchKeys(1 << 20)
	// The number of stores that reach the target is fixed by the keys;
	// find it once, untimed.
	n := 0
	for tb := New(0); tb.Snapshot().Buckets < target; n++ {
		tb.Store(keys[n][0], keys[n][1], int32(n%16), int64(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := New(0)
		for j, k := range keys[:n] {
			tb.Store(k[0], k[1], int32(j%16), int64(j))
		}
	}
	b.ReportMetric(float64(n), "stores/op")
}
