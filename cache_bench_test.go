package formext_test

// Cache benchmarks in three shapes: a warm hit (the steady state a crawler
// revisiting known interfaces sees), a cold miss (the cache's overhead on
// top of an uncached extraction), and a 16-goroutine mixed workload over a
// Zipf-ish page popularity distribution (the serving shape: a few hot
// interfaces, a long cold tail). The recorded figures are the ledger's
// hot-fleet p50_ms and traced cache.key_us and cache.hit_us.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"formext"

	"formext/internal/dataset"
)

func newBenchCache(b *testing.B) *formext.Cache {
	b.Helper()
	c, err := formext.NewCache(formext.CacheConfig{MaxBytes: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// distinctPage derives the i-th distinct page: same parse cost, different
// bytes, so every page occupies its own cache key.
func distinctPage(i int) string {
	return fmt.Sprintf("%s<!-- page %d -->", dataset.QamHTML, i)
}

// BenchmarkCachedExtract measures the warm hit path: the page is cached, so
// each operation is two SHA-256 passes, a shard lookup, and the caller's
// Result view — no pipeline work.
func BenchmarkCachedExtract(b *testing.B) {
	ex, err := formext.New(formext.Options{Cache: newBenchCache(b)})
	if err != nil {
		b.Fatal(err)
	}
	src := dataset.QamHTML
	if _, err := ex.ExtractHTML(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractHTML(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheColdMiss measures the miss path: every iteration extracts a
// never-seen page, so each operation pays the full pipeline plus the key
// derivation, freeze, and insert the cache adds.
func BenchmarkCacheColdMiss(b *testing.B) {
	ex, err := formext.New(formext.Options{Cache: newBenchCache(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractHTML(distinctPage(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheParallel drives at least 16 goroutines through one shared,
// cached extractor over 64 pages with Zipf-distributed popularity; the
// reported hit rate shows how much of the workload the cache absorbs.
func BenchmarkCacheParallel(b *testing.B) {
	c := newBenchCache(b)
	ex, err := formext.New(formext.Options{Cache: c})
	if err != nil {
		b.Fatal(err)
	}
	pages := make([]string, 64)
	for i := range pages {
		pages[i] = distinctPage(i)
	}
	if p := runtime.GOMAXPROCS(0); p < 16 {
		b.SetParallelism((16 + p - 1) / p)
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(r, 1.3, 4, uint64(len(pages)-1))
		for pb.Next() {
			if _, err := ex.ExtractHTML(pages[zipf.Uint64()]); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := c.Stats()
	total := st.Hits + st.Misses + st.Coalesced
	if total > 0 {
		b.ReportMetric(float64(st.Hits+st.Coalesced)/float64(total), "hit-rate")
	}
}
