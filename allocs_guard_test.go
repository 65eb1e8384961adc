//go:build !race

// Allocation-budget and retention guards for the serving path. Excluded
// under the race detector: race builds deliberately degrade sync.Pool
// (random Put drops), so the pooled front-end arenas re-allocate their
// slabs and the counts stop measuring the code. `make check` runs these through the dedicated
// guards target, without -race.
package formext_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"formext"
	"formext/internal/dataset"
)

// TestColdExtractAllocationBudget guards the end-to-end cold-extraction
// allocation budget on the Qam fixture: with the arena front end (slab DOM,
// pooled layout, arena tokens) plus the slab parser, one uncached request
// must stay under 100 heap allocations (the seed paid ~717). The bound has
// headroom over the measured ~79 so unrelated small changes don't flake it;
// a regression past it means some per-node or per-token allocation crept
// back into the hot path.
func TestColdExtractAllocationBudget(t *testing.T) {
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("cold Qam extraction allocates %.0f objects per op, want < 100", allocs)
	}
}

// Bounds of the retention and allocation guards below, measured on
// go1.24/amd64 with ~10-15 % headroom: a frozen result retains 21.3 KB on a
// padded page and 32.0 KB on a benchmark-shaped one (the cache charges ~5-6
// % less), and an uncached padded extraction allocates 40.7 KB, the same
// on every run since the collector is off while it is measured. While
// results kept whole token slab blocks, the same pages retained ~41 KB and
// ~51 KB and allocated 60.6 KB; while they kept every alive instance, they
// retained ~70 KB and ~218 KB; while they also kept the DOM, the render
// tree and the page bytes, a padded page retained ~462 KB and allocated
// ~583 KB.
const (
	retainedBound      = 24_500
	benchRetainedBound = 36_800
	allocatedBound     = 45_000
)

// paddedCorpus builds n byte-distinct ~48 KB crawl-shaped pages from the
// generated source corpus.
func paddedCorpus(t *testing.T, n int) [][]byte {
	t.Helper()
	srcs := dataset.NewSource()
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = []byte(paddedPage(srcs[i%len(srcs)].HTML, "", i))
	}
	return pages
}

// benchCorpus builds n pages shaped like the benchmark's cold-extract
// forms: the whole schema catalogue, 4-9 conditions, hardness 0.4.
func benchCorpus(n int) [][]byte {
	srcs := dataset.Generate(dataset.Config{
		Seed: 1, Sources: n, Schemas: dataset.AllSchemas, SampleSchemas: true,
		MinConds: 4, MaxConds: 9, Hardness: 0.4,
	})
	pages := make([][]byte, n)
	for i, s := range srcs {
		pages[i] = []byte(s.HTML)
	}
	return pages
}

// settledHeap returns the live heap after the pools (arena bundles, parse
// engines) have been shed: sync.Pool survives one GC in its victim cache,
// so two cycles leave only what something still references.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFrozenResultRetention guards what a cached result keeps resident.
// Results own only their exact-size tokens, their parse trees and their
// model — not the alive instances no tree reaches, a token arena block,
// the DOM, the render tree or the page bytes — so a frozen result must
// stay under a fixed retained-heap bound, and the cost the cache charges
// for it (Freeze's plus the cache's own entry) must be within 10 % of that
// measured retention (an undercount lets the cache overrun its budget, an
// overcount evicts for nothing).
func TestFrozenResultRetention(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pages [][]byte
		bound int64
	}{
		{"padded", paddedCorpus(t, 24), retainedBound},
		{"benchmark-shaped", benchCorpus(24), benchRetainedBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			retained, cost := frozenRetention(t, tc.pages)
			t.Logf("per frozen result: retained %d B, charged %d B", retained, cost)
			if retained > tc.bound {
				t.Errorf("a frozen result retains %d B, want <= %d", retained, tc.bound)
			}
			if d := cost - retained; 10*d > retained || -10*d > retained {
				t.Errorf("the cache charges %d B, not within 10%% of the %d B the result retains", cost, retained)
			}
		})
	}
}

// frozenRetention extracts every page through a cache and returns the heap
// one frozen result retains and the cost Freeze charged for it, both per
// page.
func frozenRetention(t *testing.T, pages [][]byte) (retained, cost int64) {
	t.Helper()
	c, err := formext.NewCache(formext.CacheConfig{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := formext.New(formext.Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := settledHeap()
	for _, page := range pages {
		// A private copy per request: a result that aliased its source
		// would keep the copy alive and show up in the measurement.
		if _, err := ex.ExtractBytes(ctx, append([]byte(nil), page...)); err != nil {
			t.Fatal(err)
		}
	}
	after := settledHeap()
	// Everything allocated before the baseline must stay live through the
	// second reading, or its collection would be subtracted from the
	// results' retention.
	runtime.KeepAlive(pages)
	runtime.KeepAlive(ex)
	st := c.Stats()
	if st.Entries != len(pages) {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, len(pages))
	}
	n := int64(len(pages))
	return int64(after-before) / n, st.Bytes / n
}

// TestPaddedExtractAllocationBudget guards the bytes one uncached extraction
// of a crawl-shaped padded page allocates. The DOM, layout and token arenas
// keep their blocks between extractions, so steady-state allocation is the
// result's exact-size tokens plus the parse itself — not a fresh DOM,
// render tree or token block per page. The collector is off across the
// warm-up and the measured rounds: a GC would shed the pooled engines and
// arenas, and re-allocating them would measure the GC's timing, not the
// code.
func TestPaddedExtractAllocationBudget(t *testing.T) {
	pages := paddedCorpus(t, 16)
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	extractAll := func() {
		for _, page := range pages {
			if _, err := ex.ExtractBytes(ctx, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	extractAll() // warm pools
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		extractAll()
	}
	runtime.ReadMemStats(&after)
	perExtract := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(pages))
	t.Logf("allocated per padded extraction: %d B", perExtract)
	if perExtract > allocatedBound {
		t.Errorf("a padded-page extraction allocates %d B, want <= %d", perExtract, allocatedBound)
	}
}
