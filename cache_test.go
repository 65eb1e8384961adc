package formext

// Facade-level tests of the content-addressed extraction cache: frozen
// results must survive concurrent readers under the race detector, a
// stampede of identical requests must run one extraction, cached answers
// must be byte-identical to fresh ones, failures must never poison a key,
// and the warm hit path must stay allocation-free apart from the
// caller-owned Result view.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"formext/internal/dataset"
)

func mustCache(t testing.TB, cfg CacheConfig) *Cache {
	t.Helper()
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 64 << 20
	}
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFrozenResultConcurrentReaders drives 16 goroutines over one shared
// frozen Result — tree walks with memoized text reads, JSON encoding of the
// model, token access, Explain — and relies on the race detector to prove
// the freeze left no lazy writes behind.
func TestFrozenResultConcurrentReaders(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(dataset.QamHTML)
	if err != nil {
		t.Fatal(err)
	}
	res.Freeze()
	if res.cost <= 0 {
		t.Fatalf("Freeze recorded cost %d, want > 0", res.cost)
	}

	const readers = 16
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, tr := range res.Trees {
					tr.Walk(func(in *Instance) bool {
						_ = in.Text()
						_ = in.NormText()
						return true
					})
					_ = tr.Dump()
				}
				if _, err := json.Marshal(res.Model); err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				for id := range res.Tokens {
					_ = res.Explain(id)
				}
				_ = res.Stats.Duration
			}
		}()
	}
	wg.Wait()
}

// TestCacheStampedeSingleExtraction gates the flight leader inside the
// first pipeline stage until 48 identical requests are in flight, then
// verifies exactly one extraction ran and every other caller was answered
// by the flight or the freshly cached entry.
func TestCacheStampedeSingleExtraction(t *testing.T) {
	var runs atomic.Int32
	release := make(chan struct{})
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "htmlparse" {
			runs.Add(1)
			<-release
		}
	}
	t.Cleanup(func() { stageHook = orig })

	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 48
	var started, done sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], errs[i] = ex.ExtractHTML(qamHTML)
		}(i)
	}
	started.Wait()
	// Give the non-leaders time to reach the flight wait before the leader
	// is released; stragglers that miss the flight hit the cache instead,
	// so the single-extraction property holds either way.
	time.Sleep(100 * time.Millisecond)
	close(release)
	done.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want 1", got, callers)
	}
	leaders := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil || len(results[i].Model.Conditions) != 5 {
			t.Fatalf("caller %d got a bad result", i)
		}
		if !results[i].Stats.CacheHit && !results[i].Stats.Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers report leading the extraction, want 1", leaders)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Errorf("hits(%d)+coalesced(%d) = %d, want %d", st.Hits, st.Coalesced,
			st.Hits+st.Coalesced, callers-1)
	}
	if st.Coalesced == 0 {
		t.Error("no caller coalesced onto the in-flight extraction")
	}
}

// resultJSON renders the externally visible extraction outcome (model,
// token strings, tree dumps) for differential comparison. Stats are
// excluded: timings and cache markers legitimately differ per request.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	var trees []string
	for _, tr := range res.Trees {
		trees = append(trees, tr.Dump())
	}
	var toks []string
	for _, tok := range res.Tokens {
		toks = append(toks, tok.String())
	}
	buf, err := json.Marshal(struct {
		Model  *SemanticModel
		Tokens []string
		Trees  []string
	}{res.Model, toks, trees})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestCachedExtractionDifferential proves cached and fresh extraction are
// observationally identical over the whole example corpus: the paper's two
// running examples plus every page of the Basic dataset.
func TestCachedExtractionDifferential(t *testing.T) {
	corpus := []string{qamHTML, qaaHTML, dataset.QamHTML, dataset.QaaHTML}
	for _, s := range dataset.Basic() {
		corpus = append(corpus, s.HTML)
	}

	fresh, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := New(Options{Cache: mustCache(t, CacheConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	for i, page := range corpus {
		fres, err := fresh.ExtractHTML(page)
		if err != nil {
			t.Fatalf("page %d fresh: %v", i, err)
		}
		want := resultJSON(t, fres)

		miss, err := cached.ExtractHTML(page)
		if err != nil {
			t.Fatalf("page %d miss: %v", i, err)
		}
		hit, err := cached.ExtractHTML(page)
		if err != nil {
			t.Fatalf("page %d hit: %v", i, err)
		}
		if !hit.Stats.CacheHit {
			t.Fatalf("page %d: second extraction was not a cache hit", i)
		}
		if got := resultJSON(t, miss); got != want {
			t.Errorf("page %d: miss result differs from fresh extraction", i)
		}
		if got := resultJSON(t, hit); got != want {
			t.Errorf("page %d: cached result differs from fresh extraction", i)
		}
	}
}

// TestCacheHitZeroesStageTimings pins the hit-view timing contract: a
// cache hit ran no pipeline stage, so its Stats.Stages must be zero —
// serving the canonical extraction's timings made every hit look as slow
// as the miss that populated it. The counter stats (tokens, merge output)
// still describe the shared artifacts and must survive on the hit view.
func TestCacheHitZeroesStageTimings(t *testing.T) {
	ex, err := New(Options{Cache: mustCache(t, CacheConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	miss, err := ex.ExtractHTML(dataset.QamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Stats.CacheHit {
		t.Fatal("first extraction reported a cache hit")
	}
	if miss.Stats.Stages.Parse == 0 || miss.Stats.Stages.HTMLParse == 0 {
		t.Fatalf("miss recorded no stage timings: %+v", miss.Stats.Stages)
	}
	hit, err := ex.ExtractHTML(dataset.QamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.CacheHit {
		t.Fatal("second extraction was not a cache hit")
	}
	if hit.Stats.Stages != (StageTimings{}) {
		t.Errorf("cache hit carried the canonical extraction's stage timings: %+v", hit.Stats.Stages)
	}
	if hit.Stats.Tokens != miss.Stats.Tokens || hit.Stats.Merge != miss.Stats.Merge {
		t.Errorf("hit view lost counter stats: tokens %d vs %d, merge %+v vs %+v",
			hit.Stats.Tokens, miss.Stats.Tokens, hit.Stats.Merge, miss.Stats.Merge)
	}
}

// TestExtractAllDeduplicatesIdenticalPages checks the batch fan-out
// contract: byte-identical pages extract once, every index gets its own
// Result struct (never an alias of the canonical one), duplicates carry the
// Coalesced marker, and the shared immutable parts are pointer-identical.
func TestExtractAllDeduplicatesIdenticalPages(t *testing.T) {
	var runs atomic.Int32
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "htmlparse" {
			runs.Add(1)
		}
	}
	t.Cleanup(func() { stageHook = orig })

	pageA := qamHTML
	pageB := qaaHTML
	pages := []string{pageA, pageB, pageA, pageA, pageB}
	results, err := ExtractAll(pages, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("pipeline ran %d times for 2 distinct pages, want 2", got)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("page %d: nil result", i)
		}
	}
	for _, dup := range []int{2, 3} {
		if !results[dup].Stats.Coalesced {
			t.Errorf("page %d: duplicate not marked Coalesced", dup)
		}
		if results[dup] == results[0] {
			t.Errorf("page %d aliases the canonical Result struct", dup)
		}
		if results[dup].Model != results[0].Model {
			t.Errorf("page %d does not share the canonical model", dup)
		}
		if results[dup].Stats.Duration != results[0].Stats.Duration {
			t.Errorf("page %d lost the shared extraction's timings", dup)
		}
	}
	if results[0].Stats.Coalesced || results[1].Stats.Coalesced {
		t.Error("canonical pages must not carry the Coalesced marker")
	}
	if !results[4].Stats.Coalesced || results[4].Model != results[1].Model {
		t.Error("page 4 must share page 1's extraction")
	}
	// Per-page Stats are independent structs: scribbling on a duplicate's
	// copy must not leak into the canonical result.
	results[2].Stats.Coalesced = false
	if !results[3].Stats.Coalesced {
		t.Error("duplicate Stats are aliased between pages")
	}
}

// TestExtractAllDuplicateOfFailedPage pins the failure half of the
// fan-out: when the canonical extraction fails, every duplicate reports the
// same error at its own index instead of silently vanishing.
func TestExtractAllDuplicateOfFailedPage(t *testing.T) {
	boom := errors.New("injected page failure")
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if src == "FAIL" {
			return nil, boom
		}
		return ex.ExtractHTMLContext(ctx, src)
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{"FAIL", qamHTML, "FAIL"}
	results, err := ExtractAll(pages, BatchOptions{})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Pages) != 2 || be.Pages[0].Page != 0 || be.Pages[1].Page != 2 {
		t.Fatalf("failed pages = %+v, want pages 0 and 2", be.Pages)
	}
	for _, pe := range be.Pages {
		if !errors.Is(pe.Err, boom) {
			t.Errorf("page %d error = %v, want the injected failure", pe.Page, pe.Err)
		}
	}
	if results[0] != nil || results[2] != nil || results[1] == nil {
		t.Error("results must be nil exactly at the failed indices")
	}
}

// TestCacheHitPathAllocations guards the hit path's allocation budget: a
// warm hit does no pipeline work and allocates nothing beyond the
// caller-owned Result view.
func TestCacheHitPathAllocations(t *testing.T) {
	ex, err := New(Options{Cache: mustCache(t, CacheConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExtractHTML(qamHTML); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ex.ExtractHTML(qamHTML); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation: the shared-result view returned to the caller.
	if allocs > 2 {
		t.Errorf("warm hit allocates %.1f objects per op, want <= 2", allocs)
	}
	st := ex.opts.Cache.Stats()
	if st.Hits == 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss and many hits", st)
	}
}

// TestCachePanicDoesNotPoisonKey injects a one-shot pipeline panic under a
// cache-enabled extractor: the panicking request gets its *PanicError, the
// key is not poisoned, and the retry extracts and caches normally.
func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	var arm atomic.Bool
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "parse" && arm.CompareAndSwap(true, false) {
			panic("injected cache-path fault")
		}
	}
	t.Cleanup(func() { stageHook = orig })

	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	_, err = ex.ExtractHTML(qamHTML)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("panicking extraction left %d cached entries", n)
	}
	res, err := ex.ExtractHTML(qamHTML)
	if err != nil || len(res.Model.Conditions) != 5 {
		t.Fatalf("retry after contained panic failed: %v", err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want two misses and one cached entry", st)
	}
}

// TestCacheBudgetDegradedNotCached pins the cacheability rule: a result cut
// short by the wall-clock parse budget describes this request's luck, not
// the page, and must never be served to a caller with more time.
func TestCacheBudgetDegradedNotCached(t *testing.T) {
	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c, ParseBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(3000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Degraded) == 0 {
		t.Fatal("budget expiry must record Degraded entries")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("budget-degraded result was cached: %+v", st)
	}
	// A second request must extract again, not inherit the cut-short model.
	if _, err := ex.ExtractHTML(widePage(3000)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want two misses and no hits", st)
	}
}

// TestCacheCancelledLeaderNotCached: a leader cancelled mid-extraction
// returns the cancellation to its own caller and leaves the key clean for
// the next request.
func TestCacheCancelledLeaderNotCached(t *testing.T) {
	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	// Small page: the uncancelled control extraction below runs in full.
	page := widePage(20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.ExtractHTMLContext(ctx, page); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("cancelled extraction left %d cached entries", n)
	}
	res, err := ex.ExtractHTML(page)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("fresh request after a cancelled one must not be a hit")
	}
}

// TestCacheKeySeparatesOptions: the same page under different extraction
// options must occupy different cache entries, while the defaulted and
// explicit spellings of the same configuration share one.
func TestCacheKeySeparatesOptions(t *testing.T) {
	c := mustCache(t, CacheConfig{})
	def, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := New(Options{Cache: c, MaxTokens: DefaultMaxTokens})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := New(Options{Cache: c, MaxTokens: 10})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := def.ExtractHTML(qamHTML); err != nil {
		t.Fatal(err)
	}
	res, err := explicit.ExtractHTML(qamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("explicit default MaxTokens must share the defaulted entry")
	}
	res, err = capped.ExtractHTML(qamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("a capped extraction must not be served the uncapped result")
	}
	if len(res.Tokens) > 10 {
		t.Errorf("capped extraction returned %d tokens", len(res.Tokens))
	}
}

// TestCacheSharedAcrossPoolAndExtractor: one Cache serves any number of
// extractors built with equivalent options; an extraction through one is a
// hit through another.
func TestCacheSharedAcrossPoolAndExtractor(t *testing.T) {
	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExtractHTML(qaaHTML); err != nil {
		t.Fatal(err)
	}
	res, err := other.ExtractHTML(qaaHTML)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Error("a second extractor must hit the entry the first one cached")
	}
	if fmt.Sprint(res.Model.Conditions) == "" {
		t.Error("shared result lost its model")
	}
}
