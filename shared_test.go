package formext

import (
	"sync"
	"testing"

	"formext/internal/dataset"
)

// TestSharedExtractorConcurrentUse is the guard behind serving every
// request through one Extractor: eight goroutines run the example corpus
// through a single extractor at once — without and with a cache — and
// every model must equal the sequential reference. Run under -race by the
// tier-1 target.
func TestSharedExtractorConcurrentUse(t *testing.T) {
	corpus := []string{qamHTML, qaaHTML, dataset.QamHTML, dataset.QaaHTML}
	for _, s := range dataset.NewSource() {
		corpus = append(corpus, s.HTML)
	}
	ref, err := New()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(corpus))
	for i, page := range corpus {
		res, err := ref.ExtractHTML(page)
		if err != nil {
			t.Fatalf("page %d reference: %v", i, err)
		}
		want[i] = resultJSON(t, res)
	}

	for _, cached := range []bool{false, true} {
		var opts Options
		if cached {
			opts.Cache = mustCache(t, CacheConfig{})
		}
		ex, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*len(corpus))
		got := make([][]string, goroutines)
		for g := 0; g < goroutines; g++ {
			got[g] = make([]string, len(corpus))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine walks the corpus from its own offset, so
				// distinct and identical pages overlap in flight.
				for k := range corpus {
					i := (k + g) % len(corpus)
					res, err := ex.ExtractHTML(corpus[i])
					if err != nil {
						errs <- err
						return
					}
					got[g][i] = resultJSON(t, res)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("cached=%v: concurrent extract: %v", cached, err)
		}
		for g := range got {
			for i := range corpus {
				if got[g][i] != want[i] {
					t.Errorf("cached=%v goroutine %d page %d: result differs from the sequential reference", cached, g, i)
				}
			}
		}
	}
}
