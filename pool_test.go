package formext_test

import (
	"sync"
	"testing"

	"formext"

	"formext/internal/dataset"
)

// Pool and NewPool survive as deprecated aliases of Extractor and New;
// these tests keep the alias surface honest for callers that still use it.

func TestPoolRejectsInvalidOptions(t *testing.T) {
	if _, err := formext.NewPool(formext.Options{GrammarSource: "start Nope;"}); err == nil {
		t.Error("invalid grammar must fail NewPool")
	}
	if _, err := formext.NewPool(formext.Options{}, formext.Options{}); err == nil {
		t.Error("two Options values must fail NewPool")
	}
}

func TestPoolConcurrentExtract(t *testing.T) {
	// The serving pattern through the alias: many goroutines sharing the
	// one Extractor NewPool returns. Run under -race by the tier-1 target.
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := pool.ExtractHTML(dataset.QamHTML)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Model.Conditions) == 0 {
					t.Error("pooled extraction returned no conditions")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
