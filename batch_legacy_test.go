package formext

// extractAllLegacy is the pre-streaming ExtractAll implementation (fixed
// jobs channel sized to the batch, workers appending into a shared slice),
// preserved as the differential oracle for the ExtractStream
// collect-wrapper: on any input the rewrite must produce byte-identical
// models, the same nil entries, and the same error accounting. It lives in
// a test file so the shipped package carries exactly one batch path. Its
// workers share one Extractor, as the shipped path's do.

import (
	"context"
	"runtime"
	"sort"
	"sync"
)

func extractAllLegacy(pages []string, opt BatchOptions) ([]*Result, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	canon := make(map[string]int, len(pages))
	uniq := make([]int, 0, len(pages))
	var dups []int
	for i, p := range pages {
		if _, ok := canon[p]; ok {
			dups = append(dups, i)
			continue
		}
		canon[p] = i
		uniq = append(uniq, i)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(uniq) {
		workers = len(uniq)
	}
	ex, err := New(opt.Options)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(pages))
	jobs := make(chan int, len(uniq))
	for _, i := range uniq {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		pageErrs []PageError
	)
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if cerr := ctx.Err(); cerr != nil {
					mu.Lock()
					pageErrs = append(pageErrs, PageError{Page: i, Err: cerr})
					mu.Unlock()
					continue
				}
				res, err := safeExtractPage(ctx, ex, pages[i])
				if err != nil {
					pe := PageError{Page: i, Err: err}
					if res != nil {
						pe.Stats = res.Stats
					}
					mu.Lock()
					pageErrs = append(pageErrs, pe)
					mu.Unlock()
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()

	if len(dups) > 0 {
		errByPage := make(map[int]PageError, len(pageErrs))
		for _, pe := range pageErrs {
			errByPage[pe.Page] = pe
		}
		for _, i := range dups {
			c := canon[pages[i]]
			if res := results[c]; res != nil {
				results[i] = res.Freeze().share(false, true, "")
				continue
			}
			if pe, ok := errByPage[c]; ok {
				pageErrs = append(pageErrs, PageError{Page: i, Err: pe.Err, Stats: pe.Stats})
			}
		}
	}

	if len(pageErrs) > 0 {
		sort.Slice(pageErrs, func(i, j int) bool { return pageErrs[i].Page < pageErrs[j].Page })
		return results, &BatchError{Pages: pageErrs}
	}
	return results, nil
}
