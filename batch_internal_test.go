package formext

// Regression tests for the batch path's failure accounting, written against
// the package internals so they can inject failures the total pipeline
// never produces on its own:
//
//   - the partial-results contract violation: any per-page error discarded
//     every completed result and returned nil, despite the doc comment's
//     promise that individual pages never fail;
//   - worker stranding: a failure on one page must cost that page alone,
//     never the pages queued behind it on the same worker.

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestExtractAllReturnsPartialResultsOnPageError(t *testing.T) {
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if src == "FAIL" {
			return nil, errors.New("injected page failure")
		}
		return ex.ExtractHTML(src)
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{
		"<form>A <input type=text name=a></form>",
		"FAIL",
		"<form>C <input type=text name=c></form>",
		"FAIL",
		"<form>E <input type=text name=e></form>",
	}
	res, err := ExtractAll(pages, BatchOptions{Workers: 3})
	if err == nil {
		t.Fatal("want a *BatchError for the failed pages")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error type = %T, want *BatchError", err)
	}
	if len(be.Pages) != 2 || be.Pages[0].Page != 1 || be.Pages[1].Page != 3 {
		t.Fatalf("failed pages = %+v, want pages 1 and 3", be.Pages)
	}
	for _, pe := range be.Pages {
		if pe.Err == nil || !errors.Is(&pe, pe.Err) {
			t.Errorf("page %d: unwrap broken: %v", pe.Page, pe.Err)
		}
	}
	// The completed pages must survive the error (seed returned nil).
	if len(res) != len(pages) {
		t.Fatalf("results = %d, want %d (partial results, not nil)", len(res), len(pages))
	}
	for i, r := range res {
		failed := pages[i] == "FAIL"
		if failed && r != nil {
			t.Errorf("page %d: result for failed page", i)
		}
		if !failed && r == nil {
			t.Errorf("page %d: completed result discarded", i)
		}
	}
}

// TestExtractAllPanickingPageCostsOnlyItself is the regression test for
// worker stranding: a worker that gave up after a failure would charge
// every page it had yet to draw an error — with Workers=1, the whole rest
// of the batch. Here the single worker's first page panics, and every page
// behind it must still succeed on the same shared extractor.
func TestExtractAllPanickingPageCostsOnlyItself(t *testing.T) {
	origExtract := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "PANIC") {
			panic("injected page panic")
		}
		return ex.ExtractHTML(src)
	}
	t.Cleanup(func() { extractPage = origExtract })

	pages := []string{
		"<form>PANIC <input type=text name=p></form>",
		"<form>B <input type=text name=b></form>",
		"<form>C <input type=text name=c></form>",
		"<form>D <input type=text name=d></form>",
	}
	res, err := ExtractAll(pages, BatchOptions{Workers: 1})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a BatchError naming only the panicked page", err)
	}
	if len(be.Pages) != 1 || be.Pages[0].Page != 0 {
		t.Fatalf("failed pages = %+v, want exactly page 0 (the stranded-worker bug charges 1..3 too)", be.Pages)
	}
	var pe *PanicError
	if !errors.As(be.Pages[0].Err, &pe) {
		t.Fatalf("page 0 error = %v, want a *PanicError", be.Pages[0].Err)
	}
	for i := 1; i < len(pages); i++ {
		if res[i] == nil {
			t.Errorf("page %d lost behind the panicking page", i)
		}
	}
}

// TestExtractAllPageErrorCarriesStageTimings is the regression test for
// the batch-diagnosability contract: a failed page's PageError must carry
// the observability snapshot accumulated before the failure, so a crawl
// can report where a bad page spent its time without re-extracting it.
// The injected failure returns the partial Result an uncached extraction
// guarantees, exactly as the pipeline does on a mid-pipeline error.
func TestExtractAllPageErrorCarriesStageTimings(t *testing.T) {
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		res, err := ex.ExtractHTMLContext(ctx, src)
		if err != nil {
			return res, err
		}
		if strings.Contains(src, "doomed") {
			return res, errors.New("injected post-pipeline failure")
		}
		return res, nil
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{
		"<form>A <input type=text name=a></form>",
		"<form>doomed <input type=text name=b></form>",
	}
	res, err := ExtractAll(pages, BatchOptions{Workers: 2})
	var be *BatchError
	if !errors.As(err, &be) || len(be.Pages) != 1 {
		t.Fatalf("err = %v, want a BatchError with one failed page", err)
	}
	pe := be.Pages[0]
	if pe.Page != 1 {
		t.Fatalf("failed page = %d, want 1", pe.Page)
	}
	st := pe.Stats.Stages
	if st.HTMLParse == 0 || st.Layout == 0 || st.Tokenize == 0 || st.Parse == 0 {
		t.Errorf("PageError.Stats.Stages missing timings: %s", st)
	}
	if pe.Stats.TotalCreated == 0 || pe.Stats.FixpointIters == 0 {
		t.Errorf("PageError.Stats parser counters empty: created=%d iters=%d",
			pe.Stats.TotalCreated, pe.Stats.FixpointIters)
	}
	if res[0] == nil || res[1] != nil {
		t.Errorf("partial results wrong: %v", res)
	}
}
