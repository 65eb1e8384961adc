package formext

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// BatchOptions configures ExtractAll.
type BatchOptions struct {
	// Options configure the one Extractor every worker shares.
	Options Options
	// Workers is the number of concurrent extractors (default: GOMAXPROCS).
	Workers int
	// Context, when non-nil, cancels the whole batch: in-flight extractions
	// are cut short (their partial results reported as page errors wrapping
	// the context's error) and pages not yet started fail immediately with
	// the same error. Nil means the batch runs to completion.
	Context context.Context
}

// PageError reports the failure of one page in a batch.
type PageError struct {
	// Page is the index of the failed page in the input slice.
	Page int
	// Err is the underlying extraction error.
	Err error
	// Stats carries the observability snapshot accumulated before the
	// failure — in particular the per-stage wall times of the stages that
	// did run — so a failed page in a crawl is diagnosable without
	// re-extracting it. It is zero when the failure preceded the pipeline:
	// a page the batch cancellation failed before its extraction started.
	// A page cancelled mid-extraction instead carries the partial Stats
	// (stage timings, parser counters, Degraded entries) accumulated up to
	// the checkpoint that observed the cancellation.
	Stats Stats
}

func (e *PageError) Error() string { return fmt.Sprintf("page %d: %v", e.Page, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PageError) Unwrap() error { return e.Err }

// BatchError aggregates the per-page failures of one ExtractAll call. The
// pages it names are exactly the nil entries of the returned results, each
// named exactly once; every other page was extracted successfully.
type BatchError struct {
	// Pages lists the failed pages in ascending page order.
	Pages []PageError
}

func (e *BatchError) Error() string {
	if len(e.Pages) == 1 {
		return e.Pages[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d pages failed: ", len(e.Pages))
	for i := range e.Pages {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.Pages[i].Error())
	}
	return b.String()
}

// extractPage is the per-page extraction the stream workers run; a package
// variable so tests can inject per-page failures (the real pipeline is
// total and never fails on well-formed configurations).
var extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
	return ex.ExtractBytes(ctx, viewBytes(src))
}

// safeExtractPage runs one page with a worker-local panic boundary: a panic
// that escapes the extractor's own containment (or an injected fault)
// becomes a *PanicError instead of killing the worker goroutine — and with
// it the process.
func safeExtractPage(ctx context.Context, ex *Extractor, src string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return extractPage(ctx, ex, src)
}

// ExtractAll extracts every page concurrently and returns the results in
// input order. It is a collect wrapper over ExtractStream — the unique
// pages are fed through the streaming pipeline and reassembled by arrival
// index — so the two paths share workers, the one shared Extractor,
// containment and caching; ExtractAll is the fixed-slice convenience,
// ExtractStream the crawl-scale entry point the paper's integration
// scenario needs (10^5 sources, Section 1).
//
// Byte-identical pages are extracted once per batch: the first occurrence
// is the canonical extraction, and every later duplicate receives its own
// Result view of the canonical page's frozen trees and model at the
// duplicate's original index, with Stats.Coalesced set on the duplicate
// entries. With Options.Cache set, workers additionally consult the cache,
// so identical pages across batches (or concurrent with server traffic
// sharing the cache) also extract once.
//
// Configuration problems (an invalid grammar, for instance) fail the whole
// batch up front with nil results. After that, the results slice is always
// returned in full: a page that fails to extract leaves a nil entry and is
// reported in a *BatchError naming exactly the nil entries, each exactly
// once, while all other pages keep their results. With the default
// pipeline individual pages never fail, so the error is nil in normal
// operation.
func ExtractAll(pages []string, opt BatchOptions) ([]*Result, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	// Validates the configuration once, up front; the extractor it builds
	// is the one every stream worker shares.
	ex, err := New(opt.Options)
	if err != nil {
		return nil, err
	}
	// In-batch deduplication: the first index holding each distinct page
	// string is canonical and is the only one streamed; duplicates fan out
	// from the canonical outcome after the stream closes. (The stream
	// coalesces in-flight duplicates on its own, but batch dedup is total:
	// a duplicate arriving after its canonical completed must coalesce too,
	// and the batch holds every page in memory anyway.)
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
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}

	// Feed the unique pages through the streaming pipeline. The feeder
	// stops when the batch context ends; the stream then drains and closes
	// its output, and every page it never reported is charged the context
	// error in one append pass below — no per-page lock traffic on the
	// cancellation path.
	in := make(chan Page)
	go func() {
		defer close(in)
		done := ctx.Done()
		for _, idx := range uniq {
			select {
			case in <- Page{HTML: pages[idx]}:
			case <-done:
				return
			}
		}
	}()
	out := extractStream(ctx, in, StreamOptions{
		Workers:     workers,
		MaxInFlight: 2 * workers,
	}, ex)

	results := make([]*Result, len(pages))
	var pageErrs []PageError
	reported := make([]bool, len(uniq))
	for pr := range out {
		idx := uniq[pr.Seq]
		reported[pr.Seq] = true
		if pr.Err != nil {
			pe := PageError{Page: idx, Err: pr.Err}
			if pr.Result != nil {
				pe.Stats = pr.Result.Stats
			}
			pageErrs = append(pageErrs, pe)
			continue
		}
		results[idx] = pr.Result
	}
	// Pages the stream never reported — not fed before the cancellation, or
	// shed after it — are failures too: every nil results entry must be
	// accounted for, exactly once. Without a cancellation the stream
	// reports every page, so the fallback error can only surface on a
	// stream bug, never silently.
	var unreported error
	for k, ok := range reported {
		if ok {
			continue
		}
		if unreported == nil {
			if unreported = ctx.Err(); unreported == nil {
				unreported = errors.New("formext: internal: stream lost a page result")
			}
		}
		pageErrs = append(pageErrs, PageError{Page: uniq[k], Err: unreported})
	}

	// Duplicate fan-out: each duplicate page gets a caller-owned Result
	// view of its canonical page's frozen trees (marked Coalesced — never
	// an aliased mutable struct), or a copy of the canonical failure. This
	// runs after the stream has closed, so the Freeze here happens-before
	// any caller reads the shared graph. Every canonical page holds exactly
	// one outcome by now — a result or a PageError — so the replication
	// below can never double-charge an index.
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
			pe, ok := errByPage[c]
			if !ok {
				pe = PageError{Err: errors.New("formext: internal: canonical page unaccounted")}
			}
			pageErrs = append(pageErrs, PageError{Page: i, Err: pe.Err, Stats: pe.Stats})
		}
	}

	if len(pageErrs) > 0 {
		sort.Slice(pageErrs, func(i, j int) bool { return pageErrs[i].Page < pageErrs[j].Page })
		return results, &BatchError{Pages: pageErrs}
	}
	return results, nil
}
