package formext

// ExtractStream contract tests: the admission bound (in-flight pages never
// exceed MaxInFlight, even against a slow consumer), backpressure (a
// producer outrunning the stream blocks on its own send), completion-order
// emission, in-flight duplicate coalescing, cancellation wind-down, the
// invalid-configuration path, and the differential gate proving the
// ExtractAll collect-wrapper matches both a manual stream collection and
// the pre-streaming legacy implementation.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"formext/internal/dataset"
)

// streamPages feeds the given pages into a fresh input channel from a
// goroutine and returns it; the channel closes after the last page.
func streamPages(pages []string) <-chan Page {
	in := make(chan Page, 0)
	go func() {
		defer close(in)
		for i, p := range pages {
			in <- Page{ID: fmt.Sprintf("p%03d", i), HTML: p}
		}
	}()
	return in
}

// collectStream drains a result channel into a map keyed by Seq.
func collectStream(t *testing.T, out <-chan PageResult) map[int]PageResult {
	t.Helper()
	got := make(map[int]PageResult)
	for pr := range out {
		if _, dup := got[pr.Seq]; dup {
			t.Fatalf("seq %d delivered twice", pr.Seq)
		}
		got[pr.Seq] = pr
	}
	return got
}

// TestExtractStreamBoundedInFlightSlowConsumer is the memory-ceiling
// acceptance test: with a consumer far slower than the workers, the number
// of admitted-but-undelivered pages must never exceed MaxInFlight (read
// exactly from the stream's own gauge), extraction concurrency must never
// exceed Workers, and every page must still be delivered exactly once.
func TestExtractStreamBoundedInFlightSlowConsumer(t *testing.T) {
	var cur, peak atomic.Int64
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	const n, workers, bound = 64, 4, 8
	pages := make([]string, n)
	for i := range pages {
		pages[i] = fmt.Sprintf("<form>Field%02d <input type=text name=f%d></form>", i, i)
	}
	gauge := &StreamGauge{}
	out := ExtractStream(context.Background(), streamPages(pages),
		StreamOptions{Workers: workers, MaxInFlight: bound, Gauge: gauge})

	delivered := 0
	for pr := range out {
		if fl := gauge.InFlight(); fl > bound {
			t.Fatalf("in-flight pages = %d, bound %d", fl, bound)
		}
		if pr.Err != nil {
			t.Fatalf("seq %d: %v", pr.Seq, pr.Err)
		}
		delivered++
		time.Sleep(time.Millisecond) // the consumer lags the workers
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d pages", delivered, n)
	}
	if p := gauge.Peak(); p > bound {
		t.Errorf("peak in-flight = %d, bound %d", p, bound)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("extraction concurrency peaked at %d, Workers %d", p, workers)
	}
}

// TestExtractStreamProducerBlocks pins backpressure at the producer: with
// nobody consuming results, the stream must stop reading the input channel
// once MaxInFlight pages are admitted, leaving the producer blocked on its
// own send — and releasing it once the consumer drains.
func TestExtractStreamProducerBlocks(t *testing.T) {
	const n, bound = 10, 2
	var fed atomic.Int64
	in := make(chan Page)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- Page{HTML: "<form>A <input type=text name=a></form>"}
			fed.Add(1)
		}
	}()
	out := ExtractStream(context.Background(), in,
		StreamOptions{Workers: 1, MaxInFlight: bound})

	// Admission must stall at the bound: poll until the fed count is stable,
	// then verify it never passed MaxInFlight.
	settled := fed.Load()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		if now := fed.Load(); now != settled {
			settled, i = now, 0
		}
	}
	if settled > bound {
		t.Fatalf("producer fed %d pages with no consumer, bound %d", settled, bound)
	}

	// Draining the output releases the producer and completes the stream.
	got := collectStream(t, out)
	if len(got) != n {
		t.Fatalf("delivered %d of %d pages after drain", len(got), n)
	}
	if fed.Load() != n {
		t.Fatalf("producer fed %d of %d pages after drain", fed.Load(), n)
	}
}

// TestExtractStreamEmitsAsCompleted proves results stream out as each page
// finishes rather than waiting on a batch barrier: a fast page fed after a
// deliberately stalled one must be delivered first.
func TestExtractStreamEmitsAsCompleted(t *testing.T) {
	release := make(chan struct{})
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "slow") {
			<-release
		}
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{
		"<form>slow <input type=text name=s></form>",
		"<form>fast <input type=text name=f></form>",
	}
	out := ExtractStream(context.Background(), streamPages(pages),
		StreamOptions{Workers: 2, MaxInFlight: 4})

	first := <-out
	if first.Seq != 1 {
		t.Fatalf("first delivery was seq %d, want the fast page (1)", first.Seq)
	}
	close(release)
	second := <-out
	if second.Seq != 0 || second.Err != nil {
		t.Fatalf("second delivery = seq %d err %v, want the slow page", second.Seq, second.Err)
	}
	if _, open := <-out; open {
		t.Fatal("stream did not close after the last page")
	}
}

// TestExtractStreamCoalescesInFlightDuplicates checks streaming dedup:
// byte-identical pages admitted while the first is still extracting wait on
// the in-flight canonical instead of re-extracting, share its frozen model,
// and carry the Coalesced marker.
func TestExtractStreamCoalescesInFlightDuplicates(t *testing.T) {
	var runs atomic.Int32
	gate := make(chan struct{})
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		runs.Add(1)
		<-gate
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	// Feed through an unbuffered channel so admissions sequence the test:
	// the admitter dispatches page k before reading page k+1, so once the
	// send of the sentinel page returns, both duplicates are attached to the
	// canonical's flight — which is pinned at the gate and cannot resolve
	// early.
	page := qamHTML
	sentinel := "<form>sentinel <input type=text name=z></form>"
	in := make(chan Page)
	out := ExtractStream(context.Background(), in,
		StreamOptions{Workers: 1, MaxInFlight: 4})
	for _, p := range []string{page, page, page, sentinel} {
		in <- Page{HTML: p}
	}
	close(in)
	close(gate)
	got := collectStream(t, out)
	if len(got) != 4 {
		t.Fatalf("delivered %d of 4 pages", len(got))
	}
	// One run for the canonical, one for the sentinel; the duplicates ran
	// nothing.
	if n := runs.Load(); n != 2 {
		t.Fatalf("pipeline ran %d times for 3 identical pages + sentinel, want 2", n)
	}
	canonical := got[0]
	if canonical.Err != nil || canonical.Result == nil || canonical.Result.Stats.Coalesced {
		t.Fatalf("canonical outcome wrong: %+v", canonical)
	}
	for _, seq := range []int{1, 2} {
		dup := got[seq]
		if dup.Err != nil || dup.Result == nil {
			t.Fatalf("duplicate seq %d failed: %v", seq, dup.Err)
		}
		if !dup.Result.Stats.Coalesced {
			t.Errorf("duplicate seq %d not marked Coalesced", seq)
		}
		if dup.Result == canonical.Result {
			t.Errorf("duplicate seq %d aliases the canonical Result struct", seq)
		}
		if dup.Result.Model != canonical.Result.Model {
			t.Errorf("duplicate seq %d does not share the canonical model", seq)
		}
	}
}

// TestExtractStreamDuplicateOfFailedFlight pins the failure half of
// streaming dedup: a duplicate waiting on a canonical that fails receives
// the canonical's error at its own Seq.
func TestExtractStreamDuplicateOfFailedFlight(t *testing.T) {
	boom := errors.New("injected canonical failure")
	var runs atomic.Int32
	gate := make(chan struct{})
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		runs.Add(1)
		<-gate
		return nil, boom
	}
	t.Cleanup(func() { extractPage = orig })

	// Same admission sequencing as the success-path dedup test: both copies
	// are attached to the flight before the gate opens.
	page := "<form>doomed <input type=text name=d></form>"
	in := make(chan Page)
	out := ExtractStream(context.Background(), in,
		StreamOptions{Workers: 1, MaxInFlight: 4})
	in <- Page{HTML: page}
	in <- Page{HTML: page}
	// Sentinel: its send returns only after the duplicate's dispatch ran, so
	// the waiter is attached before the gate opens.
	in <- Page{HTML: "<form>sentinel <input type=text name=z></form>"}
	close(in)
	close(gate)
	got := collectStream(t, out)
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3 pages", len(got))
	}
	// Canonical and sentinel each ran once; the duplicate waited.
	if n := runs.Load(); n != 2 {
		t.Fatalf("pipeline ran %d times for 2 identical pages + sentinel, want 2", n)
	}
	for seq, pr := range got {
		if !errors.Is(pr.Err, boom) {
			t.Errorf("seq %d error = %v, want the injected failure", seq, pr.Err)
		}
	}
}

// TestExtractStreamCancellation verifies wind-down: cancelling the stream
// context stops admission, fails or sheds the remainder promptly, and
// closes the output channel instead of wedging.
func TestExtractStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Page)
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- Page{HTML: fmt.Sprintf("<form>F%d <input type=text name=f%d></form>", i, i)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := ExtractStream(ctx, in, StreamOptions{Workers: 2, MaxInFlight: 4})

	// Take a few successful results, then cancel mid-stream.
	for i := 0; i < 3; i++ {
		if pr := <-out; pr.Err != nil {
			t.Fatalf("pre-cancel result %d failed: %v", i, pr.Err)
		}
	}
	cancel()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case pr, open := <-out:
			if !open {
				<-feederDone
				return
			}
			if pr.Err != nil && !errors.Is(pr.Err, context.Canceled) {
				t.Errorf("post-cancel seq %d error = %v, want context.Canceled", pr.Seq, pr.Err)
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

// TestExtractStreamInvalidConfiguration: with a malformed grammar there is
// no error return to deliver up front, so every admitted page must carry
// the construction error and the stream must still terminate.
func TestExtractStreamInvalidConfiguration(t *testing.T) {
	pages := []string{"<p>a", "<p>b", "<p>c"}
	out := ExtractStream(context.Background(), streamPages(pages), StreamOptions{
		Options: Options{GrammarSource: "terminals text; start Broken;"},
	})
	got := collectStream(t, out)
	if len(got) != len(pages) {
		t.Fatalf("delivered %d of %d pages", len(got), len(pages))
	}
	for seq, pr := range got {
		if pr.Err == nil || pr.Result != nil {
			t.Errorf("seq %d: want a construction error and no result, got %v / %v",
				seq, pr.Err, pr.Result)
		}
	}
}

// TestExtractStreamSoak runs a larger corpus through the stream under the
// race detector (tier-1 runs with -race): every page delivered exactly
// once, in-flight bound held, models matching a sequential extraction.
func TestExtractStreamSoak(t *testing.T) {
	srcs := dataset.Generate(dataset.Config{
		Seed: 71, Sources: 120, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: 5, Hardness: 0.2, SampleSchemas: true,
	})
	pages := make([]string, len(srcs))
	for i, s := range srcs {
		pages[i] = s.HTML
	}
	gauge := &StreamGauge{}
	const bound = 8
	out := ExtractStream(context.Background(), streamPages(pages),
		StreamOptions{Workers: 4, MaxInFlight: bound, Gauge: gauge})
	got := collectStream(t, out)
	if len(got) != len(pages) {
		t.Fatalf("delivered %d of %d pages", len(got), len(pages))
	}
	if p := gauge.Peak(); p > bound {
		t.Errorf("peak in-flight = %d, bound %d", p, bound)
	}
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for seq, pr := range got {
		if pr.Err != nil {
			t.Fatalf("seq %d failed: %v", seq, pr.Err)
		}
		seqRes, err := ex.ExtractHTML(pages[seq])
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, pr.Result) != resultJSON(t, seqRes) {
			t.Errorf("seq %d: streamed result differs from sequential extraction", seq)
		}
	}
}

// TestExtractAllDifferentialAgainstStream proves the collect-wrapper and a
// manual ExtractStream collection agree over the example corpus, duplicate
// fan-out included.
func TestExtractAllDifferentialAgainstStream(t *testing.T) {
	srcs := dataset.NewSource()
	var pages []string
	for _, s := range srcs {
		pages = append(pages, s.HTML)
	}
	pages = append(pages, pages[0], pages[3], "") // duplicates and an empty page

	batch, err := ExtractAll(pages, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	streamed := make([]*Result, len(pages))
	out := ExtractStream(context.Background(), streamPages(pages),
		StreamOptions{Workers: 4})
	for pr := range out {
		if pr.Err != nil {
			t.Fatalf("seq %d failed: %v", pr.Seq, pr.Err)
		}
		streamed[pr.Seq] = pr.Result
	}
	for i := range pages {
		if batch[i] == nil || streamed[i] == nil {
			t.Fatalf("page %d missing (batch %v, stream %v)", i, batch[i], streamed[i])
		}
		if resultJSON(t, batch[i]) != resultJSON(t, streamed[i]) {
			t.Errorf("page %d: ExtractAll and ExtractStream results differ", i)
		}
	}
}

// TestExtractAllDifferentialAgainstLegacy is the refactor gate: the
// streaming collect-wrapper must match the pre-streaming implementation —
// byte-identical models, identical nil entries, identical error accounting
// — over the example corpus with duplicates and injected per-page failures.
func TestExtractAllDifferentialAgainstLegacy(t *testing.T) {
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "FAILPAGE") {
			return nil, errors.New("injected failure: FAILPAGE")
		}
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	srcs := dataset.NewSource()
	var pages []string
	for _, s := range srcs[:12] {
		pages = append(pages, s.HTML)
	}
	// Duplicates, a failing page, a duplicate of the failing page, an empty
	// page — the accounting corners in one corpus.
	pages = append(pages, pages[2], "<form>FAILPAGE</form>", pages[5], "<form>FAILPAGE</form>", "")

	for _, workers := range []int{1, 4} {
		newRes, newErr := ExtractAll(pages, BatchOptions{Workers: workers})
		oldRes, oldErr := extractAllLegacy(pages, BatchOptions{Workers: workers})
		if len(newRes) != len(oldRes) {
			t.Fatalf("workers=%d: result lengths differ: %d vs %d", workers, len(newRes), len(oldRes))
		}
		for i := range pages {
			if (newRes[i] == nil) != (oldRes[i] == nil) {
				t.Errorf("workers=%d page %d: nil-ness differs (new nil=%v, legacy nil=%v)",
					workers, i, newRes[i] == nil, oldRes[i] == nil)
				continue
			}
			if newRes[i] == nil {
				continue
			}
			if resultJSON(t, newRes[i]) != resultJSON(t, oldRes[i]) {
				t.Errorf("workers=%d page %d: results differ from legacy", workers, i)
			}
			if newRes[i].Stats.Coalesced != oldRes[i].Stats.Coalesced {
				t.Errorf("workers=%d page %d: Coalesced marker differs", workers, i)
			}
		}
		newPE, oldPE := batchErrorPages(t, newErr), batchErrorPages(t, oldErr)
		if len(newPE) != len(oldPE) {
			t.Fatalf("workers=%d: failed-page counts differ: %v vs %v", workers, newPE, oldPE)
		}
		for i := range newPE {
			if newPE[i].Page != oldPE[i].Page || newPE[i].Err.Error() != oldPE[i].Err.Error() {
				t.Errorf("workers=%d failure %d differs: new %v, legacy %v",
					workers, i, &newPE[i], &oldPE[i])
			}
		}
	}
}

// batchErrorPages unwraps a batch error into its page list (nil error →
// empty list); any other error type fails the test.
func batchErrorPages(t *testing.T, err error) []PageError {
	t.Helper()
	if err == nil {
		return nil
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error type = %T, want *BatchError", err)
	}
	return be.Pages
}
