package formext

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Page is one unit of streaming extraction input.
type Page struct {
	// ID is an optional caller-chosen identifier (a URL, a file path, a
	// crawl sequence number), echoed verbatim on the page's PageResult.
	ID string
	// HTML is the page source to extract.
	HTML string
}

// PageResult is the outcome of one streamed page.
type PageResult struct {
	// ID echoes the Page's ID.
	ID string
	// Seq is the page's arrival index on the input channel (0-based).
	// Results are emitted in completion order, not Seq order; callers that
	// need input order re-associate by Seq, as ExtractAll does.
	Seq int
	// Result is the extraction outcome; never nil on success. When Err is
	// non-nil it may still be non-nil, carrying the partial result (tokens,
	// stage timings, parser counters) accumulated before the failure, with
	// the same semantics as Extractor.ExtractHTMLContext. A page that waited
	// on a failed in-flight duplicate gets the canonical error with a nil
	// Result: the canonical's partial result is mutable and owned by the
	// canonical's receiver, so it cannot be shared.
	Result *Result
	// Err is the page's extraction error (nil on success).
	Err error
}

// StreamGauge observes a stream's in-flight page count from outside: attach
// one with StreamOptions.Gauge and read InFlight/Peak while the stream
// runs. cmd/formcrawl uses it to prove the admission bound held over a
// whole crawl (the ledger reports the peak as stream.peak_inflight).
type StreamGauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// add moves the gauge and maintains the high-water mark; nil-safe so the
// stream can call it unconditionally.
func (g *StreamGauge) add(d int64) {
	if g == nil {
		return
	}
	n := g.cur.Add(d)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Inc moves the gauge up by one. Together with Dec it lets serving layers
// track request concurrency with the same gauge the stream uses — formserve
// wraps each in-flight extraction in an Inc/Dec pair and publishes
// live/peak at /metrics.
func (g *StreamGauge) Inc() { g.add(1) }

// Dec moves the gauge down by one; see Inc.
func (g *StreamGauge) Dec() { g.add(-1) }

// InFlight returns the number of pages currently admitted but not yet
// delivered.
func (g *StreamGauge) InFlight() int64 { return g.cur.Load() }

// Peak returns the highest in-flight count observed so far.
func (g *StreamGauge) Peak() int64 { return g.peak.Load() }

// StreamOptions configures ExtractStream.
type StreamOptions struct {
	// Options configure the one Extractor every worker shares; they
	// compose with streaming exactly as with ExtractAll (Options.Cache with
	// singleflight, containment budgets, Tracer spans).
	Options Options
	// Workers is the number of concurrent extractions (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds the number of pages admitted from the input
	// channel but not yet delivered on the output channel — the streaming
	// memory ceiling. While every slot is occupied the stream stops reading
	// the input channel, so backpressure propagates to the producer through
	// the channel itself. Clamped to at least Workers; default 2×Workers.
	MaxInFlight int
	// Gauge, when non-nil, tracks the in-flight count (see StreamGauge).
	Gauge *StreamGauge
}

// ExtractStream extracts an unbounded stream of pages concurrently — the
// crawl-scale ingest path: where ExtractAll materializes a whole batch in
// memory, ExtractStream holds at most MaxInFlight pages at once no matter
// how many the producer sends.
//
// Channel contract:
//
//   - The caller owns in: it sends pages and closes the channel to end the
//     stream. The stream reads a page only after reserving one of the
//     MaxInFlight admission slots, so a producer feeding faster than
//     consumers drain blocks on its own send — backpressure needs no side
//     channel.
//   - The returned channel emits exactly one PageResult per admitted page,
//     in completion order (Seq recovers arrival order), and is closed after
//     in is closed and every admitted page has been delivered.
//   - An admission slot is released only when the page's PageResult has
//     been received, so a lagging consumer stalls admission, not memory.
//
// Byte-identical pages admitted while their first occurrence is still in
// flight coalesce: the duplicate waits on the canonical extraction and
// receives its own Result view of the canonical's frozen artifacts with
// Stats.Coalesced set, without occupying a worker. (Duplicates of pages
// that already completed re-extract — or hit Options.Cache when one is
// attached; the stream itself keeps no history, which is what keeps its
// memory bounded.)
//
// Cancelling ctx stops admission immediately, fails pages already admitted
// but not yet started with the context error, cuts running extractions
// short at their next checkpoint, and then closes the output channel. A
// cancelled stream may shed results — a consumer that stopped reading must
// not be able to wedge the workers — so exact accounting after
// cancellation is the caller's job: track which Seqs arrived and charge
// the rest to the cancellation, as ExtractAll does.
//
// Every worker runs its pages through one Extractor built up front, under
// a per-page panic boundary: a panicking page fails alone (with a
// *PanicError) and the worker goes on with the next page on the same
// Extractor, which holds no per-parse state a panic could tear.
//
// An invalid configuration (a malformed GrammarSource, for instance) has
// no up-front error to return; the stream still honors the contract by
// failing every admitted page with the construction error. Callers that
// want eager validation can call New(opt.Options) first.
func ExtractStream(ctx context.Context, in <-chan Page, opt StreamOptions) <-chan PageResult {
	if ctx == nil {
		ctx = context.Background()
	}
	ex, err := New(opt.Options)
	if err != nil {
		out := make(chan PageResult)
		go failAll(ctx, in, out, err)
		return out
	}
	return extractStream(ctx, in, opt, ex)
}

// failAll is the invalid-configuration stream: one error result per page,
// preserving the one-result-per-admitted-page contract.
func failAll(ctx context.Context, in <-chan Page, out chan<- PageResult, err error) {
	defer close(out)
	done := ctx.Done()
	for seq := 0; ; seq++ {
		var p Page
		var ok bool
		select {
		case p, ok = <-in:
		case <-done:
			return
		}
		if !ok {
			return
		}
		select {
		case out <- PageResult{ID: p.ID, Seq: seq, Err: err}:
		case <-done:
			return
		}
	}
}

// extractStream is ExtractStream over an already-built extractor;
// ExtractAll calls it directly so a configuration error fails the whole
// batch up front.
func extractStream(ctx context.Context, in <-chan Page, opt StreamOptions, ex *Extractor) <-chan PageResult {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxInFlight := opt.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 2 * workers
	}
	if maxInFlight < workers {
		maxInFlight = workers
	}
	s := &stream{
		ctx:   ctx,
		ex:    ex,
		gauge: opt.Gauge,
		out:   make(chan PageResult),
		// The jobs buffer holds the admitted pages no worker has picked up
		// yet; together with the worker-held pages that is exactly the
		// admission bound, so a full buffer blocks dispatch, not memory.
		jobs:    make(chan streamJob, maxInFlight-workers),
		sem:     make(chan struct{}, maxInFlight),
		flights: make(map[string]*streamFlight, maxInFlight),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.admit(in)
	return s.out
}

// stream is one ExtractStream run: an admitter goroutine metering pages
// from the input channel through the slot semaphore, workers sharing one
// extractor, and a flights map coalescing in-flight duplicates.
type stream struct {
	ctx   context.Context
	ex    *Extractor
	gauge *StreamGauge
	out   chan PageResult
	jobs  chan streamJob
	sem   chan struct{}
	wg    sync.WaitGroup // workers + duplicate waiters

	mu      sync.Mutex
	flights map[string]*streamFlight
}

// streamJob is one admitted canonical page on its way to a worker.
type streamJob struct {
	seq  int
	page Page
	fl   *streamFlight
}

// streamFlight tracks one in-flight canonical extraction so byte-identical
// pages admitted meanwhile can wait on it instead of re-extracting.
type streamFlight struct {
	done    chan struct{}
	res     *Result // frozen before done closes when waiters exist
	err     error
	waiters int // guarded by stream.mu until the flight resolves
}

// admit is the producer side: reserve a slot, read a page, dispatch it —
// in that order, so the stream never holds a page it has no slot for and
// a stalled consumer propagates to the producer as an unread channel.
func (s *stream) admit(in <-chan Page) {
	done := s.ctx.Done()
	seq := 0
loop:
	for {
		select {
		case s.sem <- struct{}{}:
		case <-done:
			break loop
		}
		var p Page
		var ok bool
		select {
		case p, ok = <-in:
		case <-done:
			<-s.sem
			break loop
		}
		if !ok {
			<-s.sem
			break loop
		}
		s.gauge.add(1)
		s.dispatch(seq, p)
		seq++
	}
	close(s.jobs)
	s.wg.Wait()
	close(s.out)
}

// dispatch routes one admitted page: onto the jobs queue when its content
// is new, onto a lightweight waiter when a byte-identical page is already
// in flight. The waiter holds the page's admission slot but no worker.
func (s *stream) dispatch(seq int, p Page) {
	s.mu.Lock()
	if fl, ok := s.flights[p.HTML]; ok {
		fl.waiters++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.await(seq, p, fl)
		return
	}
	fl := &streamFlight{done: make(chan struct{})}
	s.flights[p.HTML] = fl
	s.mu.Unlock()
	s.jobs <- streamJob{seq: seq, page: p, fl: fl}
}

// worker runs admitted pages until the jobs queue closes: extraction,
// flight resolution, delivery. A page that panics fails alone; the worker
// and the shared extractor carry on.
func (s *stream) worker() {
	defer s.wg.Done()
	for job := range s.jobs {
		var res *Result
		err := s.ctx.Err()
		if err == nil {
			res, err = safeExtractPage(s.ctx, s.ex, job.page.HTML)
		}
		s.resolve(job.page.HTML, job.fl, res, err)
		s.deliver(PageResult{ID: job.page.ID, Seq: job.seq, Result: res, Err: err})
	}
}

// resolve publishes a canonical page's outcome to its duplicate waiters.
// The flight leaves the map first, so no new waiter can attach to an
// outcome that is already sealed; the close of done is the happens-before
// edge waiters read res/err through. A successful result with waiters is
// frozen here — exactly once, before anyone else can see it.
func (s *stream) resolve(key string, fl *streamFlight, res *Result, err error) {
	s.mu.Lock()
	delete(s.flights, key)
	waiters := fl.waiters
	s.mu.Unlock()
	if waiters > 0 && err == nil && res != nil {
		res.Freeze()
	}
	fl.res, fl.err = res, err
	close(fl.done)
}

// await delivers a duplicate page's result once its canonical flight
// resolves. The canonical job always resolves — workers drain the jobs
// queue even after cancellation — so this wait cannot leak.
func (s *stream) await(seq int, p Page, fl *streamFlight) {
	defer s.wg.Done()
	<-fl.done
	pr := PageResult{ID: p.ID, Seq: seq, Err: fl.err}
	if fl.err == nil && fl.res != nil {
		pr.Result = fl.res.share(false, true, "")
	}
	s.deliver(pr)
}

// deliver hands one result to the consumer and releases the page's
// admission slot. After cancellation the send may be shed instead: the
// consumer may have stopped reading, and a worker wedged on a dead channel
// would leak — accounting for shed pages belongs to the caller (ExtractAll
// charges every unreported page the context error).
func (s *stream) deliver(pr PageResult) {
	select {
	case s.out <- pr:
	case <-s.ctx.Done():
	}
	s.gauge.add(-1)
	<-s.sem
}
