package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"formext"
)

// crawl: in-process formext.ExtractStream (the formcrawl engine) in a
// closed loop — the producer blocks on the stream's admission bound — over
// a seeded stream of ~48 KB padded pages with 2–4-condition forms, ~5% of
// which repeat the previous page byte for byte while it is still in
// flight.
const (
	crawlForms    = 1200
	crawlRepeat   = 0.05
	crawlWarm     = 32 // pages each set-up pushes through a fresh stream
	crawlSampleAt = 200
	// crawlLimit is the turnaround a page should stay within.
	crawlLimit = 20 * time.Millisecond
)

// crawlInputs is a run's page source.
type crawlInputs struct {
	seed  int64
	forms []form
	pad   *padder
	tag   string
}

func newCrawlInputs(seed int64, workers int) (*crawlInputs, error) {
	forms, err := screen(genForms(seed, crawlForms, 2, 4, 0.35), workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &crawlInputs{
		seed:  seed,
		forms: forms,
		pad:   newPadder(rng, 16, 44_000, 52_000),
		tag:   fmt.Sprintf("crawl-%d", seed),
	}, nil
}

// crawlGen yields one stream of pages: distinct page j follows j-1, and
// with probability crawlRepeat the previous page is sent again instead.
type crawlGen struct {
	in    *crawlInputs
	rng   *rand.Rand
	next  int // next distinct page
	prev  string
	prevF int
}

// gen starts the page stream at distinct page first; a run's warm-up and
// measured phases start at different pages so none of them repeat.
func (in *crawlInputs) gen(first int) *crawlGen {
	return &crawlGen{in: in, rng: rand.New(rand.NewSource(in.seed*7919 + int64(first))), next: first}
}

// page returns the next page, its form index and whether it repeats the
// previous one.
func (g *crawlGen) page() (html string, formIdx int, repeat bool) {
	if g.prev != "" && g.rng.Float64() < crawlRepeat {
		return g.prev, g.prevF, true
	}
	j := g.next
	g.next++
	g.prevF = j % len(g.in.forms)
	g.prev = g.in.pad.html(g.in.forms[g.prevF], g.in.tag, j, j*5, j*3)
	return g.prev, g.prevF, false
}

// crawlPage is one delivered page's outcome.
type crawlPage struct {
	seq        int
	formIdx    int
	html       string
	repeat     bool
	turnaround time.Duration // admission to delivery
	res        *formext.Result
	err        error
}

// crawlPass feeds the stream from g while more(sent) holds and hands each
// delivered page to onPage as it arrives, so no result outlives its
// callback unless the caller keeps it. It returns the number of pages, the
// stream's peak in-flight count and the pass's wall time.
func crawlPass(workers int, g *crawlGen, more func(sent int) bool, onPage func(crawlPage)) (int, int64, time.Duration) {
	in := make(chan formext.Page)
	gauge := &formext.StreamGauge{}
	start := time.Now()
	out := formext.ExtractStream(context.Background(), in, formext.StreamOptions{
		Workers: workers, MaxInFlight: 2 * workers, Gauge: gauge,
	})
	// The producer records each page right after the stream admitted it;
	// a delivery can race ahead of that record only by a few instructions,
	// so the consumer waits for it.
	var mu sync.Mutex
	arrived := sync.NewCond(&mu)
	var sent []crawlPage
	var admitted []time.Time
	go func() {
		for n := 0; more(n); n++ {
			html, fi, rep := g.page()
			in <- formext.Page{HTML: html}
			now := time.Now()
			mu.Lock()
			admitted = append(admitted, now)
			sent = append(sent, crawlPage{seq: n, formIdx: fi, html: html, repeat: rep})
			arrived.Broadcast()
			mu.Unlock()
		}
		close(in)
	}()
	n := 0
	for pr := range out {
		at := time.Now()
		mu.Lock()
		for len(sent) <= pr.Seq {
			arrived.Wait()
		}
		p := sent[pr.Seq]
		sent[pr.Seq] = crawlPage{} // release the page source
		p.turnaround = max(at.Sub(admitted[pr.Seq]), 0)
		mu.Unlock()
		p.res, p.err = pr.Result, pr.Err
		onPage(p)
		n++
	}
	return n, gauge.Peak(), time.Since(start)
}

// viewBytes views a page string as bytes without copying; the extraction
// only reads it.
func viewBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

func runCrawl(c *runConfig) (*result, error) {
	in, err := newCrawlInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		var werr error
		crawlPass(c.workers, in.gen(warmBase+k*crawlWarm), func(n int) bool { return n < crawlWarm },
			func(p crawlPage) {
				if p.err != nil && werr == nil {
					werr = fmt.Errorf("warm-up page: %w", p.err)
				}
			})
		if werr != nil {
			return nil, werr
		}
		setups = append(setups, time.Since(t0))
	}
	logf("setups: %v", setups)

	res := &result{Correct: true}
	log := servedLog{every: crawlSampleAt}
	var p50, p99, good, rss []float64
	g := in.gen(0)
	for r := 0; r < rounds; r++ {
		var lat []time.Duration
		var ok []bool
		coalesced := 0
		sampler := sampleRSS([]int{0})
		deadline := time.Now().Add(c.measure() / rounds)
		n, peak, elapsed := crawlPass(c.workers, g, func(int) bool { return time.Now().Before(deadline) },
			func(p crawlPage) {
				good := p.err == nil && p.res != nil
				lat = append(lat, p.turnaround)
				ok = append(ok, good)
				if !good {
					res.Failed++
					return
				}
				if p.res.Stats.Coalesced {
					coalesced++
				}
				if p.repeat {
					return // scored once, as the page it repeats
				}
				log.add(p.seq, page{viewBytes(p.html), in.forms[p.formIdx].truth}, p.res.Model)
			})
		mb, err := sampler.finish()
		if err != nil {
			return nil, err
		}
		res.Attempted += n
		p50 = append(p50, ms(percentile(lat, 50)))
		p99 = append(p99, ms(percentile(lat, 99)))
		good = append(good, goodput(lat, ok, crawlLimit, elapsed))
		rss = append(rss, mb)
		logf("round %d: %d pages in %v, p50 %v p99 %v, peak in flight %d, %d coalesced repeats, rss %.1f MB",
			r, n, elapsed.Round(time.Millisecond), percentile(lat, 50).Round(time.Microsecond),
			percentile(lat, 99).Round(time.Microsecond), peak, coalesced, mb)
	}
	res.set("p50_ms", percentileF(p50, 50), "ms")
	logTail(p99)
	res.set("goodput_per_s", percentileF(good, 50), "1/s")
	res.set("peak_rss_mb", percentileF(rss, 50), "MB")
	res.set("setup_s", median(setups).Seconds(), "s")
	runChecks(res, spread(log.sample, checkSample), log.scores)
	return res, nil
}

func traceCrawl(c *runConfig) (*result, error) {
	in, err := newCrawlInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	res := tracedResult()

	// The shipped surface first: the stream's turnaround per page, the part
	// of it no pipeline stage accounts for, admission and coalescing.
	deadline := time.Now().Add(time.Duration(replayShare * float64(c.measure())))
	var e2e, wait []time.Duration
	coalesced := 0
	n, peak, _ := crawlPass(c.workers, in.gen(0), func(int) bool { return time.Now().Before(deadline) },
		func(p crawlPage) {
			res.Attempted++
			if p.err != nil || p.res == nil {
				res.Failed++
				return
			}
			e2e = append(e2e, p.turnaround)
			if p.res.Stats.Coalesced {
				coalesced++
				return
			}
			wait = append(wait, p.turnaround-p.res.Stats.Stages.Total())
		})
	res.set("stream.wait_us", us(median(wait)), "us")
	res.set("stream.peak_inflight", float64(peak), "count")
	res.set("stream.coalesced_share", float64(coalesced)/float64(max(n, 1)), "ratio")

	// The same pages, layer by layer.
	rec := newRecorder()
	l, err := newLayers(rec)
	if err != nil {
		return nil, err
	}
	g := in.gen(0)
	var sample []page
	deadline = time.Now().Add(time.Duration((1 - replayShare) * float64(c.measure())))
	for req := 0; time.Now().Before(deadline); req++ {
		html, fi, _ := g.page()
		p := page{viewBytes(html), in.forms[fi].truth}
		if len(sample) < 60 {
			sample = append(sample, p)
		}
		res.Attempted++
		root := rec.begin(req, 0, "request")
		_, err := l.front(req, root, p.body)
		rec.end(root)
		if err != nil {
			logf("page %d: %v", req, err)
			res.Failed++
		}
	}
	lr := newLayerReport(rec, res)
	frontLayers(lr, true)
	l.counters(res)
	lr.residual(median(e2e))
	lr.write(c.spanDir, c.workload, c.seed)
	if err := pipelineCost(res, sample); err != nil {
		return nil, err
	}
	return res, nil
}
