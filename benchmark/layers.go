package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"formext"
	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/merger"
	"formext/internal/model"
	"formext/internal/obs"
	"formext/internal/token"
)

// layers drives one page at a time through each layer's public entry
// point, in pipeline order, with the same configuration the facade builds
// for default Options — each call wrapped in a benchmark-owned span.
type layers struct {
	rec    *recorder
	sink   *collectSink
	tracer *obs.Tracer

	eng    *layout.Engine
	tz     *token.Tokenizer
	parser *core.Parser
	merger *merger.Merger
	dom    htmlparse.Arena
	lay    layout.Arena
	tok    token.Arena

	plain  *formext.Pool // uncached: the full pipeline for Freeze
	cached *formext.Pool // cached: ExtractKeyBytes and a warm ExtractBytes

	// per-page counters, medians reported by counters()
	instances, evals, iters, boxes, toks, encodeB []float64
	alive, mbps                                   []float64
}

func newLayers(rec *recorder) (*layers, error) {
	g := grammar.Default()
	parser, err := core.NewParser(g, core.Options{})
	if err != nil {
		return nil, err
	}
	plain, err := formext.NewPool()
	if err != nil {
		return nil, err
	}
	cache, err := formext.NewCache(formext.CacheConfig{MaxBytes: 1 << 30})
	if err != nil {
		return nil, err
	}
	cached, err := formext.NewPool(formext.Options{Cache: cache})
	if err != nil {
		return nil, err
	}
	sink := &collectSink{}
	return &layers{
		rec: rec, sink: sink, tracer: obs.NewTracer(sink),
		eng: layout.New(), tz: token.NewTokenizer(), parser: parser, merger: merger.New(g),
		plain: plain, cached: cached,
	}, nil
}

// front runs htmlparse → layout → token → core → merger on page under
// root, recording one span per layer (the core parser's own fixpoint and
// maximize spans nest under "core"), and returns the model.
func (l *layers) front(req, root int, src []byte) (*model.SemanticModel, error) {
	ctx := context.Background()
	var doc *htmlparse.Node
	d := l.rec.timed(req, root, "htmlparse", func() {
		doc, _ = htmlparse.ParseBytes(ctx, src, htmlparse.Limits{}, &l.dom)
	})
	l.mbps = append(l.mbps, float64(len(src))/1e6/d.Seconds())
	var boxes *layout.Box
	var lerr error
	l.rec.timed(req, root, "layout", func() { boxes, lerr = l.eng.LayoutArena(ctx, doc, &l.lay) })
	if lerr != nil {
		return nil, lerr
	}
	l.boxes = append(l.boxes, float64(layout.StatsOf(boxes).Total()))
	var toks []*token.Token
	l.rec.timed(req, root, "token", func() { toks = l.tz.TokenizeArena(boxes, &l.tok) })
	l.toks = append(l.toks, float64(len(toks)))

	tr := l.tracer.Start("core")
	pres, err := l.parser.ParseContext(ctx, toks, tr.Root())
	tr.End()
	l.rec.adopt(req, root, "core", l.sink.take().Root())
	if err != nil {
		return nil, fmt.Errorf("core parse: %w", err)
	}
	st := pres.Stats
	l.instances = append(l.instances, float64(st.TotalCreated))
	l.alive = append(l.alive, float64(st.Alive)/float64(max(st.TotalCreated, 1)))
	l.evals = append(l.evals, float64(st.ConstraintEvals))
	l.iters = append(l.iters, float64(st.FixpointIters))

	var m *model.SemanticModel
	l.rec.timed(req, root, "merger", func() { m = l.merger.Merge(pres) })
	// The model and trees retain arena memory; hand it over and start the
	// next page on empty arenas, as the facade does.
	l.dom.Release()
	l.lay.Release()
	l.tok.Release()
	return m, nil
}

// freeze extracts page through the uncached pool (untimed) and times
// Result.Freeze on the fresh result.
func (l *layers) freeze(req, root int, src []byte) error {
	res, err := l.plain.ExtractBytes(context.Background(), src)
	if err != nil {
		return err
	}
	l.rec.timed(req, root, "freeze", func() { res.Freeze() })
	return nil
}

// key times Pool.ExtractKeyBytes.
func (l *layers) key(req, root int, src []byte) formext.CacheKey {
	var k formext.CacheKey
	l.rec.timed(req, root, "cache.key", func() { k = l.cached.ExtractKeyBytes(src) })
	return k
}

// hit makes sure page is cached (untimed), then times a warm
// Pool.ExtractBytes — the hit path: key hashing plus lookup.
func (l *layers) hit(req, root int, src []byte) (*model.SemanticModel, error) {
	ctx := context.Background()
	if _, err := l.cached.ExtractBytes(ctx, src); err != nil {
		return nil, err
	}
	var res *formext.Result
	var err error
	l.rec.timed(req, root, "cache.hit", func() { res, err = l.cached.ExtractBytes(ctx, src) })
	if err != nil {
		return nil, err
	}
	if !res.Stats.CacheHit {
		return nil, fmt.Errorf("warm ExtractBytes missed the cache")
	}
	return res.Model, nil
}

// encode times json.Marshal of the served model.
func (l *layers) encode(req, root int, m *model.SemanticModel) error {
	var b []byte
	var err error
	l.rec.timed(req, root, "encode", func() { b, err = json.Marshal(m) })
	l.encodeB = append(l.encodeB, float64(len(b))/1024)
	return err
}

// counters reports the per-page counter medians the front-end pass
// collected.
func (l *layers) counters(res *result) {
	res.set("core.instances", percentileF(l.instances, 50), "count")
	res.set("core.alive_ratio", percentileF(l.alive, 50), "ratio")
	res.set("core.constraint_evals", percentileF(l.evals, 50), "count")
	res.set("core.fixpoint_iters", percentileF(l.iters, 50), "count")
	res.set("htmlparse.mb_per_s", percentileF(l.mbps, 50), "MB/s")
	res.set("layout.boxes", percentileF(l.boxes, 50), "count")
	res.set("token.tokens", percentileF(l.toks, 50), "count")
	if len(l.encodeB) > 0 {
		res.set("encode.kb", percentileF(l.encodeB, 50), "KiB")
	}
}

// frontLayers reports the front-end pass's layer times, charging them to
// the workload's median path when onPath says its median request runs them.
func frontLayers(lr *layerReport, onPath bool) {
	lr.layer("htmlparse", "htmlparse.us", onPath)
	lr.layer("layout", "layout.us", onPath)
	lr.layer("token", "token.us", onPath)
	lr.layer("core", "core.us", onPath)
	lr.res.set("core.p99_us", us(percentile(layerTimes(lr.spans, lr.self, "core"), 99)), "us")
	lr.layer("core.fixpoint", "core.fixpoint_us", false)
	lr.layer("core.maximize", "core.maximize_us", false)
	lr.layer("merger", "merger.us", onPath)
}

// freezeCost reports the average cached cost of a frozen result, from the
// cached pool's resident bytes per entry.
func (l *layers) freezeCost(res *result) {
	st := l.cached.Options().Cache.Stats()
	if st.Entries > 0 {
		res.set("freeze.cost_kb", float64(st.Bytes)/float64(st.Entries)/1024, "KiB")
	}
}

// pipelineCost runs pages through the uncached pool and reports heap
// allocations and bytes per page, and the share of used CPU time the
// garbage collector took meanwhile.
func pipelineCost(res *result, pages []page) error {
	p, err := formext.NewPool()
	if err != nil {
		return err
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	metrics.Read(samples)
	gc0, tot0, idle0 := samples[0].Value.Float64(), samples[1].Value.Float64(), samples[2].Value.Float64()
	runtime.ReadMemStats(&m0)
	for _, pg := range pages {
		if _, err := p.ExtractBytes(context.Background(), pg.body); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	runtime.GC() // the CPU classes are brought up to date at GC
	metrics.Read(samples)
	gc, tot, idle := samples[0].Value.Float64()-gc0, samples[1].Value.Float64()-tot0, samples[2].Value.Float64()-idle0
	n := float64(len(pages))
	res.set("pipeline.allocs", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	res.set("pipeline.kb", float64(m1.TotalAlloc-m0.TotalAlloc)/n/1024, "KiB")
	if used := tot - idle; used > 0 {
		res.set("gc.cpu_share", gc/used, "ratio")
	}
	return nil
}

// obsOverhead measures what the flight recorder formserve runs with costs
// in process: the same pages through a pool with a nil tracer and one with
// a RingSink tracer, alternating, reported as the difference of the
// per-page medians and of allocations per page.
func obsOverhead(res *result, pages []page) error {
	off, err := formext.NewPool()
	if err != nil {
		return err
	}
	on, err := formext.NewPool(formext.Options{Tracer: formext.NewTracer(formext.NewRingSink(64))})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var tOff, tOn []time.Duration
	timeOne := func(p *formext.Pool, d *[]time.Duration, src []byte) error {
		t0 := time.Now()
		_, err := p.ExtractBytes(ctx, src)
		*d = append(*d, time.Since(t0))
		return err
	}
	for i, pg := range pages {
		var err error
		if i%2 == 0 {
			err = errors.Join(timeOne(off, &tOff, pg.body), timeOne(on, &tOn, pg.body))
		} else {
			err = errors.Join(timeOne(on, &tOn, pg.body), timeOne(off, &tOff, pg.body))
		}
		if err != nil {
			return err
		}
	}
	allocs := func(p *formext.Pool) (float64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, pg := range pages {
			if _, err := p.ExtractBytes(ctx, pg.body); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(len(pages)), nil
	}
	aOff, err := allocs(off)
	if err != nil {
		return err
	}
	aOn, err := allocs(on)
	if err != nil {
		return err
	}
	res.set("obs.overhead_us", us(median(tOn)-median(tOff)), "us")
	res.set("obs.allocs", aOn-aOff, "count")
	return nil
}

// e7 reproduces EXPERIMENTS.md E7 on the first 120 Basic interfaces: the
// paper-comparable parse-only time (tokens precomputed, only
// core.Parser.ParseContext timed) next to the full pipeline's time for the
// same 120 pages. Each figure is the median of three passes.
func e7(res *result) error {
	srcs := dataset.Basic()[:120]
	ex, err := formext.New()
	if err != nil {
		return err
	}
	parser, err := core.NewParser(grammar.Default(), core.Options{})
	if err != nil {
		return err
	}
	toks := make([][]*token.Token, len(srcs))
	for i, s := range srcs {
		toks[i] = ex.Tokenize(s.HTML)
	}
	ctx := context.Background()
	var parse, full []time.Duration
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, ts := range toks {
			if _, err := parser.ParseContext(ctx, ts, nil); err != nil {
				return err
			}
		}
		parse = append(parse, time.Since(t0))
		t0 = time.Now()
		for _, s := range srcs {
			if _, err := ex.ExtractHTML(s.HTML); err != nil {
				return err
			}
		}
		full = append(full, time.Since(t0))
	}
	res.set("core.e7_120_s", median(parse).Seconds(), "s")
	res.set("pipeline.e7_120_s", median(full).Seconds(), "s")
	return nil
}
