package main

import (
	"fmt"
	"time"
)

// cold-extract: one formserve with its shipped defaults (the /traces
// flight recorder on) plus an extraction cache small enough to evict
// during the run. Every page is new, so every request runs the full
// pipeline and writes the cache.
var coldLoad = serverLoad{rate: 150, limit: 50 * time.Millisecond}

const (
	coldCacheBytes = 4 << 20
	coldForms      = 1200
	coldWarmPages  = 8
	// warmBase numbers warm-up pages far past any measured request.
	warmBase = 1 << 30
)

// coldInputs generates the workload's forms; page i of a run is form
// i mod coldForms behind a marker naming (seed, i), so no two requests of
// a run share bytes.
func coldInputs(seed int64, workers int) (pageAt func(i int) page, err error) {
	forms, err := screen(genForms(seed, coldForms, 4, 9, 0.4), workers)
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("cold-%d", seed)
	return func(i int) page { return markedPage(forms[i%len(forms)], tag, i) }, nil
}

func runCold(c *runConfig) (*result, error) {
	pageAt, err := coldInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	client := newClient(c.workers)
	var srv *proc
	defer func() { srv.stop() }()
	setup, err := timedSetups(func() error {
		port, err := freePort()
		if err != nil {
			return err
		}
		if srv, err = launch(c.formserve, port, "-cache-bytes", fmt.Sprint(coldCacheBytes)); err != nil {
			return err
		}
		if err := srv.waitReady(client, 20*time.Second); err != nil {
			return err
		}
		for k := 0; k < coldWarmPages; k++ {
			if _, err := post(client, srv.addr+"/extract", pageAt(warmBase+k).body); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}, func() { srv.stop() })
	if err != nil {
		return nil, err
	}

	log := servedLog{every: checkEvery}
	send := func(i int) bool {
		p := pageAt(i)
		body, err := post(client, srv.addr+"/extract", p.body)
		if err != nil {
			return false
		}
		r, err := decodeExtract(body)
		if err != nil {
			return false
		}
		log.add(i, p, r.Model)
		return true
	}
	rs, err := coldLoad.drive(c, []int{srv.cmd.Process.Pid}, send)
	if err != nil {
		return nil, err
	}
	m, err := scrape(client, srv)
	if err != nil {
		return nil, err
	}
	srv.stop()
	if m.Cache == nil || m.Cache.Evictions == 0 {
		return nil, fmt.Errorf("cold-extract: the cache never evicted; the budget no longer exercises eviction")
	}
	logf("cache: %d misses, %d hits, %d evictions, %d entries resident", m.Cache.Misses, m.Cache.Hits, m.Cache.Evictions, m.Cache.Entries)

	res := &result{Correct: true}
	coldLoad.report(res, rs)
	res.set("setup_s", setup, "s")
	runChecks(res, spread(log.sample, checkSample), log.scores)
	return res, nil
}

// replayShare is the part of a traced run's seconds spent replaying inputs
// serially through the shipped surface (the end-to-end median residual.us
// is computed against); the rest drives the same inputs layer by layer.
const replayShare = 0.3

// stageLog collects the per-stage timings /extract responses carry, for
// the consistency check against the traced layer times.
type stageLog struct{ html, layout, tokenize, parse, merge []time.Duration }

func (s *stageLog) add(r *extractReply) {
	st := r.Stats.Stages
	if st.Total() == 0 {
		return // a cache hit ran no stage
	}
	s.html = append(s.html, st.HTMLParse)
	s.layout = append(s.layout, st.Layout)
	s.tokenize = append(s.tokenize, st.Tokenize)
	s.parse = append(s.parse, st.Parse)
	s.merge = append(s.merge, st.Merge)
}

// compare logs the served stage medians next to the traced layer medians.
// They measure the same calls from two vantage points, so a large ratio
// means the traced pass no longer exercises what the server runs.
func (s *stageLog) compare(res *result) {
	if len(s.parse) == 0 {
		return
	}
	for _, row := range []struct {
		stage  string
		served []time.Duration
		metric string
	}{{"htmlparse", s.html, "htmlparse.us"}, {"layout", s.layout, "layout.us"},
		{"tokenize", s.tokenize, "token.us"}, {"parse", s.parse, "core.us"}, {"merge", s.merge, "merger.us"}} {
		served, traced := us(median(row.served)), res.Metrics[row.metric].Value
		note := ""
		if traced > 0 && (served/traced > 2 || traced/served > 2) {
			note = "  <- differs by more than 2x"
		}
		logf("stage %-9s served median %8.1fus  traced %8.1fus%s", row.stage, served, traced, note)
	}
}

func traceCold(c *runConfig) (*result, error) {
	pageAt, err := coldInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	res := tracedResult()
	client := newClient(1)
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	srv, err := launch(c.formserve, port, "-cache-bytes", fmt.Sprint(coldCacheBytes))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := srv.waitReady(client, 20*time.Second); err != nil {
		return nil, err
	}

	// Serial replay through formserve: the end-to-end latency of each input
	// with nothing queued ahead of it, and the stages the server reports.
	var e2e []time.Duration
	var stages stageLog
	deadline := time.Now().Add(time.Duration(replayShare * float64(c.measure())))
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		body, err := post(client, srv.addr+"/extract", pageAt(i).body)
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		e2e = append(e2e, time.Since(t0))
		r, err := decodeExtract(body)
		if err != nil {
			res.Failed++
			continue
		}
		stages.add(r)
	}
	m, err := scrape(client, srv)
	if err != nil {
		return nil, err
	}
	srv.stop()
	if m.Cache != nil {
		res.set("cache.hit_ratio", float64(m.Cache.Hits)/float64(max(m.Cache.Hits+m.Cache.Misses, 1)), "ratio")
		res.set("cache.evictions", float64(m.Cache.Evictions), "count")
	}

	// The same inputs, layer by layer.
	rec := newRecorder()
	l, err := newLayers(rec)
	if err != nil {
		return nil, err
	}
	var pages []page
	deadline = time.Now().Add(time.Duration((1 - replayShare) * float64(c.measure())))
	for i := 0; time.Now().Before(deadline); i++ {
		p := pageAt(i)
		pages = append(pages, p)
		res.Attempted++
		if err := coldLayers(l, i, p); err != nil {
			logf("page %d: %v", i, err)
			res.Failed++
		}
	}
	lr := newLayerReport(rec, res)
	lr.layer("cache.key", "cache.key_us", true)
	frontLayers(lr, true)
	lr.layer("freeze", "freeze.us", true)
	lr.layer("cache.hit", "cache.hit_us", false)
	lr.layer("encode", "encode.us", true)
	l.counters(res)
	l.freezeCost(res)
	lr.residual(median(e2e))
	stages.compare(res)
	lr.write(c.spanDir, c.workload, c.seed)

	sample := pages[:min(len(pages), 100)]
	if err := pipelineCost(res, sample); err != nil {
		return nil, err
	}
	if err := obsOverhead(res, sample); err != nil {
		return nil, err
	}
	if err := e7(res); err != nil {
		return nil, err
	}
	return res, nil
}

// coldLayers is one cold-extract request, layer by layer: key, the front
// end and parse, freeze, encode — plus the hit path it never takes, for
// comparison with hot-fleet.
func coldLayers(l *layers, req int, p page) error {
	root := l.rec.begin(req, 0, "request")
	defer l.rec.end(root)
	l.key(req, root, p.body)
	m, err := l.front(req, root, p.body)
	if err != nil {
		return err
	}
	if err := l.freeze(req, root, p.body); err != nil {
		return err
	}
	if _, err := l.hit(req, root, p.body); err != nil {
		return err
	}
	return l.encode(req, root, m)
}
