package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"formext/internal/obs"
)

// span is one benchmark-owned timed region: the call into one layer's
// entry point for one request. Parent 0 means a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced run's spans in memory; they are written out once
// at the end, so recording costs two clock reads and an append.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(req, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// timed runs f inside a span named name and returns the span's duration.
func (r *recorder) timed(req, parent int, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(req, parent, name, t0, t1)
	return t1.Sub(t0)
}

// begin opens a span whose children are recorded before it ends; end
// closes it.
func (r *recorder) begin(req, parent int, name string) int {
	now := time.Now()
	return r.add(req, parent, name, now, now)
}

func (r *recorder) end(id int) {
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.epoch)
	r.mu.Unlock()
}

// adopt copies a span tree the program emitted through an obs tracer —
// the core parser's fixpoint/maximize children, the metaquery engine's
// route/translate/fanout/unify — under parent, renaming its root.
func (r *recorder) adopt(req, parent int, name string, s *obs.Span) int {
	id := r.add(req, parent, name, s.Start, s.Start.Add(s.Dur))
	for _, c := range s.Children {
		r.adopt(req, id, name+"."+c.Name, c)
	}
	return id
}

// collectSink is the obs.Sink behind the benchmark's tracer: it keeps the
// last completed trace for the caller that started it.
type collectSink struct {
	mu   sync.Mutex
	last *obs.Trace
}

func (s *collectSink) Emit(tr *obs.Trace) {
	s.mu.Lock()
	s.last = tr
	s.mu.Unlock()
}

func (s *collectSink) take() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.last
	s.last = nil
	return tr
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// fan-out) count once, and child time outside the parent's interval does
// not count at all.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		var ivs [][2]time.Duration
		for _, k := range kids[s.ID] {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, end time.Duration
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			end = max(end, iv[1])
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerTimes sums, per request, the self time of every span named name and
// of all its descendants — the layer's inclusive time — and returns the
// per-request totals of the requests where the layer ran.
func layerTimes(spans []span, self map[int]time.Duration, name string) []time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	under := func(s span) bool {
		for {
			if s.Name == name {
				return true
			}
			if s.Parent == 0 {
				return false
			}
			s = byID[s.Parent]
		}
	}
	perReq := map[int]time.Duration{}
	for _, s := range spans {
		if under(s) {
			perReq[s.Req] += self[s.ID]
		}
	}
	out := make([]time.Duration, 0, len(perReq))
	for _, d := range perReq {
		out = append(out, d)
	}
	return out
}

// layerReport computes the per-layer timing metrics of a traced run.
type layerReport struct {
	spans []span
	self  map[int]time.Duration
	res   *result
	path  time.Duration // sum of the medians of the layers on the workload's path
}

func newLayerReport(r *recorder, res *result) *layerReport {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	return &layerReport{spans: spans, self: selfTimes(spans), res: res}
}

// layer reports the median of the named layer's per-request time as
// metric (unless metric is empty) and returns it. onPath adds it to the
// sum residual.us is computed against.
func (l *layerReport) layer(span, metric string, onPath bool) time.Duration {
	m := median(layerTimes(l.spans, l.self, span))
	if metric != "" {
		l.res.set(metric, us(m), "us")
	}
	if onPath {
		l.path += m
	}
	return m
}

// residual reports the end-to-end median minus the layers on the path.
func (l *layerReport) residual(e2e time.Duration) {
	l.res.set("residual.us", us(e2e-l.path), "us")
	logf("e2e median %v = layers on path %v + residual %v", e2e, l.path, e2e-l.path)
}

// write saves the spans as JSON under dir.
func (l *layerReport) write(dir, workload string, seed int64) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("writing spans: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(l.spans)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		logf("writing spans: %v", err)
		return
	}
	logf("wrote %d spans to %s", len(l.spans), path)
}

// perLayerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not run reads 0.
var perLayerMetrics = [][2]string{
	{"core.us", "us"}, {"core.p99_us", "us"}, {"core.fixpoint_us", "us"}, {"core.maximize_us", "us"},
	{"core.instances", "count"}, {"core.alive_ratio", "ratio"}, {"core.constraint_evals", "count"},
	{"core.fixpoint_iters", "count"},
	{"htmlparse.us", "us"}, {"htmlparse.mb_per_s", "MB/s"}, {"layout.us", "us"}, {"layout.boxes", "count"},
	{"token.us", "us"}, {"token.tokens", "count"}, {"merger.us", "us"},
	{"cache.key_us", "us"}, {"cache.hit_us", "us"}, {"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"},
	{"encode.us", "us"}, {"encode.kb", "KiB"},
	{"freeze.us", "us"}, {"freeze.cost_kb", "KiB"}, {"pipeline.allocs", "count"}, {"pipeline.kb", "KiB"},
	{"gc.cpu_share", "ratio"},
	{"cluster.fetch_us", "us"}, {"cluster.forwarded_share", "ratio"}, {"cluster.hot_hit_ratio", "ratio"},
	{"stream.wait_us", "us"}, {"stream.peak_inflight", "count"}, {"stream.coalesced_share", "ratio"},
	{"metaquery.route_us", "us"}, {"metaquery.translate_us", "us"}, {"metaquery.fanout_us", "us"},
	{"metaquery.unify_us", "us"}, {"metaquery.degraded_share", "ratio"}, {"simsource.us", "us"},
	{"obs.overhead_us", "us"}, {"obs.allocs", "count"},
	{"residual.us", "us"},
	{"core.e7_120_s", "s"}, {"pipeline.e7_120_s", "s"},
}

// tracedResult starts a traced run's result with every per-layer metric
// at 0, so layers the workload never runs still appear, reading 0.
func tracedResult() *result {
	res := &result{Correct: true}
	for _, m := range perLayerMetrics {
		res.set(m[0], 0, m[1])
	}
	return res
}
