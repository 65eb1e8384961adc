package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"formext"
	"formext/internal/dataset"
	"formext/internal/metaquery"
	"formext/internal/metaquery/simsource"
	"formext/internal/model"
	"formext/internal/obs"
)

// query: one formserve with ~30 deep-web sources across 5 domains,
// registered through POST /sources during setup, their simsource backends
// served from the benchmark process. The load is open-loop POST /query
// with queries sampled from ground truth; no extraction runs in the
// measured phase.
var queryLoad = serverLoad{rate: 120, limit: 100 * time.Millisecond}

const (
	queryDomains   = 5
	queryPerDomain = 6
	queryRecords   = 48
	queryHardness  = 0.2
	queryCount     = 20_000
)

type querySource struct {
	src dataset.Source
	sim *simsource.Source
}

// userQuery is one workload query over a domain's unified interface.
type userQuery struct {
	cons []metaquery.Constraint
	text string
}

type queryInputs struct {
	sources []querySource
	queries []userQuery
}

func newQueryInputs(seed int64) *queryInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &queryInputs{}
	var schemas []dataset.Schema
	for _, si := range rng.Perm(len(dataset.AllSchemas))[:queryDomains] {
		schemas = append(schemas, dataset.AllSchemas[si])
	}
	for di, schema := range schemas {
		for _, src := range dataset.Generate(dataset.Config{
			Seed: seed + int64(di)*101, Sources: queryPerDomain, Schemas: []dataset.Schema{schema},
			MinConds: 8, MaxConds: 10, Hardness: queryHardness,
		}) {
			in.sources = append(in.sources, querySource{src, simsource.New(src, seed, queryRecords)})
		}
	}
	in.queries = sampleQueries(rand.New(rand.NewSource(seed*7919)), schemas, in.sources, queryCount)
	return in
}

// sampleQueries draws queries from ground truth: only attributes at least
// two sources of a domain carry (so they can make its unified interface),
// values from the shared record pools, ordered operators on range and date
// attributes.
func sampleQueries(rng *rand.Rand, schemas []dataset.Schema, sources []querySource, n int) []userQuery {
	type candidate struct {
		cond model.Condition
		pool []string
	}
	cands := map[string][]candidate{}
	for _, schema := range schemas {
		counts := map[string]int{}
		first := map[string]model.Condition{}
		for _, s := range sources {
			if s.src.Domain != schema.Name {
				continue
			}
			seen := map[string]bool{}
			for _, c := range s.src.Truth {
				key := model.NormalizeLabel(c.Attribute)
				if seen[key] {
					continue
				}
				seen[key] = true
				counts[key]++
				if _, ok := first[key]; !ok {
					first[key] = c
				}
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := first[k]
			if pool := simsource.ValuePool(&c); counts[k] >= 2 && len(pool) > 0 {
				cands[schema.Name] = append(cands[schema.Name], candidate{c, pool})
			}
		}
	}
	var out []userQuery
	for qi := 0; len(out) < n && qi < 4*n; qi++ {
		schema := schemas[qi%len(schemas)]
		cs := cands[schema.Name]
		if len(cs) == 0 {
			continue
		}
		var q userQuery
		for _, pi := range rng.Perm(len(cs))[:min(2+rng.Intn(2), len(cs))] {
			c := cs[pi]
			op := metaquery.OpEq
			switch c.cond.Domain.Kind {
			case model.RangeDomain:
				op = []metaquery.Op{metaquery.OpEq, metaquery.OpLe, metaquery.OpGe, metaquery.OpLt}[rng.Intn(4)]
			case model.DateDomain:
				if rng.Intn(4) == 0 {
					op = metaquery.OpLt
				}
			}
			q.cons = append(q.cons, metaquery.Constraint{Attr: c.cond.Attribute, Op: op, Value: c.pool[rng.Intn(len(c.pool))]})
		}
		q.text = metaquery.FormatQuery(q.cons)
		out = append(out, q)
	}
	return out
}

// backendSpan is the traced query a simsource call belongs to.
type backendSpan struct {
	rec       *recorder
	req, root int
}

// backends serves each simsource on its own loopback listener, as distinct
// deep-web sites would be. When trace holds a span context, each handler
// call is recorded as a "simsource" span — the backend wait fan-out cannot
// shrink.
type backends struct {
	srvs  []*http.Server
	addrs map[string]string // source ID -> base URL
	wg    sync.WaitGroup
	trace atomic.Pointer[backendSpan]
}

func startBackends(sources []querySource) (*backends, error) {
	b := &backends{addrs: map[string]string{}}
	for _, s := range sources {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.stop()
			return nil, err
		}
		h := s.sim.Handler()
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			bs := b.trace.Load()
			if bs == nil {
				h.ServeHTTP(w, r)
				return
			}
			t0 := time.Now()
			h.ServeHTTP(w, r)
			bs.rec.add(bs.req, bs.root, "simsource", t0, time.Now())
		})}
		b.srvs = append(b.srvs, srv)
		b.addrs[s.src.ID] = "http://" + ln.Addr().String()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logf("simsource backend: %v", err)
			}
		}()
	}
	return b, nil
}

func (b *backends) endpoint(id string) string { return b.addrs[id] }

// stop closes every backend and waits for their servers to return.
func (b *backends) stop() {
	for _, srv := range b.srvs {
		srv.Close()
	}
	b.wg.Wait()
}

// sourceSpec is formserve's POST /sources payload entry.
type sourceSpec struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	HTML     string `json:"html"`
}

// startQueryServer launches formserve with its shipped defaults and
// registers every source through POST /sources.
func startQueryServer(c *runConfig, client *http.Client, in *queryInputs, be *backends) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	p, err := launch(c.formserve, port)
	if err != nil {
		return nil, err
	}
	if err := p.waitReady(client, 20*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	specs := make([]sourceSpec, len(in.sources))
	for i, s := range in.sources {
		specs[i] = sourceSpec{ID: s.src.ID, Endpoint: be.endpoint(s.src.ID), HTML: s.src.HTML}
	}
	body, err := json.Marshal(specs)
	if err != nil {
		p.stop()
		return nil, err
	}
	if _, err := post(client, p.addr+"/sources", body); err != nil {
		p.stop()
		return nil, fmt.Errorf("registering sources: %w", err)
	}
	return p, nil
}

func runQuery(c *runConfig) (*result, error) {
	in := newQueryInputs(c.seed)
	be, err := startBackends(in.sources)
	if err != nil {
		return nil, err
	}
	defer be.stop()
	client := newClient(c.workers)
	var srv *proc
	defer func() { srv.stop() }()
	setup, err := timedSetups(func() error {
		var err error
		srv, err = startQueryServer(c, client, in, be)
		return err
	}, func() { srv.stop() })
	if err != nil {
		return nil, err
	}

	// The models the server serves for the registered interfaces.
	log := servedLog{every: 1}
	for i, s := range in.sources {
		p := page{[]byte(s.src.HTML), s.src.Truth}
		body, err := post(client, srv.addr+"/extract", p.body)
		if err != nil {
			return nil, err
		}
		r, err := decodeExtract(body)
		if err != nil {
			return nil, err
		}
		log.add(i, p, r.Model)
	}
	before, err := scrape(client, srv)
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	answers := map[int]*answer{}
	send := func(i int) bool {
		body, err := post(client, srv.addr+"/query", []byte(in.queries[i%len(in.queries)].text))
		if err != nil {
			return false
		}
		var ans answer
		if err := json.Unmarshal(body, &ans); err != nil {
			return false
		}
		mu.Lock()
		answers[i] = &ans
		mu.Unlock()
		return true
	}
	rs, err := queryLoad.drive(c, []int{srv.cmd.Process.Pid}, send)
	if err != nil {
		return nil, err
	}
	after, err := scrape(client, srv)
	if err != nil {
		return nil, err
	}
	srv.stop()

	res := &result{Correct: true}
	queryLoad.report(res, rs)
	res.set("setup_s", setup, "s")
	runChecks(res, log.sample, log.scores)
	if ran := after.Extractions - before.Extractions; ran != 0 {
		logf("output check failed: %d extractions ran during the measured phase", ran)
		res.Correct = false
	}
	sound, complete, degraded := in.score(answers)
	res.set("soundness", sound, "ratio")
	res.set("completeness", complete, "ratio")
	logf("answers: soundness %.4f completeness %.4f over %d queries, %.3f degraded", sound, complete, len(answers), degraded)
	return res, nil
}

// answer is the part of a /query response the benchmark scores: the
// unified records' source IDs and the degradation report.
type answer struct {
	Records []struct {
		IDs []string `json:"ids"`
	} `json:"records"`
	Degraded []string `json:"degraded"`
}

// score measures answers against the simsource record oracle, averaged
// over queries: a query's soundness is the share of its returned records
// the oracle expects, its completeness the share of expected records it
// returned (an empty denominator scores 1). The oracle's sources are those
// whose ground truth carries every constrained attribute; its records are
// theirs that satisfy every constraint. Averaging per query keeps one
// mis-extracted source with many records from deciding the whole figure.
func (in *queryInputs) score(answers map[int]*answer) (soundness, completeness, degraded float64) {
	var sound, complete float64
	nDegraded := 0
	oracles := map[string]map[string]bool{}
	for i, ans := range answers {
		if len(ans.Degraded) > 0 {
			nDegraded++
		}
		q := in.queries[i%len(in.queries)]
		expect, ok := oracles[q.text]
		if !ok {
			expect = in.oracle(q)
			oracles[q.text] = expect
		}
		ids := map[string]bool{}
		for _, r := range ans.Records {
			for _, id := range r.IDs {
				ids[id] = true
			}
		}
		hit := 0
		for id := range ids {
			if expect[id] {
				hit++
			}
		}
		sound += ratio(hit, len(ids))
		complete += ratio(hit, len(expect))
	}
	n := len(answers)
	return sound / float64(n), complete / float64(n), ratio(nDegraded, n)
}

// ratio is a/b, scoring an empty denominator 1: an answer that returns
// nothing makes no false claim, and a query nothing satisfies misses
// nothing.
func ratio(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

func (in *queryInputs) oracle(q userQuery) map[string]bool {
	want := map[string]bool{}
	for _, s := range in.sources {
		conds := map[string]*model.Condition{}
		for i := range s.src.Truth {
			conds[model.NormalizeLabel(s.src.Truth[i].Attribute)] = &s.src.Truth[i]
		}
		eligible := true
		for _, k := range q.cons {
			if conds[model.NormalizeLabel(k.Attr)] == nil {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
	next:
		for _, rec := range s.sim.Records() {
			for _, k := range q.cons {
				c := conds[model.NormalizeLabel(k.Attr)]
				if !metaquery.MatchValue(c.Domain.Kind, rec[model.NormalizeLabel(c.Attribute)], k.Op, k.Value) {
					continue next
				}
			}
			want[rec["_id"]] = true
		}
	}
	return want
}

func traceQuery(c *runConfig) (*result, error) {
	in := newQueryInputs(c.seed)
	res := tracedResult()
	be, err := startBackends(in.sources)
	if err != nil {
		return nil, err
	}
	defer be.stop()
	client := newClient(1)
	srv, err := startQueryServer(c, client, in, be)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	var e2e []time.Duration
	deadline := time.Now().Add(time.Duration(replayShare * float64(c.measure())))
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		_, err := post(client, srv.addr+"/query", []byte(in.queries[i%len(in.queries)].text))
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		e2e = append(e2e, time.Since(t0))
	}
	srv.stop()

	// The same queries through the metaquery engine in process, configured
	// as formserve configures it, with the benchmark's tracer collecting
	// the engine's route/translate/fanout/unify spans.
	pool, err := formext.NewPool()
	if err != nil {
		return nil, err
	}
	var regs []metaquery.Source
	for _, s := range in.sources {
		r, err := pool.ExtractBytes(context.Background(), []byte(s.src.HTML))
		if err != nil {
			return nil, err
		}
		regs = append(regs, metaquery.Source{ID: s.src.ID, Endpoint: be.endpoint(s.src.ID), Model: r.Model, Form: r.Form})
	}
	sink := &collectSink{}
	engine := metaquery.New(metaquery.Config{MaxFanout: 8, Timeout: 10 * time.Second, Tracer: obs.NewTracer(sink)})
	engine.SetSources(regs)
	rec := newRecorder()
	degraded, n := 0, 0
	deadline = time.Now().Add(time.Duration((1 - replayShare) * float64(c.measure())))
	for req := 0; time.Now().Before(deadline); req++ {
		root := rec.begin(req, 0, "request")
		be.trace.Store(&backendSpan{rec, req, root})
		ans, err := engine.Query(context.Background(), in.queries[req%len(in.queries)].text)
		be.trace.Store(nil)
		res.Attempted++
		n++
		if err != nil {
			res.Failed++
			rec.end(root)
			continue
		}
		if len(ans.Degraded) > 0 {
			degraded++
		}
		if tr := sink.take(); tr != nil {
			rec.adopt(req, root, "metaquery", tr.Root())
		}
		rec.end(root)
	}
	res.set("metaquery.degraded_share", float64(degraded)/float64(max(n, 1)), "ratio")
	lr := newLayerReport(rec, res)
	lr.layer("metaquery", "", true)
	lr.layer("metaquery.route", "metaquery.route_us", false)
	lr.layer("metaquery.translate", "metaquery.translate_us", false)
	lr.layer("metaquery.fanout", "metaquery.fanout_us", false)
	lr.layer("metaquery.unify", "metaquery.unify_us", false)
	var calls []time.Duration
	for _, s := range lr.spans {
		if s.Name == "simsource" {
			calls = append(calls, s.dur())
		}
	}
	res.set("simsource.us", us(median(calls)), "us")
	lr.residual(median(e2e))
	lr.write(c.spanDir, c.workload, c.seed)
	return res, nil
}
