// Command formquery closes the deep-web loop end to end and measures it:
// it generates multi-source domains (internal/dataset), serves each source
// as a live simulated backend with a checkable record table
// (internal/metaquery/simsource), extracts every interface through the
// real pipeline, registers the extracted models in a metaquery engine, and
// drives a concurrent query workload through extract → unify → translate
// → submit → unify-results.
//
// Output is an EXPERIMENTS-style accuracy table on stderr (routing
// precision/recall per domain, answer completeness/soundness vs the
// ground-truth oracle) and a machine-readable report on stdout (schema
// formext-query-report/v1) with fan-out throughput and latency, plus an
// optional kill phase: one source dies and the workload keeps running,
// counting degraded answers and requiring zero query errors. Its end-to-end
// serving figures are the BENCHMARK.json ledger's query workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"formext"
	"formext/internal/dataset"
	"formext/internal/metaquery"
	"formext/internal/metaquery/simsource"
	"formext/internal/model"
)

const reportSchema = "formext-query-report/v1"

type options struct {
	domains     string
	perDomain   int
	records     int
	queries     int
	concurrency int
	fanout      int
	seed        int64
	hardness    float64
	kill        bool
	minRouting  float64
}

// labSource is one simulated source with its ground truth and backend.
type labSource struct {
	domain string
	src    dataset.Source
	sim    *simsource.Source
	server *httptest.Server
}

// lab is the full experimental setup: sources across domains, the engine
// over their extracted models, and the query workload.
type lab struct {
	opt     options
	schemas []dataset.Schema
	sources []*labSource
	engine  *metaquery.Engine
}

func main() {
	var opt options
	flag.StringVar(&opt.domains, "domains", "Books,Airfares,Automobiles",
		"comma-separated domain schemas to build")
	flag.IntVar(&opt.perDomain, "per-domain", 4, "sources per domain")
	flag.IntVar(&opt.records, "records", 48, "records per source")
	flag.IntVar(&opt.queries, "queries", 60, "queries in the workload")
	flag.IntVar(&opt.concurrency, "concurrency", 8, "concurrent queries")
	flag.IntVar(&opt.fanout, "fanout", 8, "engine per-source fan-out bound")
	flag.Int64Var(&opt.seed, "seed", 11, "deterministic seed")
	flag.Float64Var(&opt.hardness, "hardness", 0, "generator hardness (0 = noise-free)")
	flag.BoolVar(&opt.kill, "kill", true, "kill one source mid-run and re-drive the workload")
	flag.Float64Var(&opt.minRouting, "min-routing", 0.9,
		"fail below this routing precision/recall on noise-free runs (0 disables)")
	flag.Parse()

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "formquery:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	schemas, err := resolveSchemas(opt.domains)
	if err != nil {
		return err
	}
	l := &lab{opt: opt, schemas: schemas}
	defer l.close()
	if err := l.build(); err != nil {
		return err
	}

	queries := l.makeWorkload()
	phase1 := l.drive(queries)
	report, err := l.score(queries, phase1)
	if err != nil {
		return err
	}

	if opt.kill {
		victim := l.sources[0]
		victim.server.Close()
		phase2 := l.drive(queries)
		k := killReport{KilledSource: victim.src.ID, Queries: len(queries)}
		for _, r := range phase2 {
			if r.err != nil {
				k.Errors++
			} else if len(r.ans.Degraded) > 0 {
				k.DegradedAnswers++
			}
		}
		k.QPS = qps(len(queries), phase2)
		report.Kill = &k
		if k.Errors > 0 {
			emit(report)
			return fmt.Errorf("kill phase: %d query errors; partial failure must degrade, not error", k.Errors)
		}
		if k.DegradedAnswers == 0 {
			emit(report)
			return fmt.Errorf("kill phase: dead source produced no degraded answers")
		}
	}

	emit(report)
	printTable(report)

	if opt.minRouting > 0 && opt.hardness == 0 {
		for _, d := range report.Domains {
			if d.RoutingPrecision < opt.minRouting || d.RoutingRecall < opt.minRouting {
				return fmt.Errorf("domain %s routing P=%.3f R=%.3f below the %.2f floor",
					d.Domain, d.RoutingPrecision, d.RoutingRecall, opt.minRouting)
			}
		}
	}
	return nil
}

func resolveSchemas(names string) ([]dataset.Schema, error) {
	byName := map[string]dataset.Schema{}
	for _, s := range dataset.AllSchemas {
		byName[strings.ToLower(s.Name)] = s
	}
	var out []dataset.Schema
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		s, ok := byName[strings.ToLower(n)]
		if !ok {
			return nil, fmt.Errorf("unknown domain schema %q", n)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no domains selected")
	}
	return out, nil
}

// build generates the domains, serves every source, extracts every
// interface through the real pipeline and registers the models.
func (l *lab) build() error {
	ex, err := formext.New()
	if err != nil {
		return err
	}
	var regs []metaquery.Source
	for di, schema := range l.schemas {
		gen := dataset.Generate(dataset.Config{
			Seed: l.opt.seed + int64(di)*101, Sources: l.opt.perDomain,
			Schemas:  []dataset.Schema{schema},
			MinConds: 8, MaxConds: 10, Hardness: l.opt.hardness,
		})
		for _, src := range gen {
			sim := simsource.New(src, l.opt.seed, l.opt.records)
			ts := httptest.NewServer(sim.Handler())
			l.sources = append(l.sources, &labSource{
				domain: schema.Name, src: src, sim: sim, server: ts,
			})
			res, err := ex.ExtractBytes(context.Background(), []byte(src.HTML))
			if err != nil {
				return fmt.Errorf("extract %s: %w", src.ID, err)
			}
			regs = append(regs, metaquery.Source{
				ID:       src.ID,
				Endpoint: ts.URL,
				Model:    res.Model,
				Form:     res.Form,
			})
		}
	}
	l.engine = metaquery.New(metaquery.Config{
		MaxFanout: l.opt.fanout,
		Timeout:   5 * time.Second,
	})
	l.engine.SetSources(regs)
	return nil
}

func (l *lab) close() {
	for _, s := range l.sources {
		s.server.Close()
	}
}

// query is one workload entry.
type query struct {
	domain string
	cons   []metaquery.Constraint
}

// makeWorkload samples queries per domain from the ground truth: only
// attributes carried by at least two sources (so they make the unified
// interface), values from the shared record pools, ordered operators on
// range and date attributes.
func (l *lab) makeWorkload() []query {
	rng := rand.New(rand.NewSource(l.opt.seed * 7919))
	type candidate struct {
		cond model.Condition
		pool []string
	}
	cands := map[string][]candidate{}
	for _, schema := range l.schemas {
		counts := map[string]int{}
		first := map[string]model.Condition{}
		for _, s := range l.sources {
			if s.domain != schema.Name {
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
			if counts[k] < 2 {
				continue
			}
			c := first[k]
			if pool := simsource.ValuePool(&c); len(pool) > 0 {
				cands[schema.Name] = append(cands[schema.Name], candidate{cond: c, pool: pool})
			}
		}
	}

	var out []query
	for qi := 0; qi < l.opt.queries; qi++ {
		schema := l.schemas[qi%len(l.schemas)]
		cs := cands[schema.Name]
		if len(cs) == 0 {
			continue
		}
		n := 1 + rng.Intn(2)
		if n > len(cs) {
			n = len(cs)
		}
		picked := rng.Perm(len(cs))[:n]
		q := query{domain: schema.Name}
		for _, pi := range picked {
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
			q.cons = append(q.cons, metaquery.Constraint{
				Attr:  c.cond.Attribute,
				Op:    op,
				Value: c.pool[rng.Intn(len(c.pool))],
			})
		}
		out = append(out, q)
	}
	return out
}

// outcome is one driven query's result.
type outcome struct {
	ans     *metaquery.Answer
	err     error
	latency time.Duration
	elapsed time.Duration // workload wall clock, set on index 0
}

// drive runs the workload at the configured concurrency.
func (l *lab) drive(queries []query) []outcome {
	out := make([]outcome, len(queries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.opt.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				t0 := time.Now()
				ans, err := l.engine.Query(context.Background(), metaquery.FormatQuery(queries[qi].cons))
				out[qi] = outcome{ans: ans, err: err, latency: time.Since(t0)}
			}
		}()
	}
	for qi := range queries {
		jobs <- qi
	}
	close(jobs)
	wg.Wait()
	if len(out) > 0 {
		out[0].elapsed = time.Since(start)
	}
	return out
}

// ---- scoring ----

type domainReport struct {
	Domain           string  `json:"domain"`
	Sources          int     `json:"sources"`
	Queries          int     `json:"queries"`
	RoutingPrecision float64 `json:"routing_precision"`
	RoutingRecall    float64 `json:"routing_recall"`
	Completeness     float64 `json:"answer_completeness"`
	Soundness        float64 `json:"answer_soundness"`
}

type latencyReport struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

type throughputReport struct {
	Queries   int           `json:"queries"`
	Fanout    int           `json:"fanout_bound"`
	ElapsedMs float64       `json:"elapsed_ms"`
	QPS       float64       `json:"qps"`
	Latency   latencyReport `json:"latency"`
}

type killReport struct {
	KilledSource    string  `json:"killed_source"`
	Queries         int     `json:"queries"`
	Errors          int     `json:"errors"`
	DegradedAnswers int     `json:"degraded_answers"`
	QPS             float64 `json:"qps"`
}

type report struct {
	Schema      string           `json:"schema"`
	Description string           `json:"description"`
	Config      map[string]any   `json:"config"`
	Domains     []domainReport   `json:"domains"`
	Overall     domainReport     `json:"overall"`
	Throughput  throughputReport `json:"throughput"`
	Kill        *killReport      `json:"kill,omitempty"`
}

// truthEligible lists the sources whose ground truth carries every
// constrained attribute — the routing oracle.
func (l *lab) truthEligible(q query) map[string]bool {
	out := map[string]bool{}
	for _, s := range l.sources {
		have := map[string]bool{}
		for _, c := range s.src.Truth {
			have[model.NormalizeLabel(c.Attribute)] = true
		}
		ok := true
		for _, k := range q.cons {
			if !have[model.NormalizeLabel(k.Attr)] {
				ok = false
				break
			}
		}
		if ok {
			out[s.src.ID] = true
		}
	}
	return out
}

// expectedIDs computes the answer oracle: records of truth-eligible
// sources filtered by the shared MatchValue predicate.
func (l *lab) expectedIDs(q query, eligible map[string]bool) map[string]bool {
	want := map[string]bool{}
	for _, s := range l.sources {
		if !eligible[s.src.ID] {
			continue
		}
		conds := map[string]*model.Condition{}
		for i := range s.src.Truth {
			conds[model.NormalizeLabel(s.src.Truth[i].Attribute)] = &s.src.Truth[i]
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

func (l *lab) score(queries []query, outs []outcome) (*report, error) {
	type agg struct {
		queries                       int
		routeTP, routePred, routeTrue int
		ansHit, ansWant, ansGot       int
	}
	perDomain := map[string]*agg{}
	overall := &agg{}

	for qi, q := range queries {
		o := outs[qi]
		if o.err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", qi, metaquery.FormatQuery(q.cons), o.err)
		}
		truth := l.truthEligible(q)
		want := l.expectedIDs(q, truth)
		got := map[string]bool{}
		for _, r := range o.ans.Records {
			for _, id := range r.IDs {
				got[id] = true
			}
		}
		a := perDomain[q.domain]
		if a == nil {
			a = &agg{}
			perDomain[q.domain] = a
		}
		for _, x := range []*agg{a, overall} {
			x.queries++
			for _, rep := range o.ans.Sources {
				if rep.Eligible {
					x.routePred++
					if truth[rep.ID] {
						x.routeTP++
					}
				}
			}
			x.routeTrue += len(truth)
			x.ansWant += len(want)
			x.ansGot += len(got)
			for id := range got {
				if want[id] {
					x.ansHit++
				}
			}
		}
	}

	toReport := func(name string, n int, a *agg) domainReport {
		return domainReport{
			Domain: name, Sources: n, Queries: a.queries,
			RoutingPrecision: ratio(a.routeTP, a.routePred),
			RoutingRecall:    ratio(a.routeTP, a.routeTrue),
			Completeness:     ratio(a.ansHit, a.ansWant),
			Soundness:        ratio(a.ansHit, a.ansGot),
		}
	}

	r := &report{
		Schema: reportSchema,
		Description: "MetaQuerier serving layer accuracy and throughput: generated multi-source domains, " +
			"models extracted by the real pipeline, queries routed/translated/submitted against live " +
			"simulated backends, answers unified and scored against the ground-truth record oracle.",
		Config: map[string]any{
			"domains": l.opt.domains, "per_domain": l.opt.perDomain,
			"records": l.opt.records, "queries": len(queries),
			"concurrency": l.opt.concurrency, "fanout": l.opt.fanout,
			"seed": l.opt.seed, "hardness": l.opt.hardness,
		},
	}
	for _, schema := range l.schemas {
		if a := perDomain[schema.Name]; a != nil {
			r.Domains = append(r.Domains, toReport(schema.Name, l.opt.perDomain, a))
		}
	}
	r.Overall = toReport("overall", len(l.sources), overall)

	lats := make([]time.Duration, len(outs))
	var elapsed time.Duration
	for i, o := range outs {
		lats[i] = o.latency
		if o.elapsed > 0 {
			elapsed = o.elapsed
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.Throughput = throughputReport{
		Queries:   len(outs),
		Fanout:    l.opt.fanout,
		ElapsedMs: ms(elapsed),
		QPS:       qps(len(outs), outs),
		Latency: latencyReport{
			P50Ms: ms(pct(lats, 50)), P90Ms: ms(pct(lats, 90)),
			P99Ms: ms(pct(lats, 99)), MaxMs: ms(lats[len(lats)-1]),
		},
	}
	return r, nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

func qps(n int, outs []outcome) float64 {
	var elapsed time.Duration
	for _, o := range outs {
		if o.elapsed > 0 {
			elapsed = o.elapsed
		}
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

func emit(r *report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(r)
}

func printTable(r *report) {
	w := os.Stderr
	fmt.Fprintf(w, "\n%-14s %7s %7s %10s %10s %12s %10s\n",
		"domain", "sources", "queries", "routing-P", "routing-R", "completeness", "soundness")
	rows := append(append([]domainReport{}, r.Domains...), r.Overall)
	for _, d := range rows {
		fmt.Fprintf(w, "%-14s %7d %7d %10.3f %10.3f %12.3f %10.3f\n",
			d.Domain, d.Sources, d.Queries,
			d.RoutingPrecision, d.RoutingRecall, d.Completeness, d.Soundness)
	}
	fmt.Fprintf(w, "\nthroughput: %d queries, fan-out %d, %.1f qps; latency p50 %.1fms p90 %.1fms p99 %.1fms\n",
		r.Throughput.Queries, r.Throughput.Fanout, r.Throughput.QPS,
		r.Throughput.Latency.P50Ms, r.Throughput.Latency.P90Ms, r.Throughput.Latency.P99Ms)
	if r.Kill != nil {
		fmt.Fprintf(w, "kill phase: source %s dead, %d queries, %d errors, %d degraded answers\n",
			r.Kill.KilledSource, r.Kill.Queries, r.Kill.Errors, r.Kill.DegradedAnswers)
	}
}
