package metaquery_test

import (
	"context"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"formext/internal/dataset"
	"formext/internal/metaquery"
	"formext/internal/metaquery/simsource"
	"formext/internal/model"
	"formext/internal/submit"
)

// simDomain spins up n simulated sources of one schema, with the ground
// truth standing in for the extracted model (extraction-based flows are
// exercised by cmd/formquery). Cleanup closes the servers.
type simDomain struct {
	sources []metaquery.Source
	sims    map[string]*simsource.Source
	servers map[string]*httptest.Server
}

func newSimDomain(t *testing.T, schema dataset.Schema, n int, seed int64) *simDomain {
	t.Helper()
	gen := dataset.Generate(dataset.Config{
		Seed: seed, Sources: n, Schemas: []dataset.Schema{schema},
		MinConds: 8, MaxConds: 10, Hardness: 0,
	})
	d := &simDomain{
		sims:    map[string]*simsource.Source{},
		servers: map[string]*httptest.Server{},
	}
	for _, src := range gen {
		sim := simsource.New(src, seed, 40)
		ts := httptest.NewServer(sim.Handler())
		t.Cleanup(ts.Close)
		d.sims[src.ID] = sim
		d.servers[src.ID] = ts
		truth := src.Truth
		d.sources = append(d.sources, metaquery.Source{
			ID:       src.ID,
			Endpoint: ts.URL,
			Model:    &model.SemanticModel{Conditions: truth},
			Form:     submit.FormInfo{Action: "/search", Method: "get", Hidden: url.Values{}},
		})
	}
	return d
}

// oracle computes the expected record IDs: every source whose ground truth
// carries all constrained attributes, filtered by the shared MatchValue
// predicate.
func (d *simDomain) oracle(cons []metaquery.Constraint) map[string]bool {
	want := map[string]bool{}
	for _, s := range d.sources {
		conds := map[string]*model.Condition{}
		for i := range s.Model.Conditions {
			c := &s.Model.Conditions[i]
			conds[model.NormalizeLabel(c.Attribute)] = c
		}
		covered := true
		for _, k := range cons {
			if conds[model.NormalizeLabel(k.Attr)] == nil {
				covered = false
			}
		}
		if !covered {
			continue
		}
	next:
		for _, rec := range d.sims[s.ID].Records() {
			for _, k := range cons {
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

func answerIDs(ans *metaquery.Answer) map[string]bool {
	got := map[string]bool{}
	for _, r := range ans.Records {
		for _, id := range r.IDs {
			got[id] = true
		}
	}
	return got
}

// pickCond finds a unified condition of the wanted kind with a usable
// value pool.
func pickCond(t *testing.T, e *metaquery.Engine, kind model.DomainKind) (string, string) {
	t.Helper()
	for _, u := range e.Unified() {
		if u.Domain.Kind != kind {
			continue
		}
		uc := u
		if pool := simsource.ValuePool(&uc); len(pool) > 0 {
			return u.Attribute, pool[0]
		}
	}
	t.Fatalf("no unified %s condition", kind)
	return "", ""
}

// pickCovered is pickCond restricted to attributes every source carries,
// so the query fans out to the whole domain.
func pickCovered(t *testing.T, e *metaquery.Engine, d *simDomain, kind model.DomainKind) (string, string) {
	t.Helper()
	for _, u := range e.Unified() {
		if u.Domain.Kind != kind {
			continue
		}
		covered := 0
		for _, s := range d.sources {
			for i := range s.Model.Conditions {
				if model.NormalizeLabel(s.Model.Conditions[i].Attribute) == model.NormalizeLabel(u.Attribute) {
					covered++
					break
				}
			}
		}
		if covered != len(d.sources) {
			continue
		}
		uc := u
		if pool := simsource.ValuePool(&uc); len(pool) > 0 {
			return u.Attribute, pool[0]
		}
	}
	t.Skipf("no unified %s condition covered by all %d sources at this seed", kind, len(d.sources))
	return "", ""
}

func TestEngineBooksEndToEnd(t *testing.T) {
	d := newSimDomain(t, dataset.Books, 3, 11)
	e := metaquery.New(metaquery.Config{})
	e.SetSources(d.sources)
	if len(e.Unified()) == 0 {
		t.Fatal("empty unified interface over 3 same-domain sources")
	}

	attr, val := pickCond(t, e, model.EnumDomain)
	ans, err := e.Query(context.Background(), "["+attr+"="+val+"]")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(ans.Degraded) != 0 {
		t.Fatalf("healthy domain degraded: %v", ans.Degraded)
	}
	if ans.Fanout == 0 {
		t.Fatal("no sources queried")
	}
	cons := []metaquery.Constraint{{Attr: attr, Op: metaquery.OpEq, Value: val}}
	want, got := d.oracle(cons), answerIDs(ans)
	if len(want) == 0 {
		t.Fatalf("oracle empty for %s=%s; test query is vacuous", attr, val)
	}
	for id := range want {
		if !got[id] {
			t.Errorf("expected record %s missing from answer", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("answer record %s not in oracle", id)
		}
	}
	// Attribution names real sources.
	for _, r := range ans.Records {
		if len(r.Sources) == 0 || r.Support != len(r.Sources) {
			t.Fatalf("record without attribution: %+v", r)
		}
	}
}

func TestEngineRangeOperatorPostFilter(t *testing.T) {
	d := newSimDomain(t, dataset.Books, 3, 23)
	e := metaquery.New(metaquery.Config{})
	e.SetSources(d.sources)

	attr, val := pickCond(t, e, model.RangeDomain)
	cons := []metaquery.Constraint{{Attr: attr, Op: metaquery.OpLt, Value: val}}
	ans := e.Execute(context.Background(), cons)
	want, got := d.oracle(cons), answerIDs(ans)
	for id := range got {
		if !want[id] {
			t.Errorf("strict < over-matched: %s", id)
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("strict < lost %s", id)
		}
	}
	// A strict bound is inexpressible exactly through inclusive endpoint
	// fields; the engine must declare the post-filtering.
	if len(ans.Routed) == 0 {
		t.Fatal("range constraint did not route")
	}
}

func TestEngineUnroutableConstraintDegrades(t *testing.T) {
	d := newSimDomain(t, dataset.Books, 3, 31)
	e := metaquery.New(metaquery.Config{})
	e.SetSources(d.sources)

	ans, err := e.Query(context.Background(), "[zorble quux=1; nonexistent attr=2]")
	if err != nil {
		t.Fatalf("unroutable constraints must degrade, not error: %v", err)
	}
	if len(ans.Unrouted) != 2 {
		t.Fatalf("unrouted = %v, want both terms", ans.Unrouted)
	}
	if len(ans.Degraded) == 0 {
		t.Fatal("no degradation reported")
	}
	if len(ans.Records) != 0 {
		t.Fatal("records returned for a query that routed nowhere")
	}

	// A routable constraint beside an unroutable one: the answer to the
	// routable one alone would be wider than the query, so the engine
	// reports where the query would go but returns no records.
	attr, val := pickCond(t, e, model.EnumDomain)
	ans, err = e.Query(context.Background(), "["+attr+"="+val+"; zorble quux=1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routed) != 1 || len(ans.Unrouted) != 1 {
		t.Fatalf("routed = %v, unrouted = %v; want one each", ans.Routed, ans.Unrouted)
	}
	if len(ans.Records) != 0 || ans.Fanout != 0 {
		t.Errorf("%d records from %d sources for a partly unrouted query", len(ans.Records), ans.Fanout)
	}
	if len(ans.Sources) != len(d.sources) || !ans.Sources[0].Eligible {
		t.Errorf("source reports = %+v, want every source reported eligible", ans.Sources)
	}
	if len(ans.Degraded) < 2 {
		t.Errorf("degraded = %v, want the unrouted term and the empty answer", ans.Degraded)
	}
}

func TestEngineNoSources(t *testing.T) {
	e := metaquery.New(metaquery.Config{})
	ans, err := e.Query(context.Background(), "[author=alpha]")
	if err != nil {
		t.Fatalf("empty engine must degrade, not error: %v", err)
	}
	if len(ans.Degraded) == 0 {
		t.Fatal("no degradation reported with zero sources")
	}
}

func TestEngineMalformedQuery(t *testing.T) {
	e := metaquery.New(metaquery.Config{})
	for _, q := range []string{"", "[]", "[author]", "[=v]", "[author=]"} {
		if _, err := e.Query(context.Background(), q); err == nil {
			t.Errorf("query %q: want parse error", q)
		}
	}
}

func TestEngineSourceCRUD(t *testing.T) {
	d := newSimDomain(t, dataset.Books, 3, 41)
	e := metaquery.New(metaquery.Config{})
	for _, s := range d.sources {
		e.AddSource(s)
	}
	if n := len(e.Sources()); n != 3 {
		t.Fatalf("sources = %d, want 3", n)
	}
	// Upsert keeps the count.
	e.AddSource(d.sources[1])
	if n := len(e.Sources()); n != 3 {
		t.Fatalf("after upsert sources = %d, want 3", n)
	}
	if !e.RemoveSource(d.sources[0].ID) {
		t.Fatal("remove of registered source reported false")
	}
	if e.RemoveSource("no-such-source") {
		t.Fatal("remove of unknown source reported true")
	}
	if n := len(e.Sources()); n != 2 {
		t.Fatalf("after remove sources = %d, want 2", n)
	}
	// A lone source still yields a queryable unified interface.
	e.SetSources(d.sources[:1])
	if len(e.Unified()) == 0 {
		t.Fatal("single-source engine has empty unified interface")
	}
}

// TestEngineConcurrentKillSourceDegrades is the partial-failure acceptance
// test: one simulated source dies mid-workload while queries keep running
// concurrently. Every query must come back as an answer (zero errors), and
// once the source is dead its failures must surface as degradation, not as
// silence.
func TestEngineConcurrentKillSourceDegrades(t *testing.T) {
	d := newSimDomain(t, dataset.Books, 3, 53)
	e := metaquery.New(metaquery.Config{MaxFanout: 8})
	e.SetSources(d.sources)
	attr, val := pickCovered(t, e, d, model.EnumDomain)
	q := "[" + attr + "=" + val + "]"

	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var degradedAnswers, errors int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					// Synchronous kill: worker 0's remaining queries are
					// guaranteed to run against a dead source.
					d.servers[d.sources[0].ID].Close()
				}
				ans, err := e.Query(context.Background(), q)
				mu.Lock()
				if err != nil {
					errors++
				} else if len(ans.Degraded) > 0 {
					degradedAnswers++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if errors != 0 {
		t.Fatalf("%d query errors; a dead source must never error the query", errors)
	}
	// The tail of the workload ran against a dead source: degradation must
	// have been observed and reported.
	if degradedAnswers == 0 {
		t.Fatal("source died mid-workload but no answer reported degradation")
	}
	// Post-kill queries still answer from the survivors.
	ans, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	if len(ans.Degraded) == 0 {
		t.Fatal("post-kill answer not degraded")
	}
	for _, rep := range ans.Sources {
		if rep.ID == d.sources[0].ID && rep.Err == "" && rep.Eligible {
			t.Fatal("dead source reported no error")
		}
	}
}
