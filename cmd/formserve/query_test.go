package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"formext/internal/dataset"
	"formext/internal/metaquery"
	"formext/internal/metaquery/simsource"
	"formext/internal/model"
)

// queryLab backs the serving tests: generated same-domain sources, each
// with a live simulated backend, and a formserve handler to register them
// against.
type queryLab struct {
	srv     *server
	gen     []dataset.Source
	servers map[string]*httptest.Server
}

func newQueryLab(t *testing.T, n int, seed int64) *queryLab {
	t.Helper()
	srv, err := newHandler(config{queryFanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	l := &queryLab{srv: srv, servers: map[string]*httptest.Server{}}
	l.gen = dataset.Generate(dataset.Config{
		Seed: seed, Sources: n, Schemas: []dataset.Schema{dataset.Books},
		MinConds: 8, MaxConds: 10, Hardness: 0,
	})
	for _, src := range l.gen {
		sim := simsource.New(src, seed, 24)
		ts := httptest.NewServer(sim.Handler())
		t.Cleanup(ts.Close)
		l.servers[src.ID] = ts
	}
	return l
}

func (l *queryLab) register(t *testing.T, src dataset.Source) {
	t.Helper()
	spec := sourceSpec{ID: src.ID, Endpoint: l.servers[src.ID].URL, HTML: src.HTML}
	body, _ := json.Marshal(spec)
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/sources", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("register %s: %d %s", src.ID, w.Code, w.Body)
	}
}

// queryAttr picks a unified enum attribute with a usable value, preferring
// one every registered source carries so queries fan out everywhere.
func (l *queryLab) queryAttr(t *testing.T) (string, string) {
	t.Helper()
	sources := l.srv.engine.Sources()
	covers := func(attr string) bool {
		key := model.NormalizeLabel(attr)
		for _, s := range sources {
			found := false
			for i := range s.Model.Conditions {
				if model.NormalizeLabel(s.Model.Conditions[i].Attribute) == key {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	fallbackAttr, fallbackVal := "", ""
	for _, u := range l.srv.engine.Unified() {
		if u.Domain.Kind != model.EnumDomain {
			continue
		}
		uc := u
		pool := simsource.ValuePool(&uc)
		if len(pool) == 0 {
			continue
		}
		if covers(u.Attribute) {
			return u.Attribute, pool[0]
		}
		if fallbackAttr == "" {
			fallbackAttr, fallbackVal = u.Attribute, pool[0]
		}
	}
	if fallbackAttr != "" {
		return fallbackAttr, fallbackVal
	}
	t.Fatal("no queryable unified enum attribute")
	return "", ""
}

func TestServeQueryEndToEnd(t *testing.T) {
	l := newQueryLab(t, 3, 11)
	for _, src := range l.gen {
		l.register(t, src)
	}

	// The registry reflects the registrations and a non-trivial unified
	// interface.
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("GET", "/sources", nil))
	var listing struct {
		Count   int             `json:"count"`
		Unified int             `json:"unified"`
		Sources []sourceSummary `json:"sources"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 3 || listing.Unified == 0 {
		t.Fatalf("listing = %d sources, %d unified", listing.Count, listing.Unified)
	}
	for _, s := range listing.Sources {
		if s.Conditions == 0 || s.Action == "" {
			t.Fatalf("registered source missing extraction facts: %+v", s)
		}
	}

	attr, val := l.queryAttr(t)
	w = httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader("["+attr+"="+val+"]")))
	if w.Code != 200 {
		t.Fatalf("/query: %d %s", w.Code, w.Body)
	}
	var ans metaquery.Answer
	if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Degraded) != 0 {
		t.Fatalf("healthy sources degraded: %v", ans.Degraded)
	}
	if ans.Fanout == 0 || len(ans.Records) == 0 {
		t.Fatalf("answer fanned out to %d sources, %d records", ans.Fanout, len(ans.Records))
	}
	for _, r := range ans.Records {
		if len(r.Sources) == 0 {
			t.Fatalf("record without source attribution: %+v", r)
		}
	}
}

func TestServeQueryDegradesOnDeadSource(t *testing.T) {
	l := newQueryLab(t, 3, 23)
	for _, src := range l.gen {
		l.register(t, src)
	}
	attr, val := l.queryAttr(t)

	// Learn which sources this query actually reaches, then kill one of
	// them — killing a source the query never routes to would (correctly)
	// not degrade anything.
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader(attr+"="+val)))
	var healthy metaquery.Answer
	if err := json.Unmarshal(w.Body.Bytes(), &healthy); err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, rep := range healthy.Sources {
		if rep.Eligible {
			victim = rep.ID
			break
		}
	}
	if victim == "" {
		t.Fatal("query reached no source")
	}
	l.servers[victim].Close()

	w = httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader(attr+"="+val)))
	if w.Code != 200 {
		t.Fatalf("dead source must degrade, not error: %d %s", w.Code, w.Body)
	}
	var ans metaquery.Answer
	if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Degraded) == 0 {
		t.Fatal("no degradation reported for a dead source")
	}
}

func TestServeQueryMalformed(t *testing.T) {
	l := newQueryLab(t, 1, 31)
	for _, q := range []string{"", "[]", "[author]", "[=v]"} {
		w := httptest.NewRecorder()
		l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(q)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("query %q: %d, want 400", q, w.Code)
		}
	}
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("GET", "/query", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d, want 405", w.Code)
	}
}

func TestServeSourcesCRUD(t *testing.T) {
	l := newQueryLab(t, 2, 41)
	for _, src := range l.gen {
		l.register(t, src)
	}
	// Re-registering is an upsert, not a duplicate.
	l.register(t, l.gen[0])
	if n := len(l.srv.engine.Sources()); n != 2 {
		t.Fatalf("after upsert: %d sources, want 2", n)
	}

	// Per-id GET and DELETE.
	id := l.gen[0].ID
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("GET", "/sources/"+id, nil))
	if w.Code != 200 {
		t.Fatalf("GET /sources/%s: %d", id, w.Code)
	}
	w = httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("DELETE", "/sources/"+id, nil))
	if w.Code != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", w.Code)
	}
	w = httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("DELETE", "/sources/"+id, nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d, want 404", w.Code)
	}
	if n := len(l.srv.engine.Sources()); n != 1 {
		t.Fatalf("after delete: %d sources, want 1", n)
	}

	// Bad registrations are rejected with the reason.
	for _, spec := range []sourceSpec{
		{Endpoint: "http://x", HTML: "<form></form>"},          // no id
		{ID: "s", HTML: "<form></form>"},                       // no endpoint
		{ID: "s", Endpoint: "http://x"},                        // no page
		{ID: "s", Endpoint: "http://x", HTML: "<p>static</p>"}, // no conditions
	} {
		body, _ := json.Marshal(spec)
		w := httptest.NewRecorder()
		l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/sources", bytes.NewReader(body)))
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("spec %+v: %d, want 422", spec, w.Code)
		}
	}
}

func TestServeSourcesFileStartup(t *testing.T) {
	gen := dataset.Generate(dataset.Config{
		Seed: 53, Sources: 2, Schemas: []dataset.Schema{dataset.Books},
		MinConds: 8, MaxConds: 10,
	})
	dir := t.TempDir()
	htmlPath := filepath.Join(dir, "s1.html")
	if err := os.WriteFile(htmlPath, []byte(gen[0].HTML), 0o644); err != nil {
		t.Fatal(err)
	}
	specs := []sourceSpec{
		{ID: gen[0].ID, Endpoint: "http://s1.example", HTMLFile: htmlPath},
		{ID: gen[1].ID, Endpoint: "http://s2.example", HTML: gen[1].HTML},
	}
	data, _ := json.Marshal(specs)
	specPath := filepath.Join(dir, "sources.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := newHandler(config{sourcesFile: specPath})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := len(srv.engine.Sources()); n != 2 {
		t.Fatalf("startup registered %d sources, want 2", n)
	}

	// A bad entry fails startup instead of silently dropping a source.
	bad, _ := json.Marshal([]sourceSpec{{ID: "x", Endpoint: "http://x"}})
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newHandler(config{sourcesFile: badPath}); err == nil {
		t.Fatal("bad sources file accepted at startup")
	}
}

func TestServeQueryMetrics(t *testing.T) {
	l := newQueryLab(t, 2, 61)
	for _, src := range l.gen {
		l.register(t, src)
	}
	attr, val := l.queryAttr(t)
	w := httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader("["+attr+"="+val+"]")))
	if w.Code != 200 {
		t.Fatalf("/query: %d", w.Code)
	}
	if got := l.srv.m.queries.Value(); got != 1 {
		t.Fatalf("formserve_query_total = %d, want 1", got)
	}

	w = httptest.NewRecorder()
	l.srv.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	for _, key := range []string{
		"formserve_query_total", "formserve_query_degraded_total",
		"formserve_query_latency_ns", "formserve_query_source_registrations_total",
	} {
		if !strings.Contains(body, key) {
			t.Errorf("/metrics missing %s", key)
		}
	}
}
