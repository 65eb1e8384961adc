package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	h, err := newHandler(config{traceBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestExtractEndpoint(t *testing.T) {
	srv := newTestServer(t)
	form := `<form action="/s"><table>
	<tr><td>Author</td><td><input type="text" name="a" size="30"></td></tr>
	<tr><td>Format</td><td><select name="f"><option>Hard</option><option>Soft</option></select></td></tr>
	</table></form>`
	resp, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader(form))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Model.Conditions) != 2 {
		t.Fatalf("conditions = %+v", out.Model.Conditions)
	}
	if out.Model.Conditions[0].Attribute != "Author" {
		t.Errorf("condition 0 = %+v", out.Model.Conditions[0])
	}
	if out.Tokens == 0 || out.Stats.InstancesCreated == 0 {
		t.Errorf("stats empty: %+v", out.Stats)
	}
	if len(out.Trees) != 0 {
		t.Error("trees included without ?trees=1")
	}
}

func TestExtractWithTrees(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/extract?trees=1", "text/html",
		strings.NewReader(`<form>X <input type=text name=x></form>`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trees) == 0 || !strings.Contains(out.Trees[0], "QI") {
		t.Errorf("trees = %v", out.Trees)
	}
}

func TestExtractRejectsGet(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/extract")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestExtractBodyTooLargeIs413(t *testing.T) {
	srv := newTestServer(t)
	big := strings.Repeat("x", maxBody+1)
	resp, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// brokenReader fails mid-body, standing in for a client disconnect.
type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestExtractBodyReadErrorIs400(t *testing.T) {
	h, err := newHandler(config{traceBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/extract", brokenReader{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (read errors are not 413)", rec.Code)
	}
}

// TestExtractChunkedBody: a body sent without a Content-Length (chunked
// transfer encoding) is read in full and extracted.
func TestExtractChunkedBody(t *testing.T) {
	srv := newTestServer(t)
	form := `<form action="/s">Author <input type="text" name="a"></form>`
	// Hiding the reader's concrete type keeps the client from computing a
	// Content-Length, so the body goes out chunked.
	body := struct{ io.Reader }{strings.NewReader(form)}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/extract", body)
	if err != nil {
		t.Fatal(err)
	}
	if req.ContentLength != 0 {
		t.Fatalf("request declares Content-Length %d, want none", req.ContentLength)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Model == nil || len(out.Model.Conditions) != 1 || out.Model.Conditions[0].Attribute != "Author" {
		t.Errorf("chunked body extracted to %+v, want one Author condition", out.Model)
	}
}

// TestExtractChunkedBodyTooLargeIs413: without a declared length the cap
// is enforced while reading.
func TestExtractChunkedBodyTooLargeIs413(t *testing.T) {
	srv := newTestServer(t)
	body := struct{ io.Reader }{strings.NewReader(strings.Repeat("x", maxBody+1))}
	resp, err := http.Post(srv.URL+"/extract", "text/html", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// TestExtractDeclaredLengthChecks drives readPage's Content-Length path
// directly: a declared length over the cap is refused with 413 before the
// body is read, and a body shorter than its declared length — or one that
// breaks off — is a 400, never a truncated extraction.
func TestExtractDeclaredLengthChecks(t *testing.T) {
	h, err := newHandler(config{traceBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body io.Reader
		n    int64
		want int
	}{
		{"over cap", strings.NewReader("<form></form>"), maxBody + 1, http.StatusRequestEntityTooLarge},
		{"short body", strings.NewReader("<form>"), 4096, http.StatusBadRequest},
		{"aborted body", io.MultiReader(strings.NewReader("<form>"), brokenReader{}), 4096, http.StatusBadRequest},
		{"exact", strings.NewReader("<form></form>"), int64(len("<form></form>")), http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodPost, "/extract", tc.body)
		req.ContentLength = tc.n
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestMetricsCountsExtractions(t *testing.T) {
	srv := newTestServer(t)
	read := func() map[string]any {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	count := func(m map[string]any, key string) float64 {
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("metric %q missing or not numeric: %v", key, m[key])
		}
		return v
	}
	before := read()
	resp, err := http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(`<form>X <input type=text name=x></form>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	after := read()
	if d := count(after, "formserve_extractions_total") - count(before, "formserve_extractions_total"); d != 1 {
		t.Errorf("extractions delta = %v, want 1", d)
	}
	for _, key := range []string{
		"formserve_extract_latency_ns_total",
		"formserve_tokens_total",
		"formserve_instances_total",
	} {
		if count(after, key) <= count(before, key) {
			t.Errorf("metric %q did not advance", key)
		}
	}
	reqs, ok := after["formserve_requests_total"].(map[string]any)
	if !ok || reqs["/extract"] == nil {
		t.Errorf("request counts missing: %v", after["formserve_requests_total"])
	}
}

// TestMetricsArePerServer builds two servers in one process: each /metrics
// reports its own cache and counters, and building the second leaves the
// first's view intact.
func TestMetricsArePerServer(t *testing.T) {
	a, err := newHandler(config{cacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{`<form>X <input type=text name=x></form>`, `<form>Y <input type=text name=y></form>`} {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(page)))
		if rec.Code != http.StatusOK {
			t.Fatalf("extract status = %d", rec.Code)
		}
	}
	b, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(s *server) map[string]json.RawMessage {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("/metrics is not one JSON object: %v\n%s", err, rec.Body)
		}
		// The 30 formserve_* metrics plus expvar's cmdline and memstats.
		if len(m) != 32 {
			t.Errorf("/metrics has %d keys, want 32", len(m))
		}
		return m
	}
	ma, mb := read(a), read(b)
	var cache struct {
		Misses int64 `json:"cache_misses"`
	}
	if err := json.Unmarshal(ma["formserve_cache"], &cache); err != nil || cache.Misses != 2 {
		t.Errorf("server A formserve_cache = %s, want 2 misses", ma["formserve_cache"])
	}
	if got := string(mb["formserve_cache"]); got != "null" {
		t.Errorf("server B (no cache) formserve_cache = %s, want null", got)
	}
	if got := string(ma["formserve_extractions_total"]); got != "2" {
		t.Errorf("server A formserve_extractions_total = %s, want 2", got)
	}
	if got := string(mb["formserve_extractions_total"]); got != "0" {
		t.Errorf("server B formserve_extractions_total = %s, want 0", got)
	}
	if got := string(mb["formserve_requests_total"]); strings.Contains(got, "/extract") {
		t.Errorf("server B formserve_requests_total = %s, counts server A's requests", got)
	}
}

// TestRequestsCountedPerRoute pins formserve_requests_total's keys: each
// registered route counts under its own path, /sources/<id> under
// /sources, and a path no route claims under "other".
func TestRequestsCountedPerRoute(t *testing.T) {
	s, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/", "/healthz", "/grammar", "/sources", "/sources/x", "/nope", "/extract/x"} {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		Requests map[string]int `json:"formserve_requests_total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"/": 1, "/healthz": 1, "/grammar": 1, "/sources": 2, "other": 2, "/metrics": 1}
	if !reflect.DeepEqual(m.Requests, want) {
		t.Errorf("formserve_requests_total = %v, want %v", m.Requests, want)
	}
}

func TestGrammarRejectsPost(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/grammar", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /grammar status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}
}

func TestIndexPageHasNoDeadFormJS(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), "this.form.raw") {
		t.Error("index page still carries the dead onchange JS")
	}
	if !strings.Contains(string(body), "fetch('/extract'") {
		t.Error("index page lost its extract button")
	}
}

func TestGrammarEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/grammar")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "start QI;") {
		t.Error("grammar endpoint content wrong")
	}
}

func TestIndexAndNotFound(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("index status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("not-found status = %d", resp.StatusCode)
	}
}

func TestMetricsLatencyHistogram(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(`<form>X <input type=text name=x></form>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Count   uint64 `json:"count"`
		Sum     int64  `json:"sum"`
		Min     int64  `json:"min"`
		Max     int64  `json:"max"`
		Buckets []struct {
			Le    any    `json:"le"`
			Count uint64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(m["formserve_extract_latency_ns"], &h); err != nil {
		t.Fatalf("latency histogram not valid JSON: %v\n%s", err, m["formserve_extract_latency_ns"])
	}
	if h.Count == 0 || h.Min <= 0 || h.Max < h.Min || h.Sum < h.Max {
		t.Errorf("histogram not interpretable: %+v", h)
	}
	if len(h.Buckets) == 0 {
		t.Fatal("histogram has no buckets")
	}
	if last := h.Buckets[len(h.Buckets)-1]; last.Le != "+Inf" || last.Count != h.Count {
		t.Errorf("terminal bucket = %+v, want +Inf with count %d", last, h.Count)
	}
	for _, key := range []string{
		"formserve_fixpoint_iters_total",
		"formserve_prunes_total",
		"formserve_rollbacks_total",
		"formserve_merge_conflicts_total",
		"formserve_merge_missing_total",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q not published", key)
		}
	}
}

func TestExtractTraceIDAndTracesEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(`<form>X <input type=text name=x></form>`))
	if err != nil {
		t.Fatal(err)
	}
	var out extractResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("response has no traceId")
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr != out.TraceID {
		t.Errorf("X-Trace-Id = %q, want %q", hdr, out.TraceID)
	}
	if out.Stats.FixpointIters == 0 {
		t.Error("fixpointIters not reported")
	}

	// The buffered trace is retrievable by ID and spans every stage.
	resp, err = http.Get(srv.URL + "/traces?id=" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces?id: status %d", resp.StatusCode)
	}
	var tr struct {
		TraceID string `json:"traceId"`
		Root    struct {
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != out.TraceID {
		t.Errorf("trace id = %q, want %q", tr.TraceID, out.TraceID)
	}
	got := map[string]bool{}
	for _, c := range tr.Root.Children {
		got[c.Name] = true
	}
	for _, stage := range []string{"htmlparse", "layout", "tokenize", "parse", "merge"} {
		if !got[stage] {
			t.Errorf("trace missing stage %q", stage)
		}
	}
}

func TestTracesList(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/extract", "text/html",
			strings.NewReader(`<form>X <input type=text name=x></form>`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Count  int               `json:"count"`
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count < 2 || len(out.Traces) != out.Count {
		t.Errorf("traces list: count=%d len=%d", out.Count, len(out.Traces))
	}
}

func TestTracesUnknownIDIs404(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/traces?id=deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestTracesDisabled(t *testing.T) {
	h, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Extraction still works and still reports stage timings — only the
	// span tree (and so the trace ID) is absent.
	resp, err := http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(`<form>X <input type=text name=x></form>`))
	if err != nil {
		t.Fatal(err)
	}
	var out extractResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "" {
		t.Errorf("traceId = %q with tracing disabled", out.TraceID)
	}
	if out.Stats.Stages.Parse == 0 {
		t.Error("stage timings absent with tracing disabled")
	}

	resp, err = http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /traces with tracing disabled: %d, want 404", resp.StatusCode)
	}
}
