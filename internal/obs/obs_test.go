package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every call on the disabled path must be a no-op, not a panic.
	var tracer *Tracer
	if tracer.Enabled() {
		t.Error("nil tracer enabled")
	}
	tr := tracer.Start("x")
	if tr != nil {
		t.Fatalf("nil tracer produced a trace: %v", tr)
	}
	if id := tr.TraceID(); id != "" {
		t.Errorf("nil trace ID = %q", id)
	}
	if tr.Root() != nil || tr.FindSpan("x") != nil {
		t.Error("nil trace has spans")
	}
	sp := tr.Span("stage")
	if sp != nil {
		t.Fatalf("nil trace produced a span")
	}
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.Event("e", Int("n", 2))
	child := sp.Span("child")
	child.End()
	sp.End()
	tr.End()
}

func TestDisabledTracerStartsNothing(t *testing.T) {
	tracer := NewTracer(nil)
	if tracer.Enabled() {
		t.Error("NewTracer(nil) must be disabled")
	}
	if tr := tracer.Start("x"); tr != nil {
		t.Errorf("disabled tracer produced trace %v", tr)
	}
}

func TestTraceSpanTreeAndSink(t *testing.T) {
	ring := NewRingSink(4)
	tracer := NewTracer(ring)
	if !tracer.Enabled() {
		t.Fatal("tracer with sink must be enabled")
	}

	tr := tracer.Start("extract")
	if tr.TraceID() == "" {
		t.Error("empty trace ID")
	}
	for _, stage := range Stages {
		sp := tr.Span(stage)
		sp.SetInt("n", 42)
		if stage == StageParse {
			g := sp.Span("fixpoint")
			g.SetStr("symbols", "Attr Val")
			g.Event("prune", Str("pref", "Q1"), Int("killed", 3))
			g.End()
		}
		sp.End()
	}
	tr.End()
	tr.End() // double End must deliver once

	if n := ring.Len(); n != 1 {
		t.Fatalf("ring holds %d traces, want 1", n)
	}
	got := ring.Traces()[0]
	if got != tr {
		t.Fatal("sink received a different trace")
	}
	if len(got.Root().Children) != len(Stages) {
		t.Fatalf("root has %d children, want %d", len(got.Root().Children), len(Stages))
	}
	fx := got.FindSpan("fixpoint")
	if fx == nil {
		t.Fatal("fixpoint span not found")
	}
	if len(fx.Events) != 1 || fx.Events[0].Name != "prune" {
		t.Errorf("fixpoint events = %+v", fx.Events)
	}
	if got.Root().Dur <= 0 {
		t.Error("root duration not set")
	}
	if ring.Find(tr.ID) != tr {
		t.Error("Find by ID failed")
	}
	if ring.Find("nope") != nil {
		t.Error("Find on unknown ID should be nil")
	}
}

func TestTraceJSONShape(t *testing.T) {
	ring := NewRingSink(1)
	tracer := NewTracer(ring)
	tr := tracer.Start("extract")
	sp := tr.Span("parse")
	sp.SetInt("instances", 7)
	sp.SetStr("grammar", "default")
	sp.Event("prune", Int("killed", 1))
	sp.End()
	tr.End()

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceID string `json:"traceId"`
		Name    string `json:"name"`
		DurUs   int64  `json:"durUs"`
		Root    struct {
			Name     string `json:"name"`
			Children []struct {
				Name   string         `json:"name"`
				Attrs  map[string]any `json:"attrs"`
				Events []struct {
					Name  string         `json:"name"`
					Attrs map[string]any `json:"attrs"`
				} `json:"events"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v\n%s", err, raw)
	}
	if out.TraceID != tr.ID || out.Name != "extract" || out.Root.Name != "extract" {
		t.Errorf("envelope wrong: %+v", out)
	}
	if len(out.Root.Children) != 1 {
		t.Fatalf("children = %d", len(out.Root.Children))
	}
	c := out.Root.Children[0]
	if c.Name != "parse" || c.Attrs["instances"] != float64(7) || c.Attrs["grammar"] != "default" {
		t.Errorf("parse span wrong: %+v", c)
	}
	if len(c.Events) != 1 || c.Events[0].Name != "prune" || c.Events[0].Attrs["killed"] != float64(1) {
		t.Errorf("events wrong: %+v", c.Events)
	}
}

func TestRingSinkWrapAround(t *testing.T) {
	ring := NewRingSink(3)
	tracer := NewTracer(ring)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := tracer.Start(fmt.Sprintf("t%d", i))
		ids = append(ids, tr.ID)
		tr.End()
	}
	if ring.Len() != 3 {
		t.Fatalf("len = %d, want 3", ring.Len())
	}
	if ring.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", ring.Dropped())
	}
	got := ring.Traces()
	for i, tr := range got {
		if want := ids[i+2]; tr.ID != want { // oldest two evicted
			t.Errorf("trace %d = %s, want %s", i, tr.ID, want)
		}
	}
}

func TestRingSinkConcurrentEmit(t *testing.T) {
	ring := NewRingSink(8)
	tracer := NewTracer(ring)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr := tracer.Start("op")
				tr.Span("s").End()
				tr.End()
			}
		}()
	}
	wg.Wait()
	if ring.Len() != 8 {
		t.Errorf("len = %d, want 8", ring.Len())
	}
	// IDs must be unique even under contention.
	seen := map[string]bool{}
	for _, tr := range ring.Traces() {
		if seen[tr.ID] {
			t.Errorf("duplicate trace ID %s", tr.ID)
		}
		seen[tr.ID] = true
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tracer := NewTracer(sink)
	for i := 0; i < 3; i++ {
		tr := tracer.Start("op")
		tr.Span("s").End()
		tr.End()
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	for _, ln := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Errorf("line not JSON: %v\n%s", err, ln)
		}
		if v["traceId"] == "" {
			t.Errorf("line missing traceId: %s", ln)
		}
	}
}

func TestStageTimings(t *testing.T) {
	st := StageTimings{
		HTMLParse: time.Millisecond,
		Layout:    2 * time.Millisecond,
		Tokenize:  3 * time.Millisecond,
		Parse:     4 * time.Millisecond,
		Merge:     5 * time.Millisecond,
	}
	if st.Total() != 15*time.Millisecond {
		t.Errorf("total = %v", st.Total())
	}
	s := st.String()
	for _, stage := range Stages {
		if !strings.Contains(s, stage+"=") {
			t.Errorf("String() missing %s: %s", stage, s)
		}
	}
}

func TestLabeledRuns(t *testing.T) {
	ran := false
	Labeled(StageParse, func() { ran = true })
	if !ran {
		t.Error("Labeled did not run f")
	}
}

// TestTraceJSONPinned pins the /traces rendering byte for byte over a
// trace with nested spans, string and integer attributes, an event, and a
// span with more attributes than it stores inline. Times are fixed after
// the fact so the output is deterministic.
func TestTraceJSONPinned(t *testing.T) {
	tr := NewTracer(NewRingSink(1)).Start("extract")
	tr.ID = "0000abcd-000001"
	root := tr.Root()
	sp := tr.Span("parse")
	for i, k := range []string{"tokens", "instances", "pruned", "rolledBack", "fixpointIters", "completeParses", "spill"} {
		sp.SetInt(k, int64(10*i))
	}
	sp.SetStr("grammar", "default")
	g := sp.Span("fixpoint")
	g.SetStr("symbols", "QI")
	g.Event("prune", Str("pref", "R2"), Int("killed", 3))
	g.End()
	sp.End()
	m := tr.Span("merge")
	m.End()
	tr.End()
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	root.Start, root.Dur = t0, 1500*time.Microsecond
	sp.Start, sp.Dur = t0.Add(100*time.Microsecond), 900*time.Microsecond
	g.Start, g.Dur = t0.Add(150*time.Microsecond), 400*time.Microsecond
	g.Events[0].At = 50 * time.Microsecond
	m.Start, m.Dur = t0.Add(1100*time.Microsecond), 200*time.Microsecond

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"traceId":"0000abcd-000001","name":"extract","start":"2026-01-02T03:04:05Z","durUs":1500,` +
		`"root":{"name":"extract","startUs":0,"durUs":1500,"children":[` +
		`{"name":"parse","startUs":100,"durUs":900,"attrs":{"completeParses":50,"fixpointIters":40,"grammar":"default","instances":10,"pruned":20,"rolledBack":30,"spill":60,"tokens":0},` +
		`"children":[{"name":"fixpoint","startUs":150,"durUs":400,"attrs":{"symbols":"QI"},"events":[{"name":"prune","atUs":200,"attrs":{"killed":3,"pref":"R2"}}]}]},` +
		`{"name":"merge","startUs":1100,"durUs":200}]}}`
	if string(raw) != want {
		t.Errorf("trace JSON changed:\n got %s\nwant %s", raw, want)
	}
}

// TestSpanInlineAttrs pins the span's attribute budget: up to six
// attributes ride on the span's own allocation.
func TestSpanInlineAttrs(t *testing.T) {
	tr := NewTracer(NewRingSink(1)).Start("extract")
	allocs := testing.AllocsPerRun(100, func() {
		sp := newSpan(tr, "parse")
		for i := 0; i < spanInlineAttrs; i++ {
			sp.SetInt("k", int64(i))
		}
	})
	if allocs != 1 {
		t.Errorf("a span with %d attributes costs %.1f allocations, want 1", spanInlineAttrs, allocs)
	}
}
