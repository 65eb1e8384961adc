package formext

// Facade-level tests of the observability layer (internal/obs wired
// through Options.Tracer): the per-Result Stats snapshot, the trace span
// tree over the five pipeline stages, and the disabled-path contract.

import (
	"testing"

	"formext/internal/dataset"
	"formext/internal/obs"
)

// TestStatsSnapshotOnGeneratedDataset is the acceptance check that the
// parser-internals counters are live on the default grammar: over the
// generated Basic dataset, instances, fix-point rounds, prunes and
// rollbacks must all be observed nonzero, and stage timings must be
// populated on every extraction.
func TestStatsSnapshotOnGeneratedDataset(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	var sawPrune, sawRollback bool
	srcs := dataset.Basic()
	for _, s := range srcs[:30] {
		res, err := ex.ExtractHTML(s.HTML)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		st := res.Stats
		if st.Tokens == 0 || st.Terminals != st.Tokens {
			t.Errorf("%s: terminals=%d tokens=%d, want equal and nonzero", s.ID, st.Terminals, st.Tokens)
		}
		if st.TotalCreated <= st.Tokens {
			t.Errorf("%s: TotalCreated=%d, want > %d tokens", s.ID, st.TotalCreated, st.Tokens)
		}
		if st.Nonterminals() != st.TotalCreated-st.Terminals {
			t.Errorf("%s: Nonterminals()=%d inconsistent", s.ID, st.Nonterminals())
		}
		if st.FixpointIters == 0 || st.Groups == 0 {
			t.Errorf("%s: fix-point counters empty: iters=%d groups=%d", s.ID, st.FixpointIters, st.Groups)
		}
		if st.Stages.Parse == 0 || st.Stages.HTMLParse == 0 || st.Stages.Tokenize == 0 || st.Stages.Layout == 0 || st.Stages.Merge == 0 {
			t.Errorf("%s: stage timings not populated: %s", s.ID, st.Stages)
		}
		if st.Stages.Total() == 0 {
			t.Errorf("%s: zero total stage time", s.ID)
		}
		if st.TraceID != "" {
			t.Errorf("%s: trace ID %q without a tracer", s.ID, st.TraceID)
		}
		if st.Pruned > 0 {
			sawPrune = true
		}
		if st.RolledBack > 0 {
			sawRollback = true
		}
	}
	if !sawPrune || !sawRollback {
		t.Errorf("over 30 Basic sources: sawPrune=%v sawRollback=%v, want both", sawPrune, sawRollback)
	}
}

// TestTracedExtractionSpanTree attaches a ring-sink tracer and checks the
// delivered trace: a root "extract" span with one child per pipeline
// stage, the parse span carrying the counters Stats reports.
func TestTracedExtractionSpanTree(t *testing.T) {
	sink := NewRingSink(4)
	ex, err := New(Options{Tracer: NewTracer(sink)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(qamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TraceID == "" {
		t.Fatal("no trace ID on the result")
	}
	tr := sink.Find(res.Stats.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not delivered to the sink", res.Stats.TraceID)
	}
	root := tr.Root()
	if root.Name != "extract" || root.Dur == 0 {
		t.Errorf("root span = %q dur=%v", root.Name, root.Dur)
	}
	if len(root.Children) != len(obs.Stages) {
		t.Fatalf("root has %d children, want %d stages", len(root.Children), len(obs.Stages))
	}
	for i, want := range obs.Stages {
		c := root.Children[i]
		if c.Name != want {
			t.Errorf("stage %d = %q, want %q", i, c.Name, want)
		}
		if c.Dur == 0 {
			t.Errorf("stage %q has zero duration", c.Name)
		}
	}
	// The parse span's counters agree with the Stats snapshot.
	parse := tr.FindSpan(obs.StageParse)
	attrs := map[string]int64{}
	for _, a := range parse.Attrs {
		if !a.IsStr {
			attrs[a.Key] = a.Int
		}
	}
	if attrs["instances"] != int64(res.Stats.TotalCreated) {
		t.Errorf("parse span instances=%d, Stats.TotalCreated=%d", attrs["instances"], res.Stats.TotalCreated)
	}
	if attrs["pruned"] != int64(res.Stats.Pruned) {
		t.Errorf("parse span pruned=%d, Stats.Pruned=%d", attrs["pruned"], res.Stats.Pruned)
	}
	if attrs["fixpointIters"] != int64(res.Stats.FixpointIters) {
		t.Errorf("parse span fixpointIters=%d, Stats.FixpointIters=%d", attrs["fixpointIters"], res.Stats.FixpointIters)
	}
	// The merge span's counters agree with the merge report.
	merge := tr.FindSpan(obs.StageMerge)
	for _, a := range merge.Attrs {
		switch a.Key {
		case "conditions":
			if a.Int != int64(res.Stats.Merge.Conditions) {
				t.Errorf("merge span conditions=%d, want %d", a.Int, res.Stats.Merge.Conditions)
			}
		case "conflicts":
			if a.Int != int64(res.Stats.Merge.Conflicts) {
				t.Errorf("merge span conflicts=%d, want %d", a.Int, res.Stats.Merge.Conflicts)
			}
		}
	}
}

// TestTracerSharedAcrossPool checks the serving-path composition: one
// tracer on the shared extractor's options, distinct trace IDs per request.
func TestTracerSharedAcrossPool(t *testing.T) {
	sink := NewRingSink(8)
	ex, err := New(Options{Tracer: NewTracer(sink)})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		res, err := ex.ExtractHTML(qamHTML)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TraceID == "" {
			t.Fatal("shared-extractor extraction without trace ID")
		}
		ids[res.Stats.TraceID] = true
	}
	if len(ids) != 3 {
		t.Errorf("trace IDs not unique: %v", ids)
	}
	if sink.Len() != 3 {
		t.Errorf("sink holds %d traces, want 3", sink.Len())
	}
}

// TestUntracedAndTracedResultsAgree pins the disabled-path contract: the
// tracer changes what is recorded, never what is extracted.
func TestUntracedAndTracedResultsAgree(t *testing.T) {
	plain := mustExtract(t, qaaHTML)
	ex, err := New(Options{Tracer: NewTracer(NewRingSink(1))})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ex.ExtractHTML(qaaHTML)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Model.Conditions) != len(plain.Model.Conditions) ||
		len(traced.Model.Conflicts) != len(plain.Model.Conflicts) ||
		len(traced.Model.Missing) != len(plain.Model.Missing) {
		t.Errorf("traced model differs: %s vs %s", attrList(traced), attrList(plain))
	}
	if traced.Stats.TotalCreated != plain.Stats.TotalCreated ||
		traced.Stats.Pruned != plain.Stats.Pruned ||
		traced.Stats.FixpointIters != plain.Stats.FixpointIters {
		t.Errorf("traced parser work differs: %+v vs %+v", traced.Stats.ParseStats, plain.Stats.ParseStats)
	}
}

// TestExtractTokensTraced covers the token-level entry point: its trace
// has parse and merge stages only.
func TestExtractTokensTraced(t *testing.T) {
	sink := NewRingSink(2)
	ex, err := New(Options{Tracer: NewTracer(sink)})
	if err != nil {
		t.Fatal(err)
	}
	toks := ex.Tokenize(qamHTML)
	res, err := ex.ExtractTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	tr := sink.Find(res.Stats.TraceID)
	if tr == nil {
		t.Fatal("token-level trace not delivered")
	}
	if tr.FindSpan(obs.StageParse) == nil || tr.FindSpan(obs.StageMerge) == nil {
		t.Error("token-level trace missing parse/merge spans")
	}
	if tr.FindSpan(obs.StageHTMLParse) != nil {
		t.Error("token-level trace has an htmlparse span")
	}
	if res.Stats.Stages.Parse == 0 || res.Stats.Stages.Merge == 0 {
		t.Error("token-level stage timings not populated")
	}
	if res.Stats.Stages.HTMLParse != 0 {
		t.Error("token-level htmlparse timing nonzero")
	}
}
