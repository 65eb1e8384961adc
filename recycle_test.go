package formext_test

import (
	"context"
	"encoding/json"
	"testing"

	"formext"
	"formext/internal/dataset"
)

// TestResultSurvivesPipelineRecycling keeps one extraction's Result while
// the same Extractor extracts 50 more pages. The parse engines and the
// front end's DOM and layout arenas recycle their storage between
// extractions, so a tree node, child slice, cover or string that still
// pointed into them would change under the kept Result. Each cover must
// also span exactly its subtree's tokens, which a cover left in recycled
// storage would not (it reads as cleared or as another parse's bits).
func TestResultSurvivesPipelineRecycling(t *testing.T) {
	ex, err := formext.New(formext.Options{MaxInstances: 20000})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kept, err := ex.ExtractBytes(ctx, []byte(dataset.QamHTML))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Trees) == 0 || kept.Model == nil || len(kept.Model.Conditions) == 0 {
		t.Fatal("the kept page extracted to nothing")
	}
	snapshot := func() string {
		t.Helper()
		model, err := json.Marshal(kept.Model)
		if err != nil {
			t.Fatal(err)
		}
		s := string(model)
		for _, tr := range kept.Trees {
			s += tr.Dump()
			tr.Walk(func(in *formext.Instance) bool {
				spans := 0
				if in.Token != nil {
					spans = 1
				}
				for _, c := range in.Children {
					spans += c.Cover.Count()
				}
				if in.Cover.Count() != spans || (in.Token != nil && !in.Cover.Has(in.Token.ID)) {
					t.Errorf("%s covers %v, its subtree spans %d tokens", in.Sym, in.Cover.Members(), spans)
				}
				b, _ := json.Marshal(in.Cover.Members())
				s += in.Sym + string(b) + "\n"
				return true
			})
		}
		return s
	}
	want := snapshot()
	for i, s := range dataset.Generate(dataset.Config{
		Seed: 11, Sources: 50, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: 6, Hardness: 0.2, SampleSchemas: true,
	}) {
		if _, err := ex.ExtractBytes(ctx, []byte(s.HTML)); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if got := snapshot(); got != want {
		t.Errorf("kept result changed while the extractor ran on:\n got %s\nwant %s", got, want)
	}
}
