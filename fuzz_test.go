package formext_test

import (
	"testing"

	"formext"

	"formext/internal/dataset"
)

// FuzzExtractHTML drives the whole pipeline — HTML parsing, layout,
// tokenization, best-effort parsing, merging — on arbitrary input. The
// extractor's contract is total: any page yields a semantic model, never a
// panic or an error (errors are reserved for configuration problems).
func FuzzExtractHTML(f *testing.F) {
	seeds := append([]string{dataset.QamHTML, dataset.QaaHTML, dataset.Figure5Fragment}, dataset.FuzzSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	ex, err := formext.New()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		res, err := ex.ExtractHTML(src)
		if err != nil {
			t.Fatalf("ExtractHTML errored on fuzz input: %v", err)
		}
		if res.Model == nil {
			t.Fatal("nil semantic model")
		}
		n := len(res.Tokens)
		for _, c := range res.Model.Conditions {
			for _, id := range c.TokenIDs {
				if id < 0 || id >= n {
					t.Fatalf("condition references token %d of %d", id, n)
				}
			}
		}
		for _, id := range res.Model.Missing {
			if id < 0 || id >= n {
				t.Fatalf("missing references token %d of %d", id, n)
			}
		}
		for _, k := range res.Model.Conflicts {
			if k.Conditions[0] >= len(res.Model.Conditions) || k.Conditions[1] >= len(res.Model.Conditions) {
				t.Fatalf("conflict references condition out of range: %+v", k)
			}
		}
		// Maximal trees are alive, within the universe, and mutually
		// non-subsumed.
		for i, a := range res.Trees {
			if a.Dead {
				t.Fatal("dead maximal tree")
			}
			for j, b := range res.Trees {
				if i != j && a.Cover.ProperSubsetOf(b.Cover) {
					t.Fatalf("maximal tree %d subsumed by %d", i, j)
				}
			}
		}
	})
}
