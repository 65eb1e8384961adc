package formext

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"formext/internal/dataset"
)

// The model golden pins what a caller gets, not how the parser got there:
// for every corpus page, one SHA-256 over the SemanticModel JSON (conflict
// and missing reports included), Stats.Degraded, Stats.CompleteParses and
// the number of distinct tokens the maximal trees cover. TestCoreGolden and
// the golden keys pin internals, so a grammar deletion or a parser
// restructuring regenerates them; this file must stay byte-identical
// through any change meant to keep the output, and changes only in a commit
// that says which models moved and why
// (go test -run TestModelGolden -update .).

// modelPage is one corpus page of the model golden.
type modelPage struct {
	name, html string
}

// modelCorpus is the model golden's corpus, sorted by name: the paper's
// fixtures, the four evaluation datasets, TestCoreGolden's generated sweeps,
// and a sweep shaped like the benchmark's generated forms (sampled schemas,
// 4-9 conditions, three hardness levels, six seeds).
func modelCorpus() []modelPage {
	pages := []modelPage{
		{"fixture-qam", dataset.QamHTML},
		{"fixture-qaa", dataset.QaaHTML},
		{"fixture-figure5", dataset.Figure5Fragment},
	}
	for _, name := range dataset.DatasetNames {
		srcs, _ := dataset.ByName(name)
		for _, s := range srcs {
			pages = append(pages, modelPage{name + "/" + s.ID, s.HTML})
		}
	}
	for ci, c := range [][2]int{{2, 6}, {4, 9}} {
		for hi, h := range []float64{0.35, 0.4, 0.8} {
			srcs := dataset.Generate(dataset.Config{
				Seed:     int64(900 + 10*ci + hi),
				Sources:  20,
				Schemas:  dataset.AllSchemas,
				MinConds: c[0], MaxConds: c[1],
				Hardness: h,
			})
			for i, s := range srcs {
				pages = append(pages, modelPage{fmt.Sprintf("gen-%d-%d-h%.2f-%02d", c[0], c[1], h, i), s.HTML})
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, h := range []float64{0.2, 0.4, 0.6} {
			srcs := dataset.Generate(dataset.Config{
				Seed:     seed,
				Sources:  40,
				Schemas:  dataset.AllSchemas,
				MinConds: 4, MaxConds: 9,
				Hardness:      h,
				SampleSchemas: true,
			})
			for i, s := range srcs {
				pages = append(pages, modelPage{fmt.Sprintf("bench-s%d-h%.1f-%02d", seed, h, i), s.HTML})
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].name < pages[j].name })
	return pages
}

// corpusCost sums the parser's work over a corpus: what a rule must not
// raise to be deleted.
type corpusCost struct {
	Instances, ConstraintEvals, Degraded int
}

// modelSignatures extracts every page with ex and returns each page's
// model digest, keyed by page name, with the summed cost.
func modelSignatures(t testing.TB, ex *Extractor, pages []modelPage) (map[string]string, corpusCost) {
	sigs := make(map[string]string, len(pages))
	var cost corpusCost
	for _, p := range pages {
		res, err := ex.ExtractHTML(p.html)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sigs[p.name] = modelDigest(t, res)
		cost.Instances += res.Stats.TotalCreated
		cost.ConstraintEvals += res.Stats.ConstraintEvals
		cost.Degraded += len(res.Stats.Degraded)
	}
	return sigs, cost
}

// modelDigest hashes what one extraction hands its caller.
func modelDigest(t testing.TB, res *Result) string {
	mj, err := json.Marshal(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i := range res.Tokens {
		for _, tree := range res.Trees {
			if tree.Cover.Has(i) {
				covered++
				break
			}
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\ndegraded=%s\ncomplete=%d\ncovered=%d\n",
		mj, strings.Join(res.Stats.Degraded, "|"), res.Stats.CompleteParses, covered)
	return hex.EncodeToString(h.Sum(nil))
}

func TestModelGolden(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := modelSignatures(t, ex, modelCorpus())

	path := filepath.Join("testdata", "model_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d pages)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d pages, the corpus %d", len(want), len(got))
	}
	drifted := 0
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in golden file", name)
		} else if g != w {
			drifted++
			t.Errorf("%s: model drifted", name)
		}
	}
	if drifted > 0 {
		t.Errorf("%d of %d models drifted", drifted, len(got))
	}
}
