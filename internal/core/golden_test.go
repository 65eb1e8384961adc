package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
)

var updateCoreGolden = flag.Bool("update", false, "rewrite testdata/core_golden.json")

// coreGolden is one page's committed parser fingerprint: a SHA-256 over
// renderResult (every alive instance, the maximal trees and the
// statistics) in each evaluation mode. ConstraintEvals is zeroed first: it
// counts evaluation events, which a join optimization may legitimately
// change while every instance stays the same.
type coreGolden struct {
	Compiled    string `json:"compiled"`
	Interpreted string `json:"interpreted"`
}

// coreGoldenMaxInstances caps every golden parse, so the hardest generated
// pages stay cheap and the truncation point itself is pinned.
const coreGoldenMaxInstances = 20000

// coreGoldenPages is the corpus the golden pins: the paper's fixtures, the
// NewSource interfaces, and generated sweeps over the whole schema
// catalogue at two condition ranges and three hardness levels.
func coreGoldenPages() map[string]string {
	pages := map[string]string{
		"fixture-qam":     dataset.QamHTML,
		"fixture-qaa":     dataset.QaaHTML,
		"fixture-figure5": dataset.Figure5Fragment,
	}
	for i, s := range dataset.NewSource() {
		pages[fmt.Sprintf("newsource-%02d", i)] = s.HTML
	}
	conds := [][2]int{{2, 6}, {4, 9}}
	for ci, c := range conds {
		for hi, h := range []float64{0.35, 0.4, 0.8} {
			srcs := dataset.Generate(dataset.Config{
				Seed:     int64(900 + 10*ci + hi),
				Sources:  20,
				Schemas:  dataset.AllSchemas,
				MinConds: c[0], MaxConds: c[1],
				Hardness: h,
			})
			for i, s := range srcs {
				pages[fmt.Sprintf("gen-%d-%d-h%.2f-%02d", c[0], c[1], h, i)] = s.HTML
			}
		}
	}
	return pages
}

// goldenDigest hashes one parse's rendering with ConstraintEvals zeroed.
func goldenDigest(res *core.AliveResult) string {
	res.Stats.ConstraintEvals = 0
	sum := sha256.Sum256([]byte(renderResult(res)))
	return hex.EncodeToString(sum[:])
}

// TestCoreGolden pins the parser's output — instances, maximal trees and
// statistics — page by page in both evaluation modes. A change meant to be
// output-neutral (a join or bookkeeping optimization) must leave the file
// untouched; an intentional change regenerates it with
// go test ./internal/core/ -run TestCoreGolden -update.
func TestCoreGolden(t *testing.T) {
	pages := coreGoldenPages()
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	html := make([]string, len(names))
	for i, name := range names {
		html[i] = pages[name]
	}
	corpus := parityPages(t, html...)

	g := grammar.Default()
	pc, err := core.NewParser(g, core.Options{MaxInstances: coreGoldenMaxInstances})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := core.NewParser(g, core.Options{MaxInstances: coreGoldenMaxInstances, Interpreted: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]coreGolden, len(names))
	for i, name := range names {
		rc, err := pc.ParseAlive(corpus[i])
		if err != nil {
			t.Fatalf("%s: compiled: %v", name, err)
		}
		ri, err := pi.ParseAlive(corpus[i])
		if err != nil {
			t.Fatalf("%s: interpreted: %v", name, err)
		}
		got[name] = coreGolden{Compiled: goldenDigest(rc), Interpreted: goldenDigest(ri)}
	}

	path := filepath.Join("testdata", "core_golden.json")
	if *updateCoreGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	var want map[string]coreGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d pages, the corpus %d; regenerate with -update", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		if g := got[name]; g != w {
			t.Errorf("%s: parser output drifted:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
