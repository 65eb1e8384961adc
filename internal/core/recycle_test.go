package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
)

// snapshotTrees renders everything the trees expose: each tree's Dump and,
// node by node, the ID, symbol, cover members and box.
func snapshotTrees(trees []*grammar.Instance) string {
	var sb strings.Builder
	for _, tr := range trees {
		sb.WriteString(tr.Dump())
		tr.Walk(func(in *grammar.Instance) bool {
			fmt.Fprintf(&sb, "%d %s %v %v\n", in.ID, in.Sym, in.Cover.Members(), in.Pos)
			return true
		})
	}
	return sb.String()
}

// checkCovers fails on any tree node whose cover is not what its subtree
// spans: a terminal covers exactly its token, a nonterminal the union of
// its children. A cover left in recycled storage reads as cleared or as
// another parse's bits.
func checkCovers(t *testing.T, trees []*grammar.Instance) {
	t.Helper()
	for _, tr := range trees {
		tr.Walk(func(in *grammar.Instance) bool {
			want := map[int]bool{}
			if in.Token != nil {
				want[in.Token.ID] = true
			}
			for _, c := range in.Children {
				for _, m := range c.Cover.Members() {
					want[m] = true
				}
			}
			got := in.Cover.Members()
			ok := len(got) == len(want)
			for _, m := range got {
				ok = ok && want[m]
			}
			if !ok {
				t.Errorf("%s (ID %d) covers %v, its subtree spans %d tokens", in.Sym, in.ID, got, len(want))
			}
			return true
		})
	}
}

// recyclePages is one page to keep and 50 others to parse after it.
func recyclePages() []string {
	pages := []string{dataset.QamHTML}
	for _, s := range dataset.Generate(dataset.Config{
		Seed: 11, Sources: 50, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: 6, Hardness: 0.2, SampleSchemas: true,
	}) {
		pages = append(pages, s.HTML)
	}
	return pages
}

// TestResultSurvivesEngineRecycling keeps one Result while the same Parser
// parses 50 more pages. Every parse clears and reuses the pooled engine's
// instance, child-pointer and cover slabs, so any tree node, child slice or
// cover that still pointed into them would change under the kept Result.
func TestResultSurvivesEngineRecycling(t *testing.T) {
	corpus := parityPages(t, recyclePages()...)
	p, err := core.NewParser(grammar.Default(), core.Options{MaxInstances: 20000})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := p.Parse(corpus[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Maximal) == 0 {
		t.Fatal("the kept page parsed to no trees")
	}
	checkCovers(t, kept.Maximal)
	want, wantStats := snapshotTrees(kept.Maximal), kept.Stats
	for i, toks := range corpus[1:] {
		if _, err := p.Parse(toks); err != nil {
			t.Fatalf("page %d: %v", i+1, err)
		}
	}
	checkCovers(t, kept.Maximal)
	if got := snapshotTrees(kept.Maximal); got != want {
		t.Errorf("kept trees changed while the parser ran on:\n got %s\nwant %s", got, want)
	}
	if kept.Stats != wantStats {
		t.Errorf("kept stats changed: %+v, want %+v", kept.Stats, wantStats)
	}
}

// FuzzCompactTrees checks that compacting only the maximal trees' reach
// keeps them exactly. On random token layouts of at most 12 tokens under
// the default grammar, the production parse's trees must render
// byte-identical to the same trees taken from the all-alive compaction
// (ParseAlive), with equal Stats and covers that span their subtrees.
func FuzzCompactTrees(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(5+seed))
	}
	p, err := core.NewParser(grammar.Default(), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		toks := fuzzTokens(rand.New(rand.NewSource(seed)), int(n%13))
		res, err := p.Parse(toks)
		if err != nil {
			t.Fatal(err)
		}
		all, err := p.ParseAlive(toks)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.Duration, all.Stats.Duration = 0, 0
		if res.Stats != all.Stats {
			t.Fatalf("%d tokens: stats %+v, all-alive parse %+v", len(toks), res.Stats, all.Stats)
		}
		checkCovers(t, res.Maximal)
		if got, want := snapshotTrees(res.Maximal), snapshotTrees(all.Maximal); got != want {
			t.Fatalf("%d tokens: the trees' own compaction differs from the all-alive one:\n got %s\nwant %s", len(toks), got, want)
		}
	})
}
