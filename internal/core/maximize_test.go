package core

import (
	"context"
	"math/rand"
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
)

// TestMaximizeMatchesFullSweep checks maximize's posting-list sweep against
// the sweep it replaces — every candidate tested against every kept tree —
// over brute-force parses of the Figure 5 fragment with its boxes
// scattered, so the surviving instances fall into many overlapping,
// partially subsuming trees.
func TestMaximizeMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kept := 0
	for run := 0; run < 8; run++ {
		g := grammar.Default()
		if run%2 == 1 {
			g = mustParser(t, figure6Grammar, Options{}).pl.g
		}
		p, err := NewParser(g, Options{DisablePreferences: true, MaxInstances: 20000})
		if err != nil {
			t.Fatal(err)
		}
		toks := qamFragmentTokens()
		for _, tk := range toks {
			if rng.Intn(3) == 0 {
				dx, dy := float64(rng.Intn(400)-200), float64(rng.Intn(120)-60)
				tk.Pos = geom.R(tk.Pos.X1+dx, tk.Pos.X2+dx, tk.Pos.Y1+dy, tk.Pos.Y2+dy)
			}
		}
		e := p.engine()
		e.begin(context.Background(), p.pl, p.opt, len(toks))
		for _, tk := range toks {
			e.terminal(tk)
		}
		e.stats.Tokens = len(toks)
		e.fixpoint(nil, p.pl.globalProds, p.pl.globalSyms)
		got := e.maximize(g.Start)

		var want []*grammar.Instance
		for i, c := range e.maxCands {
			if i > 0 && c.Cover.Equal(e.maxCands[i-1].Cover) {
				continue
			}
			subsumed := false
			for _, m := range want {
				if c.Cover.ProperSubsetOf(m.Cover) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				want = append(want, c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d maximal trees, the full sweep keeps %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: maximal tree %d is instance %d, the full sweep's is %d", run, i, got[i].ID, want[i].ID)
			}
		}
		kept += len(want)
		p.release(e)
	}
	if kept < 30 {
		t.Errorf("only %d maximal trees over all runs; the comparison needs overlap to mean anything", kept)
	}
}
