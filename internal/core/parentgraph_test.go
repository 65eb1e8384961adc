package core

import (
	"context"
	"testing"

	"formext/internal/grammar"
)

// TestParentEdgesUnique pins the invariant addParent relies on (and the
// index-form parent graph bakes in): each (parent, child) pair is recorded
// exactly once per parse. Two mechanisms guarantee it — the dedup table
// admits each parent derivation once, and cover disjointness keeps one
// child instance from filling two slots of the same parent (a non-empty
// cover always intersects itself). The test drives the instantiation phase
// exactly as ParseContext does and then scans the raw edge lists, in both
// evaluation modes, over both the Figure 6 grammar and the derived default
// grammar.
func TestParentEdgesUnique(t *testing.T) {
	grammars := map[string]*grammar.Grammar{
		"default": grammar.Default(),
	}
	{
		g, err := grammar.ParseDSL(figure6Grammar)
		if err != nil {
			t.Fatal(err)
		}
		grammars["figure6"] = g
	}
	toks := qamFragmentTokens()
	for name, g := range grammars {
		for _, interpreted := range []bool{false, true} {
			p, err := NewParser(g, Options{Interpreted: interpreted})
			if err != nil {
				t.Fatal(err)
			}
			e := p.engine()
			e.begin(context.Background(), p.pl, p.opt, len(toks))
			for _, tk := range toks {
				e.terminal(tk)
			}
			e.fixpoint(nil, p.pl.globalProds, p.pl.globalSyms)

			seen := make(map[[2]int32]bool)
			edges := 0
			for child, ei := range e.parHead {
				for ; ei >= 0; ei = e.parEdges[ei].next {
					pair := [2]int32{e.parEdges[ei].parent, int32(child)}
					if seen[pair] {
						t.Errorf("%s interpreted=%v: duplicate parent edge %d -> %d",
							name, interpreted, pair[0], pair[1])
					}
					seen[pair] = true
					edges++
				}
			}
			// Every edge mirrors one child slot of one parent, so with no
			// duplicates the totals must agree exactly.
			slots := 0
			for _, in := range e.all {
				slots += len(in.Children)
			}
			if edges != slots {
				t.Errorf("%s interpreted=%v: %d parent edges, %d child slots — graph out of sync",
					name, interpreted, edges, slots)
			}
			if edges == 0 {
				t.Fatalf("%s interpreted=%v: no parent edges built; fixture inert", name, interpreted)
			}
			p.release(e)
		}
	}
}

// TestChildrenDistinctAfterParse checks the companion invariant on the
// public Result (after freeze compaction remapped every node): no instance
// lists the same child twice — the cover-disjointness half of the edge
// uniqueness argument, observed end to end.
func TestChildrenDistinctAfterParse(t *testing.T) {
	for _, interpreted := range []bool{false, true} {
		p, err := NewParser(grammar.Default(), Options{Interpreted: interpreted})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ParseAlive(qamFragmentTokens())
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		seen := map[*grammar.Instance]bool{}
		var walk func(in *grammar.Instance)
		walk = func(in *grammar.Instance) {
			if seen[in] {
				return
			}
			seen[in] = true
			ids := map[int]bool{}
			for _, c := range in.Children {
				if ids[c.ID] {
					t.Errorf("interpreted=%v: instance %d (%s) lists child %d twice",
						interpreted, in.ID, in.Sym, c.ID)
				}
				ids[c.ID] = true
				walk(c)
			}
			checked++
		}
		for _, in := range res.Alive {
			walk(in)
		}
		if checked == 0 {
			t.Fatal("no instances checked")
		}
	}
}
