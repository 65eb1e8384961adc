package core

import (
	"context"
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// bindLeakGrammar builds — programmatically, bypassing the DSL validator —
// a grammar whose second production's constraint references a variable only
// the FIRST production binds. A correct evaluator must reject B's
// constraint (unknown variable ⇒ false); the pre-rewrite interpreter reused
// one binding environment across productions without clearing it, so A's
// stale `x` leaked into B's evaluation and B parsed anyway.
func bindLeakGrammar() *grammar.Grammar {
	wordcountX := func() grammar.Expr {
		return &grammar.CmpExpr{
			Op: ">=",
			L:  &grammar.CallExpr{Name: "wordcount", Args: []grammar.Expr{&grammar.VarExpr{Name: "x"}}},
			R:  &grammar.NumLit{V: 1},
		}
	}
	g := grammar.NewGrammar()
	g.Terminals["text"] = true
	g.Nonterminals["A"] = true
	g.Nonterminals["B"] = true
	g.Start = "A"
	g.Prods = []*grammar.Production{
		{Name: "PA", Head: "A",
			Components: []grammar.Component{{Var: "x", Sym: "text"}},
			Constraint: wordcountX()},
		{Name: "PB", Head: "B",
			Components: []grammar.Component{{Var: "y", Sym: "text"}},
			Constraint: wordcountX()}, // refers to PA's x, not its own y
	}
	return g
}

func TestBindDoesNotLeakAcrossProductions(t *testing.T) {
	g := bindLeakGrammar()
	toks := []*token.Token{
		{ID: 0, Type: token.Text, SVal: "Author", Pos: geom.R(0, 40, 0, 12)},
	}
	for _, interpreted := range []bool{false, true} {
		// DisableScheduling runs both productions in one global fix point
		// in declaration order — PA's eval immediately precedes PB's, the
		// exact sequence that leaked.
		p, err := NewParser(g, Options{Interpreted: interpreted, DisableScheduling: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ParseAlive(toks)
		if err != nil {
			t.Fatal(err)
		}
		var nA, nB int
		for _, in := range res.Alive {
			switch in.Sym {
			case "A":
				nA++
			case "B":
				nB++
			}
		}
		if nA != 1 {
			t.Errorf("interpreted=%v: want 1 A instance, got %d", interpreted, nA)
		}
		if nB != 0 {
			t.Errorf("interpreted=%v: PB's constraint references an unbound variable yet produced %d B instances (stale binding leak)", interpreted, nB)
		}
	}
}

// TestEnforceSteadyStateNoAlloc drives a real parse's instance population
// to quiescence, then demands that re-running every preference — the
// no-kill steady state, which is also each enforcement's common case for
// most loser instances — allocates nothing: the cover-union prefilter,
// spare set, and evaluation frames are all engine-owned scratch.
func TestEnforceSteadyStateNoAlloc(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	toks := qamFragmentTokens()
	e := p.engine()
	defer p.release(e)
	e.begin(context.Background(), p.pl, p.opt, len(toks))
	for _, tk := range toks {
		e.terminal(tk)
	}
	e.stats.Tokens = len(toks)
	e.fixpoint(nil, p.pl.globalProds, p.pl.globalSyms)
	for {
		killed := 0
		for _, pi := range p.pl.prefsByPriority {
			killed += e.enforce(nil, pi)
		}
		if killed == 0 {
			break
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, pi := range p.pl.prefsByPriority {
			if e.enforce(nil, pi) != 0 {
				t.Fatal("kill in steady state")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state enforce allocates %.1f/op, want 0", allocs)
	}
}
