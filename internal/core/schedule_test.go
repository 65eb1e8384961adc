package core

import (
	"testing"

	"formext/internal/geom"
	"formext/internal/token"
)

func TestScheduleDroppedREdge(t *testing.T) {
	// A cycle the Figure 13 transformation cannot break: B beats C is
	// direct; C beats B would need C before B's parent E2, but E2 is also
	// an ancestor of C (production C -> z:E2), so the indirect edge cycles
	// too and the r-edge is dropped — rollback covers the late pruning.
	src := `
terminals e, f;
start S;
prod A -> x:e ;
prod B -> a:A p:f : samerow(a, p);
prod C -> a:A q:e : samerow(a, q);
prod C -> z:E2 q:e : samerow(z, q);
prod E2 -> b:B ;
prod S -> c:C ;
prod S -> x2:E2 ;
pref RB w:B beats l:C when overlap(w, l) win compdist(w) <= compdist(l);
pref RC w:C beats l:B when overlap(w, l) win compdist(w) < compdist(l);
`
	p := mustParser(t, src, Options{})
	s := p.Schedule()
	if len(s.Direct) != 1 || s.Direct[0] != "RB" {
		t.Errorf("direct = %v", s.Direct)
	}
	if len(s.Dropped) != 1 || s.Dropped[0] != "RC" {
		t.Errorf("dropped = %v (transformed = %v)", s.Dropped, s.Transformed)
	}
	// The schedule still orders children before parents.
	for _, chain := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "E2"}, {"C", "S"}, {"E2", "S"}} {
		if s.GroupOf[chain[0]] >= s.GroupOf[chain[1]] {
			t.Errorf("%s must precede %s", chain[0], chain[1])
		}
	}
	// Dropped r-edges must not break parsing.
	if _, err := p.Parse(nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleMutualRecursionSCC(t *testing.T) {
	// X and Y are mutually recursive (through binary productions, so the
	// unary-cycle validator admits them): they must share one schedule
	// group and be instantiated in a joint fix point.
	src := `
terminals e, f;
start S;
prod X -> a:e ;
prod X -> y:Y t:e : left(y, t);
prod Y -> b:f ;
prod Y -> x:X u:f : left(x, u);
prod S -> x:X ;
prod S -> y:Y ;
`
	p := mustParser(t, src, Options{})
	s := p.Schedule()
	if s.GroupOf["X"] != s.GroupOf["Y"] {
		t.Fatalf("X (group %d) and Y (group %d) must share an SCC group",
			s.GroupOf["X"], s.GroupOf["Y"])
	}
	if s.GroupOf["X"] >= s.GroupOf["S"] {
		t.Error("SCC must precede its parent")
	}
	// An alternating row e f e f: the joint fix point must build the full
	// X/Y chain covering all four tokens.
	mk := func(id int, typ token.Type, x float64) *token.Token {
		return &token.Token{ID: id, Type: typ, Pos: geom.R(x, x+10, 0, 10)}
	}
	toks := []*token.Token{
		mk(0, "e", 0), mk(1, "f", 14), mk(2, "e", 28), mk(3, "f", 42),
	}
	res, err := p.ParseAlive(toks)
	if err != nil {
		t.Fatal(err)
	}
	full := false
	for _, in := range res.Alive {
		if (in.Sym == "X" || in.Sym == "Y") && in.Cover.Count() == 4 {
			full = true
		}
	}
	if !full {
		t.Errorf("mutual recursion did not build the full chain; %d alive", len(res.Alive))
	}
}

func TestTerminalPreference(t *testing.T) {
	// Definition 3 allows preference types from T ∪ Σ: a preference whose
	// loser is a terminal kills terminal instances, and rollback erases
	// whatever was built on them.
	src := `
terminals text, image;
start S;
prod Cap -> t:text ;
prod Pic -> i:image ;
prod S -> c:Cap ;
prod S -> p:Pic ;
pref RT w:text beats l:image when samerow(w, l);
`
	p := mustParser(t, src, Options{})
	toks := []*token.Token{
		{ID: 0, Type: token.Text, SVal: "caption", Pos: geom.R(0, 50, 0, 10)},
		{ID: 1, Type: token.Image, Pos: geom.R(60, 90, 0, 10)},
	}
	res, err := p.ParseAlive(toks)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Alive {
		if in.Sym == "image" || in.Sym == "Pic" {
			t.Errorf("image reading should be dead: %v", in)
		}
	}
	if res.Stats.Pruned != 1 {
		t.Errorf("pruned = %d, want 1 (the image terminal)", res.Stats.Pruned)
	}
	// Terminal preferences enforce before any nonterminal group, so the
	// false reading is never even built — no rollback needed.
	if res.Stats.RolledBack != 0 {
		t.Errorf("rolled back = %d; JIT pruning should preempt Pic entirely", res.Stats.RolledBack)
	}

	// The late-pruning path builds Pic first and must roll it back.
	late := mustParser(t, src, Options{DisableScheduling: true})
	lres, err := late.ParseAlive([]*token.Token{
		{ID: 0, Type: token.Text, SVal: "caption", Pos: geom.R(0, 50, 0, 10)},
		{ID: 1, Type: token.Image, Pos: geom.R(60, 90, 0, 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Stats.RolledBack == 0 {
		t.Error("late pruning should roll back Pic and its S parent")
	}
	for _, in := range lres.Alive {
		if in.Sym == "Pic" {
			t.Errorf("Pic survived late pruning: %v", in)
		}
	}
}

func TestHigherArityProduction(t *testing.T) {
	// A 4-component production joins correctly and never reuses a token in
	// two slots.
	src := `
terminals e;
start S;
prod Quad -> a:e b:e c:e d:e : left(a, b) && left(b, c) && left(c, d);
prod S -> q:Quad ;
`
	p := mustParser(t, src, Options{})
	mk := func(id int, x float64) *token.Token {
		return &token.Token{ID: id, Type: "e", Pos: geom.R(x, x+10, 0, 10)}
	}
	toks := []*token.Token{mk(0, 0), mk(1, 14), mk(2, 28), mk(3, 42)}
	res, err := p.ParseAlive(toks)
	if err != nil {
		t.Fatal(err)
	}
	quads := 0
	for _, in := range res.Alive {
		if in.Sym == "Quad" {
			quads++
			if in.Cover.Count() != 4 {
				t.Errorf("quad with %d tokens", in.Cover.Count())
			}
		}
	}
	if quads != 1 {
		t.Errorf("quads = %d, want 1", quads)
	}
	if res.Stats.CompleteParses != 1 {
		t.Errorf("complete = %d", res.Stats.CompleteParses)
	}
}

func TestSemiNaiveMatchesNaiveSemantics(t *testing.T) {
	// The semi-naive fix point is an exact optimization: on the Qam
	// fragment it must create the very same instances a full re-join
	// would (structural dedup makes the instance set canonical).
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	// The known-good totals for grammar G on the Figure 5 fragment.
	if res.Stats.CompleteParses != 1 || len(res.Maximal) != 1 {
		t.Errorf("complete=%d trees=%d", res.Stats.CompleteParses, len(res.Maximal))
	}
	if res.Maximal[0].Size() != 42 {
		t.Errorf("tree size = %d", res.Maximal[0].Size())
	}
	// Constraint evaluations must be well below the naive quadratic bound
	// (the semi-naive frontier skips stale joins).
	if res.Stats.ConstraintEvals > 20000 {
		t.Errorf("constraint evals = %d; semi-naive frontier not engaged", res.Stats.ConstraintEvals)
	}
}
