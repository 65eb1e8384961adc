package core

import (
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

func TestStructuralKey(t *testing.T) {
	a := &grammar.Instance{ID: 3}
	b := &grammar.Instance{ID: 47}
	k1 := structuralKey("TextVal", []*grammar.Instance{a, b})
	k2 := structuralKey("TextVal", []*grammar.Instance{b, a})
	if k1 == k2 {
		t.Error("component order must be part of the key")
	}
	if k1 != "TextVal|3|47" {
		t.Errorf("key = %q", k1)
	}
	if structuralKey("X", nil) != "X" {
		t.Error("empty components")
	}
	if structuralKey("X", []*grammar.Instance{{ID: 0}}) != "X|0" {
		t.Error("zero id")
	}
}

func TestAppendInt(t *testing.T) {
	cases := map[int]string{
		0: "0", 7: "7", 10: "10", 123456: "123456",
		// Regression: the pre-rewrite digit loop ran `for v > 0` after
		// appending '-', so negatives rendered as a bare "-".
		-1: "-1", -10: "-10", -123456: "-123456",
	}
	for v, want := range cases {
		if got := string(appendInt(nil, v)); got != want {
			t.Errorf("appendInt(%d) = %q", v, got)
		}
	}
}

func TestStatsDurationAndEvals(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration <= 0 {
		t.Error("duration not measured")
	}
	if res.Stats.ConstraintEvals == 0 {
		t.Error("constraint evals not counted")
	}
	if res.Stats.Tokens != 16 {
		t.Errorf("tokens = %d", res.Stats.Tokens)
	}
}

func TestMaximizeDirect(t *testing.T) {
	// Drive maximize through the engine with a grammar yielding
	// overlapping partial trees: two conditions sharing no complete
	// assembly (the Figure 14 overlap case in miniature).
	src := `
terminals text, textbox;
start S;
prod Pair -> a:text b:textbox : left(a, b);
prod Pair -> a:text b:textbox : above(a, b);
prod S -> p:Pair ;
`
	p := mustParser(t, src, Options{})
	// One textbox with a label left AND a caption above: two Pair
	// instances overlap on the box; neither subsumes the other.
	toks := []*token.Token{
		{ID: 0, Type: token.Text, SVal: "cap", Pos: geom.R(40, 100, 0, 14)},
		{ID: 1, Type: token.Text, SVal: "label", Pos: geom.R(0, 36, 20, 34)},
		{ID: 2, Type: token.Textbox, Name: "x", Pos: geom.R(44, 150, 18, 40)},
	}
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maximal) != 2 {
		for _, m := range res.Maximal {
			t.Logf("tree: %v", m)
		}
		t.Fatalf("maximal trees = %d, want 2 overlapping", len(res.Maximal))
	}
	for _, m := range res.Maximal {
		if m.Sym != "S" {
			t.Errorf("representative should be the start symbol, got %s", m.Sym)
		}
		if m.Cover.Count() != 2 {
			t.Errorf("tree covers %d", m.Cover.Count())
		}
	}
	if res.Stats.CompleteParses != 0 {
		t.Errorf("complete = %d", res.Stats.CompleteParses)
	}
}

func TestDeadCandidatesNeverJoin(t *testing.T) {
	// After a terminal is pruned, productions over its symbol skip it.
	src := `
terminals text, image;
start S;
prod S -> t:text i:image : samerow(t, i);
pref R w:text beats l:image when samerow(w, l);
`
	p := mustParser(t, src, Options{})
	toks := []*token.Token{
		{ID: 0, Type: token.Text, SVal: "x", Pos: geom.R(0, 10, 0, 10)},
		{ID: 1, Type: token.Image, Pos: geom.R(20, 30, 0, 10)},
	}
	res, err := p.ParseAlive(toks)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Alive {
		if in.Sym == "S" {
			t.Errorf("S built from a pruned image: %v", in)
		}
	}
}

func TestByPriorityOrdering(t *testing.T) {
	prefs := []*grammar.Preference{
		{Name: "a", Priority: 0},
		{Name: "b", Priority: 5},
		{Name: "c", Priority: 5},
		{Name: "d", Priority: 2},
	}
	got := ByPriority(prefs)
	want := []string{"b", "c", "d", "a"}
	for i, p := range got {
		if p.Name != want[i] {
			t.Fatalf("order = %v", names(got))
		}
	}
	// Original slice untouched.
	if prefs[0].Name != "a" {
		t.Error("ByPriority mutated its input")
	}
}

func names(ps []*grammar.Preference) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
