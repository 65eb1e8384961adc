package core

import (
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// figure6Grammar is the grammar G of Figure 6 (paper Example 1),
// transcribed into the DSL.
const figure6Grammar = `
terminals text, textbox, radiobutton;
start QI;
prod P1a QI -> h:HQI ;
prod P1b QI -> q:QI h:HQI : above(q, h);
prod P2a HQI -> c:CP ;
prod P2b HQI -> h:HQI c:CP : left(h, c);
prod P3a CP -> x:TextVal ;
prod P3b CP -> x:TextOp ;
prod P3c CP -> x:EnumRB ;
prod P4a TextVal -> a:Attr v:Val : left(a, v);
prod P4b TextVal -> a:Attr v:Val : above(a, v);
prod P4c TextVal -> a:Attr v:Val : below(a, v);
prod P5 TextOp -> a:Attr v:Val o:Op : left(a, v) && below(o, v);
prod P6 Op -> l:RBList ;
prod P7 EnumRB -> l:RBList ;
prod P8a RBList -> u:RBU ;
prod P8b RBList -> l:RBList u:RBU : left(l, u);
prod P9 RBU -> r:radiobutton t:text : left(r, t);
prod P10 Attr -> t:text ;
prod P11 Val -> b:textbox ;
pref R1 w:RBU beats l:Attr when overlap(w, l);
pref R2 w:RBList beats l:RBList when overlap(w, l) win subsumes(w, l) && count(w) > count(l);
pref R3 w:TextOp beats l:EnumRB when overlap(w, l) win subsumes(w, l);
tag condition TextVal TextOp EnumRB;
tag attribute Attr;
tag operator Op;
`

// qamFragmentTokens builds the token set T of Figure 5: the Author/Title
// fragment of amazon.com's interface — 16 tokens in two condition rows,
// each an attribute text, a textbox, and three radio/text operator pairs.
func qamFragmentTokens() []*token.Token {
	mk := func(id int, typ token.Type, sval, name string, pos geom.Rect) *token.Token {
		return &token.Token{ID: id, Type: typ, SVal: sval, Name: name, Pos: pos}
	}
	toks := []*token.Token{
		// Row 1: Author.
		mk(0, token.Text, "Author", "", geom.R(10, 52, 10, 24)),
		mk(1, token.Textbox, "", "query-0", geom.R(60, 270, 11, 33)),
		mk(2, token.RadioButton, "", "field-0", geom.R(10, 23, 40, 53)),
		mk(3, token.Text, "First name/initials and last name", "", geom.R(26, 257, 40, 54)),
		mk(4, token.RadioButton, "", "field-0", geom.R(265, 278, 40, 53)),
		mk(5, token.Text, "Start of last name", "", geom.R(281, 407, 40, 54)),
		mk(6, token.RadioButton, "", "field-0", geom.R(415, 428, 40, 53)),
		mk(7, token.Text, "Exact name", "", geom.R(431, 501, 40, 54)),
		// Row 2: Title.
		mk(8, token.Text, "Title", "", geom.R(10, 45, 70, 84)),
		mk(9, token.Textbox, "", "query-1", geom.R(60, 270, 71, 93)),
		mk(10, token.RadioButton, "", "field-1", geom.R(10, 23, 100, 113)),
		mk(11, token.Text, "Title word(s)", "", geom.R(26, 117, 100, 114)),
		mk(12, token.RadioButton, "", "field-1", geom.R(125, 138, 100, 113)),
		mk(13, token.Text, "Start(s) of title word(s)", "", geom.R(141, 316, 100, 114)),
		mk(14, token.RadioButton, "", "field-1", geom.R(325, 338, 100, 113)),
		mk(15, token.Text, "Exact start of title", "", geom.R(341, 481, 100, 114)),
	}
	return toks
}

func mustParser(t *testing.T, src string, opt Options) *Parser {
	t.Helper()
	g, err := grammar.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScheduleFigure6(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	s := p.Schedule()
	// Winner-then-loser: RBU before Attr (the R1 r-edge).
	if s.GroupOf["RBU"] >= s.GroupOf["Attr"] {
		t.Errorf("RBU (group %d) must be scheduled before Attr (group %d)",
			s.GroupOf["RBU"], s.GroupOf["Attr"])
	}
	// Children-parent: RBU before RBList before Op/EnumRB before CP.
	chain := []string{"RBU", "RBList", "Op", "TextOp", "CP", "HQI", "QI"}
	for i := 1; i < len(chain); i++ {
		if s.GroupOf[chain[i-1]] >= s.GroupOf[chain[i]] {
			t.Errorf("%s (group %d) must precede %s (group %d)",
				chain[i-1], s.GroupOf[chain[i-1]], chain[i], s.GroupOf[chain[i]])
		}
	}
	// R1's and R3's r-edges are direct; R2 is a same-symbol preference and
	// needs no ordering edge (it is enforced after the RBList group
	// regardless).
	if len(s.Direct) != 2 || s.Direct[0] != "R1" || s.Direct[1] != "R3" ||
		len(s.Transformed) != 0 || len(s.Dropped) != 0 {
		t.Errorf("r-edges: direct=%v transformed=%v dropped=%v", s.Direct, s.Transformed, s.Dropped)
	}
	// R3 also orders TextOp before EnumRB.
	if s.GroupOf["TextOp"] >= s.GroupOf["EnumRB"] {
		t.Errorf("TextOp (group %d) must precede EnumRB (group %d)",
			s.GroupOf["TextOp"], s.GroupOf["EnumRB"])
	}
}

func TestParseQamFragmentComplete(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompleteParses != 1 {
		t.Fatalf("complete parses = %d, want 1 (maximal trees: %d)",
			res.Stats.CompleteParses, len(res.Maximal))
	}
	if len(res.Maximal) != 1 {
		t.Fatalf("maximal trees = %d, want 1", len(res.Maximal))
	}
	tree := res.Maximal[0]
	if tree.Sym != "QI" || tree.Cover.Count() != 16 {
		t.Fatalf("tree = %v", tree)
	}
	// The paper counts 42 instances in the correct parse tree (26
	// nonterminals + 16 terminals); grammar G reproduces that exactly.
	if got := tree.Size(); got != 42 {
		t.Errorf("parse tree size = %d, want 42\n%s", got, tree.Dump())
	}
	// The author condition must be a TextOp grouping all 8 row-1 tokens.
	var textOps []*grammar.Instance
	tree.Walk(func(in *grammar.Instance) bool {
		if in.Sym == "TextOp" {
			textOps = append(textOps, in)
		}
		return true
	})
	if len(textOps) != 2 {
		t.Fatalf("TextOp count = %d, want 2\n%s", len(textOps), tree.Dump())
	}
	if textOps[0].Cover.Count() != 8 {
		t.Errorf("author TextOp covers %d tokens, want 8", textOps[0].Cover.Count())
	}
}

func TestJustInTimePruningKillsAttrReading(t *testing.T) {
	// Example 2/5 of the paper: the text "First name/initials and last
	// name" must not survive as an Attr instance (the RBU reading wins by
	// R1), and with scheduling the false Attr never feeds a TextVal.
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.ParseAlive(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Alive {
		if in.Sym == "Attr" && in.Cover.Has(3) {
			t.Errorf("Attr over token 3 should have been pruned: %v", in)
		}
		if in.Sym == "TextVal" && in.Cover.Has(3) {
			t.Errorf("TextVal using the radio text survived: %v", in)
		}
	}
	if res.Stats.Pruned == 0 {
		t.Error("expected preference kills")
	}
}

func TestBruteForceAmbiguityBlowup(t *testing.T) {
	// Section 4.2.1: exhausting all interpretations of the Figure 5
	// fragment yields an order of magnitude more instances and many
	// spurious parse trees; preferences collapse that to one.
	toks := qamFragmentTokens()
	brute := mustParser(t, figure6Grammar, Options{DisablePreferences: true})
	bres, err := brute.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	pruned := mustParser(t, figure6Grammar, Options{})
	pres, err := pruned.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Stats.TotalCreated < 3*pres.Stats.TotalCreated {
		t.Errorf("brute force created %d instances vs %d pruned — expected a blow-up",
			bres.Stats.TotalCreated, pres.Stats.TotalCreated)
	}
	if bres.Stats.CompleteParses <= 1 {
		t.Errorf("brute force complete parses = %d, want several (global ambiguity)",
			bres.Stats.CompleteParses)
	}
	if pres.Stats.CompleteParses != 1 {
		t.Errorf("pruned complete parses = %d, want exactly 1", pres.Stats.CompleteParses)
	}
	t.Logf("brute force: %d instances, %d complete parses; with preferences: %d instances, %d alive",
		bres.Stats.TotalCreated, bres.Stats.CompleteParses, pres.Stats.TotalCreated, pres.Stats.Alive)
}

func TestLatePruningMatchesScheduledResult(t *testing.T) {
	// Disabling the 2P schedule must not change the surviving
	// interpretation — only the amount of wasted work (rollback).
	toks := qamFragmentTokens()
	sched := mustParser(t, figure6Grammar, Options{})
	sres, err := sched.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	late := mustParser(t, figure6Grammar, Options{DisableScheduling: true})
	lres, err := late.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Maximal) != len(sres.Maximal) {
		t.Fatalf("late pruning: %d maximal trees, scheduled: %d", len(lres.Maximal), len(sres.Maximal))
	}
	for i := range lres.Maximal {
		if !lres.Maximal[i].Cover.Equal(sres.Maximal[i].Cover) {
			t.Errorf("tree %d covers differ: %v vs %v", i, lres.Maximal[i].Cover, sres.Maximal[i].Cover)
		}
		if lres.Maximal[i].Sym != sres.Maximal[i].Sym {
			t.Errorf("tree %d symbols differ: %s vs %s", i, lres.Maximal[i].Sym, sres.Maximal[i].Sym)
		}
	}
	if lres.Stats.RolledBack == 0 {
		t.Error("late pruning should need rollback")
	}
	if lres.Stats.TotalCreated <= sres.Stats.TotalCreated {
		t.Errorf("late pruning created %d <= scheduled %d; expected extra temporary instances",
			lres.Stats.TotalCreated, sres.Stats.TotalCreated)
	}
}

func TestPartialTreesOnUncapturedLayout(t *testing.T) {
	// A column-by-column arrangement (the Figure 14 variation) is not
	// captured by grammar G's row-by-row structure: the parser must emit
	// multiple maximal partial trees instead of rejecting the input.
	mk := func(id int, typ token.Type, sval, name string, pos geom.Rect) *token.Token {
		return &token.Token{ID: id, Type: typ, SVal: sval, Name: name, Pos: pos}
	}
	// Two columns far apart; each column is label-above-box — but the
	// second column is offset vertically so rows do not align and the
	// columns cannot merge into HQIs, while column 2's pieces sit too far
	// right to be Left-adjacent.
	toks := []*token.Token{
		mk(0, token.Text, "From", "", geom.R(10, 45, 10, 24)),
		mk(1, token.Textbox, "", "from", geom.R(10, 160, 30, 52)),
		mk(2, token.Text, "To", "", geom.R(600, 620, 18, 32)),
		mk(3, token.Textbox, "", "to", geom.R(600, 750, 38, 60)),
	}
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompleteParses != 0 {
		t.Fatalf("expected no complete parse, got %d", res.Stats.CompleteParses)
	}
	if len(res.Maximal) < 2 {
		t.Fatalf("expected >= 2 partial trees, got %d", len(res.Maximal))
	}
	// Union of the partial trees still covers everything.
	covered := res.Maximal[0].Cover.Clone()
	for _, m := range res.Maximal[1:] {
		covered.UnionWith(m.Cover)
	}
	if covered.Count() != 4 {
		t.Errorf("partial trees cover %d of 4 tokens", covered.Count())
	}
}

func TestMaximalTreesNotSubsumed(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{DisablePreferences: true})
	res, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Maximal {
		if a.Dead {
			t.Errorf("maximal tree %d is dead", i)
		}
		for j, b := range res.Maximal {
			if i != j && a.Cover.ProperSubsetOf(b.Cover) {
				t.Errorf("maximal tree %d subsumed by %d", i, j)
			}
		}
	}
}

func TestParseDeterministic(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	r1, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.TotalCreated != r2.Stats.TotalCreated || r1.Stats.Pruned != r2.Stats.Pruned ||
		len(r1.Maximal) != len(r2.Maximal) {
		t.Errorf("non-deterministic parse: %+v vs %+v", r1.Stats, r2.Stats)
	}
	for i := range r1.Maximal {
		if !r1.Maximal[i].Cover.Equal(r2.Maximal[i].Cover) {
			t.Errorf("maximal tree %d differs across runs", i)
		}
	}
}

func TestTokenIDValidation(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	toks := qamFragmentTokens()
	toks[3].ID = 99
	if _, err := p.Parse(toks); err == nil {
		t.Error("expected error for non-dense token IDs")
	}
}

func TestMaxInstancesTruncation(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{DisablePreferences: true, MaxInstances: 50})
	res, err := p.Parse(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Error("expected truncation at 50 instances")
	}
	if res.Stats.TotalCreated > 60 {
		t.Errorf("truncation ineffective: %d instances", res.Stats.TotalCreated)
	}
}

func TestScheduleTransformationFigure13(t *testing.T) {
	// The Figure 13 scenario: symbols B and C share a construct A and two
	// preferences prefer each over the other conditionally; the two
	// r-edges form a cycle. The transformation relaxes the second r-edge
	// into "winner before the loser's parents".
	src := `
terminals e, f;
start S;
prod A -> x:e ;
prod B -> a:A p:f : samerow(a, p);
prod C -> a:A q:e : samerow(a, q);
prod D -> c:C ;
prod E2 -> b:B ;
prod S -> d:D ;
prod S -> x2:E2 ;
pref RB w:B beats l:C when overlap(w, l) win compdist(w) <= compdist(l);
pref RC w:C beats l:B when overlap(w, l) win compdist(w) < compdist(l);
`
	p := mustParser(t, src, Options{})
	s := p.Schedule()
	if len(s.Direct) != 1 || s.Direct[0] != "RB" {
		t.Errorf("direct r-edges = %v, want [RB]", s.Direct)
	}
	if len(s.Transformed) != 1 || s.Transformed[0] != "RC" {
		t.Errorf("transformed r-edges = %v, want [RC]", s.Transformed)
	}
	if len(s.Dropped) != 0 {
		t.Errorf("dropped r-edges = %v, want none", s.Dropped)
	}
	// The transformed edge schedules C before B's parent E2.
	if s.GroupOf["C"] >= s.GroupOf["E2"] {
		t.Errorf("C (group %d) must precede E2 (group %d) after transformation",
			s.GroupOf["C"], s.GroupOf["E2"])
	}
	// And the direct edge schedules B before C.
	if s.GroupOf["B"] >= s.GroupOf["C"] {
		t.Errorf("B (group %d) must precede C (group %d)", s.GroupOf["B"], s.GroupOf["C"])
	}
}

func TestSubsumePreferenceSparesWinnerDerivation(t *testing.T) {
	// R2 kills the shorter radio lists, which are subtrees of the winning
	// longer list; the winner's own derivation must survive the rollback.
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.ParseAlive(qamFragmentTokens())
	if err != nil {
		t.Fatal(err)
	}
	longLists := 0
	for _, in := range res.Alive {
		if in.Sym == "RBList" && in.Cover.Count() == 6 {
			longLists++
		}
		if in.Sym == "RBList" && in.Cover.Count() < 6 && !in.Dead {
			t.Errorf("short RBList %v survived R2", in)
		}
	}
	if longLists != 2 {
		t.Errorf("got %d full-length RBLists, want 2", longLists)
	}
}

func TestEmptyInput(t *testing.T) {
	p := mustParser(t, figure6Grammar, Options{})
	res, err := p.Parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maximal) != 0 || res.Stats.TotalCreated != 0 {
		t.Errorf("empty input should produce nothing: %+v", res.Stats)
	}
}
