package grammar

import (
	"strings"
	"testing"

	"formext/internal/geom"
	"formext/internal/token"
)

// mkText builds a terminal instance over a text token.
func mkText(id int, sval string, pos geom.Rect, universe int) *Instance {
	return NewTerminal(&token.Token{ID: id, Type: token.Text, SVal: sval, Pos: pos}, universe)
}

func mkWidget(id int, typ token.Type, name string, pos geom.Rect, universe int) *Instance {
	return NewTerminal(&token.Token{ID: id, Type: typ, Name: name, Pos: pos}, universe)
}

func ctxWith(bind map[string]*Instance) *EvalCtx {
	return &EvalCtx{Bind: bind, Th: geom.DefaultThresholds}
}

// evalConstraint parses a one-production grammar using the given constraint
// over variables a and b and evaluates it.
func evalConstraint(t *testing.T, constraint string, a, b *Instance) bool {
	t.Helper()
	src := `terminals text, textbox, radiobutton, selectlist, checkbox; start X;
		prod X -> a:text b:textbox : ` + constraint + `;`
	g, err := ParseDSL(src)
	if err != nil {
		t.Fatalf("constraint %q: %v", constraint, err)
	}
	return EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": a, "b": b}))
}

func TestSpatialBuiltins(t *testing.T) {
	label := mkText(0, "Author", geom.R(10, 52, 10, 24), 2)
	box := mkWidget(1, token.Textbox, "q", geom.R(60, 270, 11, 33), 2)
	cases := []struct {
		expr string
		want bool
	}{
		{"left(a, b)", true},
		{"left(b, a)", false},
		{"right(b, a)", true},
		{"samerow(a, b)", true},
		{"above(a, b)", false},
		{"hgap(a, b) == 8", true},
		{"distance(a, b) <= 10", true},
		{"width(a) == 42", true},
		{"height(b) == 22", true},
		{"overlap(a, b)", false},
		{"alignedmiddle(a, b)", true},
	}
	for _, c := range cases {
		if got := evalConstraint(t, c.expr, label, box); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestTextBuiltins(t *testing.T) {
	u := 10
	cases := []struct {
		expr string
		sval string
		want bool
	}{
		{"attrlike(a)", "Author", true},
		{"attrlike(a)", "Departure date:", true},
		{"attrlike(a)", "", false},
		{"attrlike(a)", "Find the best deals on over two million books today", false},
		{"attrlike(a)", "12345", false},
		{"oplike(a)", "Exact name", true},
		{"oplike(a)", "Start of last name", true},
		{"oplike(a)", "Author", false},
		{"caplike(a)", "Welcome to our bookstore search page", true},
		{"caplike(a)", "Price", false},
		{"endscolon(a)", "Title:", true},
		{"endscolon(a)", "Title", false},
		{"textis(a, \"from\")", "From:", true},
		{"textis(a, \"from\", \"between\")", "Between", true},
		{"textis(a, \"from\")", "From City", false},
		{"contains(a, \"name\")", "Exact name", true},
		{"wordcount(a) == 3", "one two three", true},
		{"textlen(a) > 5", "abcdefg", true},
	}
	for _, c := range cases {
		in := mkText(0, c.sval, geom.R(0, 10, 0, 10), u)
		got := evalConstraint(t, c.expr, in, mkWidget(1, token.Textbox, "x", geom.R(20, 30, 0, 10), u))
		if got != c.want {
			t.Errorf("%s on %q = %v, want %v", c.expr, c.sval, got, c.want)
		}
	}
}

func TestSelectBuiltins(t *testing.T) {
	u := 5
	sel := func(opts ...string) *Instance {
		return NewTerminal(&token.Token{ID: 0, Type: token.SelectList, Options: opts, Pos: geom.R(0, 50, 0, 22)}, u)
	}
	months := sel("January", "February", "March", "April", "May", "June",
		"July", "August", "September", "October", "November", "December")
	days := func() *Instance {
		opts := make([]string, 31)
		for i := range opts {
			opts[i] = string(rune('0'+(i+1)/10)) + string(rune('0'+(i+1)%10))
		}
		return sel(opts...)
	}()
	years := sel("2004", "2005", "2006", "2007")
	abbrevs := sel("Jan", "Feb", "Mar", "Apr")
	// A leading sign parses: "+2004" counts as a year.
	signedYears := sel("+2004", "+2005", "+2006", "+2007")
	passengers := sel("1", "2", "3", "4", "5")
	ops := sel("contains", "starts with", "exact phrase")
	makes := sel("Ford", "Toyota", "Honda")

	check := func(name, expr string, in *Instance, want bool) {
		t.Helper()
		src := `terminals selectlist, textbox; start X; prod X -> a:selectlist b:textbox : ` + expr + `;`
		g, err := ParseDSL(src)
		if err != nil {
			t.Fatal(err)
		}
		other := mkWidget(1, token.Textbox, "x", geom.R(60, 70, 0, 10), u)
		got := EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": in, "b": other}))
		if got != want {
			t.Errorf("%s: %s = %v, want %v", name, expr, got, want)
		}
	}
	check("months", "dateish(a)", months, true)
	check("days", "dateish(a)", days, true)
	check("years", "dateish(a)", years, true)
	check("month abbreviations", "dateish(a)", abbrevs, true)
	check("signed years", "dateish(a)", signedYears, true)
	check("passengers not dateish", "dateish(a)", passengers, false)
	check("makes not dateish", "dateish(a)", makes, false)
	check("ops list", "oplist(a)", ops, true)
	check("makes not ops", "oplist(a)", makes, false)
	check("passengers numeric", "numlist(a)", passengers, true)
	check("makes not numeric", "numlist(a)", makes, false)
	check("optioncount", "optioncount(a) == 12", months, true)
}

func TestCoverBuiltinsAndBuild(t *testing.T) {
	u := 4
	g := MustParseDSL(`terminals radiobutton, text; start RBList;
		prod RBU -> r:radiobutton t:text : left(r, t);
		prod RBList -> u:RBU ;
		prod RBList -> l:RBList u:RBU : left(l, u);
		pref R w:RBList beats l:RBList when overlap(w, l) win subsumes(w, l) && count(w) > count(l);`)
	r1 := mkWidget(0, token.RadioButton, "m", geom.R(0, 13, 0, 13), u)
	t1 := mkText(1, "yes", geom.R(16, 40, 0, 13), u)
	r2 := mkWidget(2, token.RadioButton, "m", geom.R(50, 63, 0, 13), u)
	t2 := mkText(3, "no", geom.R(66, 90, 0, 13), u)

	rbu1 := Build(g.Prods[0], []*Instance{r1, t1})
	rbu2 := Build(g.Prods[0], []*Instance{r2, t2})
	short := Build(g.Prods[1], []*Instance{rbu1})
	long := Build(g.Prods[2], []*Instance{short, rbu2})

	if got := rbu1.Cover.Members(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("rbu1 cover = %v", got)
	}
	if long.Cover.Count() != 4 {
		t.Errorf("long cover = %v", long.Cover)
	}
	if long.Pos != (geom.R(0, 90, 0, 13)) {
		t.Errorf("constructor pos = %v", long.Pos)
	}
	pref := g.Prefs[0]
	ctx := ctxWith(map[string]*Instance{"w": long, "l": short})
	if !EvalBool(pref.Cond, ctx) || !EvalBool(pref.Win, ctx) {
		t.Error("long list should beat subsumed short list")
	}
	rev := ctxWith(map[string]*Instance{"w": short, "l": long})
	if EvalBool(pref.Win, rev) {
		t.Error("short list must not beat long list")
	}
	if long.Size() != 8 {
		t.Errorf("Size = %d, want 8", long.Size())
	}
	if long.Height() != 4 {
		t.Errorf("Height = %d, want 4", long.Height())
	}
	if got := long.Texts(); got != "yes no" {
		t.Errorf("Texts = %q", got)
	}
	if toks := long.Tokens(); len(toks) != 4 || toks[0].ID != 0 || toks[3].ID != 3 {
		t.Errorf("Tokens order wrong: %v", toks)
	}
}

func TestSameName(t *testing.T) {
	u := 4
	r1 := mkWidget(0, token.RadioButton, "grp", geom.R(0, 13, 0, 13), u)
	r2 := mkWidget(1, token.RadioButton, "grp", geom.R(20, 33, 0, 13), u)
	r3 := mkWidget(2, token.RadioButton, "other", geom.R(40, 53, 0, 13), u)
	src := `terminals radiobutton, textbox; start X; prod X -> a:radiobutton b:radiobutton : samename(a, b);`
	g := MustParseDSL(src)
	if !EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": r1, "b": r2})) {
		t.Error("same group names should match")
	}
	if EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": r1, "b": r3})) {
		t.Error("different group names must not match")
	}
}

func TestEvalErrorsAreFalse(t *testing.T) {
	// Comparing a string to a number is a type error; EvalBool -> false.
	g, err := ParseDSL(`terminals text, textbox; start X; prod X -> a:text b:textbox : sval(a) == 3;`)
	if err != nil {
		t.Fatal(err)
	}
	a := mkText(0, "x", geom.R(0, 1, 0, 1), 2)
	b := mkWidget(1, token.Textbox, "q", geom.R(2, 3, 0, 1), 2)
	if EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": a, "b": b})) {
		t.Error("type-error constraint should evaluate to false")
	}
	// Unbound variable.
	v := &VarExpr{Name: "zzz"}
	if EvalBool(v, ctxWith(nil)) {
		t.Error("unbound variable should be false under EvalBool")
	}
	// nil expression is vacuously true.
	if !EvalBool(nil, ctxWith(nil)) {
		t.Error("nil constraint should be true")
	}
}

func TestInstanceDumpAndString(t *testing.T) {
	u := 2
	g := MustParseDSL(`terminals radiobutton, text; start RBU; prod PX RBU -> r:radiobutton t:text : left(r, t);`)
	r := mkWidget(0, token.RadioButton, "m", geom.R(0, 13, 0, 13), u)
	s := mkText(1, "opt", geom.R(16, 40, 0, 13), u)
	rbu := Build(g.Prods[0], []*Instance{r, s})
	if got := rbu.String(); got != "RBU{0, 1}" {
		t.Errorf("String = %q", got)
	}
	d := rbu.Dump()
	if !strings.Contains(d, "RBU") || !strings.Contains(d, "PX") || !strings.Contains(d, "radiobutton") {
		t.Errorf("Dump = %q", d)
	}
}

func TestValidateCatchesRoleOnUnknownSymbol(t *testing.T) {
	g := NewGrammar()
	g.Terminals["text"] = true
	g.Nonterminals["A"] = true
	g.Start = "A"
	g.Prods = append(g.Prods, &Production{Name: "P", Head: "A", Components: []Component{{Var: "t", Sym: "text"}}})
	g.Roles["Ghost"] = RoleCondition
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "role tag") {
		t.Errorf("Validate = %v", err)
	}
}
