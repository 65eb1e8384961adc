package merger

import (
	"testing"

	"formext/internal/core"
	"formext/internal/grammar"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/model"
	"formext/internal/obs"
	"formext/internal/token"
)

// pipeline runs HTML through layout, tokenization, parsing (default
// grammar) and merging.
func pipeline(t *testing.T, src string) (*model.SemanticModel, *core.Result) {
	t.Helper()
	g := grammar.Default()
	p, err := core.NewParser(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	toks := token.NewTokenizer().Tokenize(layout.New().Layout(htmlparse.Parse(src)))
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	return New(g).Merge(res), res
}

func TestMergeSimpleForm(t *testing.T) {
	sm, res := pipeline(t, `<form><table>
	<tr><td>Author</td><td><input type="text" name="a" size="30"></td></tr>
	<tr><td>Format</td><td><select name="f"><option>Hardcover</option><option>Paperback</option></select></td></tr>
	<tr><td><input type="submit" value="Go"></td></tr>
	</table></form>`)
	if len(sm.Conditions) != 2 {
		t.Fatalf("conditions = %+v", sm.Conditions)
	}
	if sm.Conditions[0].Attribute != "Author" || sm.Conditions[0].Domain.Kind != model.TextDomain {
		t.Errorf("cond 0 = %+v", sm.Conditions[0])
	}
	if sm.Conditions[1].Attribute != "Format" || len(sm.Conditions[1].Domain.Values) != 2 {
		t.Errorf("cond 1 = %+v", sm.Conditions[1])
	}
	if len(sm.Conflicts) != 0 || len(sm.Missing) != 0 {
		t.Errorf("conflicts=%v missing=%v", sm.Conflicts, sm.Missing)
	}
	if res.Stats.CompleteParses == 0 {
		t.Error("expected complete parse")
	}
	// Conditions ordered by first token.
	if sm.Conditions[0].TokenIDs[0] > sm.Conditions[1].TokenIDs[0] {
		t.Error("conditions not in document order")
	}
}

func TestMergeUnionAcrossPartialTrees(t *testing.T) {
	// Two visually separated fragments that cannot assemble into one QI:
	// the union of the partial trees must still contain both conditions.
	sm, res := pipeline(t, `<form>
	<table><tr><td>Make</td><td><select name="m"><option>Ford</option><option>Honda</option></select></td></tr></table>
	<div><br><br></div>
	<table><tr><td>Model</td><td><input type="text" name="mo" size="20"></td></tr></table>
	</form>`)
	if len(res.Maximal) < 1 {
		t.Fatal("no trees")
	}
	attrs := map[string]bool{}
	for _, c := range sm.Conditions {
		attrs[c.Attribute] = true
	}
	if !attrs["Make"] || !attrs["Model"] {
		t.Errorf("union lost a condition: %+v", sm.Conditions)
	}
}

func TestMergeDeduplicatesAcrossOverlappingTrees(t *testing.T) {
	// Overlapping maximal trees extract the same condition twice; the
	// union must deduplicate by token set.
	sm, _ := pipeline(t, `<form><table><tr>
	<td>Number of passengers</td>
	<td>Adults <select name="ad"><option>1</option><option>2</option></select></td>
	<td>Children <select name="ch"><option>0</option><option>1</option></select></td>
	</tr></table></form>`)
	seen := map[string]int{}
	for _, c := range sm.Conditions {
		key := ""
		for _, id := range c.TokenIDs {
			key += "," + string(rune('0'+id))
		}
		seen[key]++
		if seen[key] > 1 {
			t.Errorf("duplicate condition over tokens %v", c.TokenIDs)
		}
	}
	if len(sm.Conflicts) == 0 {
		t.Error("expected the passengers/adults conflict to be reported")
	}
}

func TestOperatorExtraction(t *testing.T) {
	sm, _ := pipeline(t, `<form>
	Author <input type="text" name="a" size="30"><br>
	<input type="radio" name="am" checked>contains words
	<input type="radio" name="am">exact phrase
	</form>`)
	if len(sm.Conditions) != 1 {
		t.Fatalf("conditions = %+v", sm.Conditions)
	}
	ops := sm.Conditions[0].Operators
	if len(ops) != 2 || ops[0] != "contains words" || ops[1] != "exact phrase" {
		t.Errorf("operators = %v", ops)
	}
}

func TestDomainInference(t *testing.T) {
	mk := func(typ token.Type, opts ...string) *token.Token {
		return &token.Token{Type: typ, Options: opts}
	}
	cases := []struct {
		name    string
		widgets []*token.Token
		texts   []string
		want    model.DomainKind
	}{
		{"one textbox", []*token.Token{mk(token.Textbox)}, nil, model.TextDomain},
		{"textarea", []*token.Token{mk(token.Textarea)}, nil, model.TextDomain},
		{"two boxes", []*token.Token{mk(token.Textbox), mk(token.Textbox)}, []string{"from", "to"}, model.RangeDomain},
		{"one select", []*token.Token{mk(token.SelectList, "a", "b")}, nil, model.EnumDomain},
		{"date selects", []*token.Token{
			mk(token.SelectList, "January", "February", "March", "April", "May", "June", "July", "August", "September", "October", "November", "December"),
			mk(token.SelectList, "2004", "2005", "2006", "2007"),
		}, nil, model.DateDomain},
		{"select pair with marks", []*token.Token{
			mk(token.SelectList, "1990", "1995"), mk(token.SelectList, "2000", "2005"),
		}, []string{"from", "to"}, model.RangeDomain},
		{"radios", []*token.Token{mk(token.RadioButton), mk(token.RadioButton)}, []string{"new", "used"}, model.EnumDomain},
		{"single checkbox", []*token.Token{mk(token.Checkbox)}, []string{"in stock"}, model.BoolDomain},
		{"checkbox group", []*token.Token{mk(token.Checkbox), mk(token.Checkbox)}, []string{"a", "b"}, model.EnumDomain},
		{"box plus select", []*token.Token{mk(token.Textbox), mk(token.SelectList, "1", "2")}, nil, model.RangeDomain},
		{"nothing", nil, nil, model.TextDomain},
	}
	for _, c := range cases {
		got := inferDomain(c.widgets, c.texts)
		if got.Kind != c.want {
			t.Errorf("%s: kind = %s, want %s", c.name, got.Kind, c.want)
		}
	}
	// Enum values come from the labels for buttons, options for selects.
	d := inferDomain([]*token.Token{mk(token.RadioButton), mk(token.RadioButton)}, []string{"new", "used"})
	if len(d.Values) != 2 || d.Values[0] != "new" {
		t.Errorf("radio enum values = %v", d.Values)
	}
	d = inferDomain([]*token.Token{mk(token.Checkbox), mk(token.Checkbox)}, []string{"a", "b"})
	if !d.Multiple {
		t.Error("checkbox groups are multi-select")
	}
}

func TestMissingExcludesDecorations(t *testing.T) {
	sm, _ := pipeline(t, `<form>
	<h3>Find books fast and cheap today online</h3>
	Title <input type="text" name="t" size="30"><br>
	<input type="submit" value="Search"><input type="reset">
	<hr>
	</form>`)
	if len(sm.Missing) != 0 {
		t.Errorf("decorations reported missing: %v", sm.Missing)
	}
	if len(sm.Conditions) != 1 || sm.Conditions[0].Attribute != "Title" {
		t.Errorf("conditions = %+v", sm.Conditions)
	}
}

// TestSelectDateishMirrorsGrammar checks that the merger's date-domain
// inference (allDateish) agrees with the grammar's dateish predicate on
// each single selection list, and that a group is dateish only when every
// list in it is.
func TestSelectDateishMirrorsGrammar(t *testing.T) {
	mk := func(opts ...string) *token.Token {
		return &token.Token{Type: token.SelectList, Options: opts}
	}
	days := make([]string, 31)
	for i := range days {
		days[i] = string([]byte{byte('0' + (i+1)/10), byte('0' + (i+1)%10)})
	}
	cases := []struct {
		name string
		tok  *token.Token
		want bool
	}{
		{"day list", mk(days...), true},
		{"passenger counts", mk("1", "2", "3", "4", "5"), false},
		{"month abbreviations", mk("Jan", "Feb", "Mar", "Apr"), true},
	}
	for _, c := range cases {
		if got := allDateish([]*token.Token{c.tok}); got != c.want {
			t.Errorf("%s: allDateish = %v, want %v", c.name, got, c.want)
		}
		if got := grammar.Dateish(c.tok); got != c.want {
			t.Errorf("%s: grammar.Dateish = %v, want %v", c.name, got, c.want)
		}
	}
	if allDateish([]*token.Token{mk(days...), mk("1", "2", "3", "4", "5")}) {
		t.Error("a group with one non-date list must not be dateish")
	}
	if allDateish([]*token.Token{{Type: token.Textbox}}) {
		t.Error("a group without selection lists must not be dateish")
	}
}

// pipelineSpan is pipeline with the merge recorded on a live span, so
// tests can assert the span report against the model.
func pipelineSpan(t *testing.T, src string) (*model.SemanticModel, *obs.Span) {
	t.Helper()
	g := grammar.Default()
	p, err := core.NewParser(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	toks := token.NewTokenizer().Tokenize(layout.New().Layout(htmlparse.Parse(src)))
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.NopSink{}).Start("test")
	sp := tr.Span(obs.StageMerge)
	sm := New(g).MergeSpan(res, sp)
	sp.End()
	tr.End()
	return sm, sp
}

// spanInt reads an integer attribute off a span, failing when absent.
func spanInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	for _, a := range sp.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int
		}
	}
	t.Fatalf("span %q has no int attribute %q (attrs %v)", sp.Name, key, sp.Attrs)
	return 0
}

// countEvents counts a span's events by name.
func countEvents(sp *obs.Span, name string) int {
	n := 0
	for _, ev := range sp.Events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

func TestMergeSpanReportsConflicts(t *testing.T) {
	// The passengers/adults row: overlapping trees claim the shared
	// heading for both conditions, the conflict class of interface Qaa.
	sm, sp := pipelineSpan(t, `<form><table><tr>
	<td>Number of passengers</td>
	<td>Adults <select name="ad"><option>1</option><option>2</option></select></td>
	<td>Children <select name="ch"><option>0</option><option>1</option></select></td>
	</tr></table></form>`)
	if len(sm.Conflicts) == 0 {
		t.Fatal("crafted form produced no conflicts")
	}
	if got := spanInt(t, sp, "conflicts"); got != int64(len(sm.Conflicts)) {
		t.Errorf("span conflicts = %d, model has %d", got, len(sm.Conflicts))
	}
	if got := countEvents(sp, "conflict"); got != len(sm.Conflicts) {
		t.Errorf("conflict events = %d, model has %d", got, len(sm.Conflicts))
	}
	if got := spanInt(t, sp, "conditions"); got != int64(len(sm.Conditions)) {
		t.Errorf("span conditions = %d, model has %d", got, len(sm.Conditions))
	}
	// Each conflict event names a token owned by two distinct conditions.
	for _, ev := range sp.Events {
		if ev.Name != "conflict" {
			continue
		}
		attrs := map[string]int64{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a.Int
		}
		if attrs["condA"] == attrs["condB"] {
			t.Errorf("conflict event with a single condition: %v", ev.Attrs)
		}
		if attrs["token"] < 0 || attrs["token"] >= int64(len(sm.Conditions[0].TokenIDs)+100) {
			t.Errorf("conflict event token out of range: %v", ev.Attrs)
		}
	}
}

func TestMergeSpanReportsMissing(t *testing.T) {
	// A bare selection list with no attribute text anywhere: no condition
	// can form, so the token is a missing element, not silently dropped.
	sm, sp := pipelineSpan(t,
		`<form><select name="x"><option>alpha</option><option>beta</option></select></form>`)
	if len(sm.Missing) == 0 {
		t.Fatal("crafted form produced no missing elements")
	}
	if got := spanInt(t, sp, "missing"); got != int64(len(sm.Missing)) {
		t.Errorf("span missing = %d, model has %d", got, len(sm.Missing))
	}
	if got := countEvents(sp, "missing"); got != len(sm.Missing) {
		t.Errorf("missing events = %d, model has %d", got, len(sm.Missing))
	}
	// The events name exactly the missing token IDs.
	want := map[int64]bool{}
	for _, id := range sm.Missing {
		want[int64(id)] = true
	}
	for _, ev := range sp.Events {
		if ev.Name != "missing" {
			continue
		}
		if len(ev.Attrs) != 1 || !want[ev.Attrs[0].Int] {
			t.Errorf("missing event for unexpected token: %v", ev.Attrs)
		}
	}
}

func TestMergeSpanNilIsSafe(t *testing.T) {
	// The untraced path must produce the identical model.
	src := `<form><table><tr>
	<td>Number of passengers</td>
	<td>Adults <select name="ad"><option>1</option><option>2</option></select></td>
	<td>Children <select name="ch"><option>0</option><option>1</option></select></td>
	</tr></table></form>`
	traced, _ := pipelineSpan(t, src)
	plain, _ := pipeline(t, src)
	if len(traced.Conditions) != len(plain.Conditions) ||
		len(traced.Conflicts) != len(plain.Conflicts) ||
		len(traced.Missing) != len(plain.Missing) {
		t.Errorf("traced and untraced merges differ: %+v vs %+v", traced, plain)
	}
}
