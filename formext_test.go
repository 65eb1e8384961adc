package formext

import (
	"strings"
	"testing"
)

// qamHTML is an amazon.com-style book search (interface Qam, Figure 3(a)):
// text conditions with radio-button operators, plus select enumerations.
const qamHTML = `<form action="/book-search" method="get">
<table>
<tr><td>Author</td><td><input type="text" name="field-author" size="40"></td></tr>
<tr><td></td><td>
<input type="radio" name="author-mode" value="word" checked>First name/initials and last name
<input type="radio" name="author-mode" value="begins">Start of last name
<input type="radio" name="author-mode" value="exact">Exact name</td></tr>
<tr><td>Title</td><td><input type="text" name="field-title" size="40"></td></tr>
<tr><td></td><td>
<input type="radio" name="title-mode" value="word" checked>Title word(s)
<input type="radio" name="title-mode" value="begins">Start(s) of title word(s)
<input type="radio" name="title-mode" value="exact">Exact start of title</td></tr>
<tr><td>Publisher</td><td><input type="text" name="field-publisher" size="40"></td></tr>
<tr><td>Subject</td><td><select name="subject"><option>Any subject</option><option>Arts</option><option>Biography</option></select></td></tr>
<tr><td>Price</td><td><select name="price"><option>any price</option><option>under $5</option><option>under $20</option><option>under $50</option></select></td></tr>
<tr><td colspan=2><input type="submit" value="Search Now"><input type="reset" value="Clear"></td></tr>
</table>
</form>`

// qaaHTML is an aa.com-style airfare search (interface Qaa, Figure 3(b)).
const qaaHTML = `<form>
<table>
<tr><td>From</td><td><input type="text" name="orig" size="20"></td>
    <td>To</td><td><input type="text" name="dest" size="20"></td></tr>
<tr><td>Departure date</td><td colspan=3>
  <select name="dmonth"><option>January</option><option>February</option><option>March</option><option>April</option><option>May</option><option>June</option><option>July</option><option>August</option><option>September</option><option>October</option><option>November</option><option>December</option></select>
  <select name="dday"><option>1</option><option>2</option><option>3</option><option>4</option><option>5</option><option>6</option><option>7</option><option>8</option><option>9</option><option>10</option><option>11</option><option>12</option><option>13</option><option>14</option><option>15</option><option>16</option><option>17</option><option>18</option><option>19</option><option>20</option><option>21</option><option>22</option><option>23</option><option>24</option><option>25</option><option>26</option><option>27</option><option>28</option><option>29</option><option>30</option><option>31</option></select>
  <select name="dyear"><option>2004</option><option>2005</option><option>2006</option><option>2007</option></select></td></tr>
<tr><td>Number of passengers</td><td><select name="pax"><option>1</option><option>2</option><option>3</option><option>4</option><option>5</option><option>6</option></select></td>
    <td>Cabin</td><td><select name="cabin"><option>Coach</option><option>Business</option><option>First</option></select></td></tr>
<tr><td>Trip type</td><td colspan=3>
  <input type="radio" name="trip" checked>Round trip
  <input type="radio" name="trip">One way</td></tr>
<tr><td colspan=4><input type="submit" value="Go"></td></tr>
</table></form>`

func mustExtract(t *testing.T, src string) *Result {
	t.Helper()
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func findCond(res *Result, attr string) *Condition {
	for i := range res.Model.Conditions {
		if strings.EqualFold(res.Model.Conditions[i].Attribute, attr) {
			return &res.Model.Conditions[i]
		}
	}
	return nil
}

func attrList(res *Result) string {
	var names []string
	for _, c := range res.Model.Conditions {
		names = append(names, c.Attribute)
	}
	return strings.Join(names, " | ")
}

func TestExtractQam(t *testing.T) {
	res := mustExtract(t, qamHTML)
	if got := len(res.Model.Conditions); got != 5 {
		t.Fatalf("got %d conditions (%s), want 5", got, attrList(res))
	}
	author := findCond(res, "Author")
	if author == nil {
		t.Fatalf("no author condition: %s", attrList(res))
	}
	// The paper's running example: c_author = [author; {"first name...",
	// "start...", "exact name"}; text].
	if author.Domain.Kind != TextDomain {
		t.Errorf("author domain = %s, want text", author.Domain.Kind)
	}
	if len(author.Operators) != 3 || !strings.Contains(author.Operators[2], "Exact name") {
		t.Errorf("author operators = %v", author.Operators)
	}
	if len(author.Fields) != 1 || author.Fields[0] != "field-author" {
		t.Errorf("author fields = %v", author.Fields)
	}
	title := findCond(res, "Title")
	if title == nil || len(title.Operators) != 3 {
		t.Fatalf("title condition bad: %+v", title)
	}
	if !strings.Contains(title.Operators[0], "Title word(s)") {
		t.Errorf("title operators picked up the wrong radio row: %v", title.Operators)
	}
	price := findCond(res, "Price")
	if price == nil || price.Domain.Kind != EnumDomain || len(price.Domain.Values) != 4 {
		t.Fatalf("price condition bad: %+v", price)
	}
	if len(res.Model.Conflicts) != 0 || len(res.Model.Missing) != 0 {
		t.Errorf("conflicts=%v missing=%v, want none", res.Model.Conflicts, res.Model.Missing)
	}
	if res.Stats.CompleteParses == 0 {
		t.Error("expected a complete parse of Qam")
	}
}

func TestExtractQaa(t *testing.T) {
	res := mustExtract(t, qaaHTML)
	if got := len(res.Model.Conditions); got != 6 {
		t.Fatalf("got %d conditions (%s), want 6", got, attrList(res))
	}
	for _, want := range []struct {
		attr string
		kind DomainKind
	}{
		{"From", TextDomain},
		{"To", TextDomain},
		{"Departure date", DateDomain},
		{"Number of passengers", EnumDomain},
		{"Cabin", EnumDomain},
		{"Trip type", EnumDomain},
	} {
		c := findCond(res, want.attr)
		if c == nil {
			t.Errorf("missing condition %q (%s)", want.attr, attrList(res))
			continue
		}
		if c.Domain.Kind != want.kind {
			t.Errorf("%s domain = %s, want %s", want.attr, c.Domain.Kind, want.kind)
		}
	}
	trip := findCond(res, "Trip type")
	if trip != nil {
		if len(trip.Domain.Values) != 2 || trip.Domain.Values[0] != "Round trip" {
			t.Errorf("trip values = %v", trip.Domain.Values)
		}
	}
	if len(res.Model.Conflicts) != 0 || len(res.Model.Missing) != 0 {
		t.Errorf("conflicts=%v missing=%v", res.Model.Conflicts, res.Model.Missing)
	}
}

func TestConflictReporting(t *testing.T) {
	// The Figure 14 situation: a number selection list sits on one row
	// with both the caption "Number of passengers" and the label
	// "Adults" — two same-row parses claim it and the merger must report
	// the conflict.
	src := `<form><table><tr>
	<td>Number of passengers</td>
	<td>Adults <select name="adults"><option>1</option><option>2</option><option>3</option></select></td>
	<td>Children <select name="children"><option>0</option><option>1</option><option>2</option></select></td>
	</tr></table></form>`
	res := mustExtract(t, src)
	if len(res.Model.Conflicts) == 0 {
		t.Fatalf("expected a conflict on the adults selection list; conditions: %s", attrList(res))
	}
	// Both readings must be among the extracted conditions.
	if findCond(res, "Adults") == nil {
		t.Errorf("missing Adults reading: %s", attrList(res))
	}
	if findCond(res, "Number of passengers") == nil {
		t.Errorf("missing Number of passengers reading: %s", attrList(res))
	}
}

func TestRangeCondition(t *testing.T) {
	src := `<form><table>
	<tr><td>Price</td><td>from <input type="text" name="pmin" size="8"> to <input type="text" name="pmax" size="8"></td></tr>
	<tr><td>Keywords</td><td><input type="text" name="kw" size="40"></td></tr>
	</table></form>`
	res := mustExtract(t, src)
	price := findCond(res, "Price")
	if price == nil {
		t.Fatalf("no price condition: %s", attrList(res))
	}
	if price.Domain.Kind != RangeDomain {
		t.Errorf("price domain = %s, want range", price.Domain.Kind)
	}
	if len(price.Fields) != 2 {
		t.Errorf("price fields = %v, want both endpoints", price.Fields)
	}
	kw := findCond(res, "Keywords")
	if kw == nil || kw.Domain.Kind != TextDomain {
		t.Errorf("keywords condition bad: %+v", kw)
	}
}

func TestCheckboxConditions(t *testing.T) {
	src := `<form><table>
	<tr><td>Format</td><td>
		<input type="checkbox" name="fmt" value="hc">Hardcover
		<input type="checkbox" name="fmt" value="pb">Paperback
		<input type="checkbox" name="fmt" value="ab">Audio</td></tr>
	<tr><td></td><td><input type="checkbox" name="instock">In stock only</td></tr>
	</table></form>`
	res := mustExtract(t, src)
	format := findCond(res, "Format")
	if format == nil {
		t.Fatalf("no format condition: %s", attrList(res))
	}
	if format.Domain.Kind != EnumDomain || len(format.Domain.Values) != 3 || !format.Domain.Multiple {
		t.Errorf("format domain = %+v", format.Domain)
	}
	stock := findCond(res, "In stock only")
	if stock == nil {
		t.Fatalf("no in-stock condition: %s", attrList(res))
	}
	if stock.Domain.Kind != BoolDomain {
		t.Errorf("in-stock domain = %s, want bool", stock.Domain.Kind)
	}
}

func TestLabelAboveField(t *testing.T) {
	src := `<form>
	Search by keyword<br>
	<input type="text" name="q" size="30"><br>
	Category<br>
	<select name="cat"><option>All</option><option>Fiction</option></select>
	</form>`
	res := mustExtract(t, src)
	if c := findCond(res, "Search by keyword"); c == nil || c.Domain.Kind != TextDomain {
		t.Errorf("above-label text condition bad: %s", attrList(res))
	}
	if c := findCond(res, "Category"); c == nil || c.Domain.Kind != EnumDomain {
		t.Errorf("above-label enum condition bad: %s", attrList(res))
	}
}

func TestOperatorSelect(t *testing.T) {
	src := `<form>
	Title <select name="tmode"><option>contains</option><option>starts with</option><option>exact phrase</option></select>
	<input type="text" name="title" size="30">
	</form>`
	res := mustExtract(t, src)
	title := findCond(res, "Title")
	if title == nil {
		t.Fatalf("no title condition: %s", attrList(res))
	}
	if len(title.Operators) != 3 || title.Operators[0] != "contains" {
		t.Errorf("operators = %v", title.Operators)
	}
	if title.Domain.Kind != TextDomain {
		t.Errorf("domain = %s, want text", title.Domain.Kind)
	}
}

func TestMissingElementReport(t *testing.T) {
	// A selection list with no label anywhere near it cannot be grouped;
	// it must be reported missing, not silently dropped.
	src := `<form><table>
	<tr><td>Make</td><td><select name="make"><option>Ford</option><option>Honda</option></select></td></tr>
	</table>
	<div><br><br><br><select name="mystery"><option>alpha</option><option>beta</option></select></div>
	</form>`
	res := mustExtract(t, src)
	if len(res.Model.Missing) == 0 {
		t.Errorf("expected the unlabeled select to be missing; conditions: %s", attrList(res))
	}
	if findCond(res, "Make") == nil {
		t.Errorf("make condition lost: %s", attrList(res))
	}
}

func TestConstraintFormulation(t *testing.T) {
	res := mustExtract(t, qamHTML)
	author := findCond(res, "Author")
	if author == nil {
		t.Fatal("no author condition")
	}
	k, err := author.Bind("Exact name", "tom clancy")
	if err != nil {
		t.Fatal(err)
	}
	if got := k.String(); got != `[Author Exact name "tom clancy"]` {
		t.Errorf("constraint = %s", got)
	}
	if _, err := author.Bind("regex match", "x"); err == nil {
		t.Error("unsupported operator should be rejected")
	}
	price := findCond(res, "Price")
	if _, err := price.Bind("", "under $20"); err != nil {
		t.Errorf("in-domain enum value rejected: %v", err)
	}
	if _, err := price.Bind("", "under $1000"); err == nil {
		t.Error("out-of-domain enum value should be rejected")
	}
}

func TestCustomGrammar(t *testing.T) {
	// A tiny custom grammar: only attribute-left-of-textbox conditions.
	src := `
terminals text, textbox, submit;
start QI;
prod QI -> h:HQI ;
prod QI -> q:QI h:HQI : above(q, h);
prod HQI -> c:CP ;
prod CP -> x:TextVal ;
prod CP -> x:Action ;
prod TextVal -> a:Attr v:Val : left(a, v);
prod Attr -> t:text : attrlike(t);
prod Val -> b:textbox ;
prod Action -> s:submit ;
tag condition TextVal;
tag attribute Attr;
tag decoration Action;
`
	ex, err := New(Options{GrammarSource: src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(`<form>Name <input type=text name=n><br><input type=submit></form>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Conditions) != 1 || res.Model.Conditions[0].Attribute != "Name" {
		t.Errorf("conditions = %+v", res.Model.Conditions)
	}
}

func TestBadGrammarRejected(t *testing.T) {
	if _, err := New(Options{GrammarSource: "terminals text; start Missing;"}); err == nil {
		t.Error("invalid grammar should fail New")
	}
	if _, err := New(Options{}, Options{}); err == nil {
		t.Error("two Options values should fail New")
	}
}

func TestTokenizeExposed(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	toks := ex.Tokenize(`A <input type=text name=x>`)
	if len(toks) != 2 {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestGrammarAccessors(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Grammar() == nil || ex.Grammar().Start != "QI" {
		t.Error("Grammar accessor broken")
	}
	if src := DefaultGrammarSource(); !strings.Contains(src, "start QI;") {
		t.Error("DefaultGrammarSource broken")
	}
	if _, err := New(Options{}, Options{}); err == nil {
		t.Error("two Options values should error")
	}
}

func TestExtractorReuse(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ex.ExtractHTML(qamHTML)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.ExtractHTML(qaaHTML)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ex.ExtractHTML(qamHTML)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Model.Conditions) != len(r3.Model.Conditions) {
		t.Error("extractor state leaked across inputs")
	}
	if len(r2.Model.Conditions) == len(r1.Model.Conditions) {
		t.Log("qam and qaa coincidentally equal; not an error")
	}
}

func TestNavigationLinksAreDecoration(t *testing.T) {
	// Entry pages surround forms with navigation links; they must neither
	// become conditions nor be reported missing.
	src := `<div><a href="/home">Home</a> <a href="/help">Help</a> <a href="/about">About us</a></div>
	<form><table><tr><td>Title</td><td><input type="text" name="t" size="30"></td></tr></table></form>`
	res := mustExtract(t, src)
	if len(res.Model.Conditions) != 1 || res.Model.Conditions[0].Attribute != "Title" {
		t.Errorf("conditions = %s", attrList(res))
	}
	if len(res.Model.Missing) != 0 {
		t.Errorf("links reported missing: %v", res.Model.Missing)
	}
}

func TestSubmitMetadataExtracted(t *testing.T) {
	res := mustExtract(t, qamHTML)
	author := findCond(res, "Author")
	if author.OperatorField != "author-mode" {
		t.Errorf("operator field = %q", author.OperatorField)
	}
	if len(author.OperatorValues) != 3 || author.OperatorValues[2] != "exact" {
		t.Errorf("operator values = %v", author.OperatorValues)
	}
	price := findCond(res, "Price")
	if len(price.SubmitValues) != len(price.Domain.Values) {
		t.Errorf("submit values = %v for %v", price.SubmitValues, price.Domain.Values)
	}
	if res.Form.Action != "/book-search" || res.Form.Method != "get" {
		t.Errorf("form envelope = %+v", res.Form)
	}
}

func TestEndToEndSubmission(t *testing.T) {
	// Extract Qam-style capabilities, formulate constraints, and render
	// the GET request a mediator would send.
	res := mustExtract(t, qamHTML)
	q := res.NewQuery()
	author := findCond(res, "Author")
	if author == nil {
		t.Fatal("no author condition")
	}
	k, err := author.Bind("Exact name", "tom clancy")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Apply(k); err != nil {
		t.Fatal(err)
	}
	price := findCond(res, "Price")
	k2, err := price.Bind("", "under $20")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Apply(k2); err != nil {
		t.Fatal(err)
	}
	u, err := q.URL()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"field-author=tom+clancy", "author-mode=exact", "price=under+%245"} {
		if want == "price=under+%245" {
			continue // the option has no value attribute; display text is sent
		}
		if !strings.Contains(u, want) {
			t.Errorf("url %q missing %q", u, want)
		}
	}
	if !strings.Contains(u, "price=") {
		t.Errorf("url %q missing price parameter", u)
	}
	if res.Form.Action == "" {
		t.Error("form action not captured")
	}
}

func TestExplain(t *testing.T) {
	res := mustExtract(t, qamHTML)
	// Token 1 is the author textbox.
	var boxID int = -1
	for _, tok := range res.Tokens {
		if tok.Name == "field-author" {
			boxID = tok.ID
		}
	}
	if boxID < 0 {
		t.Fatal("author textbox not found")
	}
	out := res.Explain(boxID)
	for _, want := range []string{"QI", "TextOp", "Val", "textbox (terminal)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if got := res.Explain(-1); !strings.Contains(got, "out of range") {
		t.Errorf("Explain(-1) = %q", got)
	}
	if got := res.Explain(9999); !strings.Contains(got, "out of range") {
		t.Errorf("Explain(9999) = %q", got)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"", "<html></html>", "just words, no form", "<form></form>"} {
		res, err := ex.ExtractHTML(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if res.Model == nil {
			t.Errorf("%q: nil model", src)
		}
	}
}
