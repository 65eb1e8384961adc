package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// outline renders the element tree structure as a compact string for
// assertions: tag(child child ...), text as #.
func outline(n *Node) string {
	switch n.Type {
	case TextNode:
		if strings.TrimSpace(n.Data) == "" {
			return ""
		}
		return "#"
	case CommentNode:
		return ""
	}
	var parts []string
	for _, c := range n.Children {
		if s := outline(c); s != "" {
			parts = append(parts, s)
		}
	}
	inner := strings.Join(parts, " ")
	if n.Type == DocumentNode {
		return inner
	}
	if inner == "" {
		return n.Tag
	}
	return n.Tag + "(" + inner + ")"
}

func TestParseNesting(t *testing.T) {
	doc := Parse(`<form><table><tr><td>Author</td><td><input type=text></td></tr></table></form>`)
	want := "form(table(tr(td(#) td(input))))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseImpliedEndTags(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	want := "table(tr(td(#) td(#)) tr(td(#)))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseImpliedOptions(t *testing.T) {
	doc := Parse(`<select><option>1<option>2<option selected>3</select>`)
	want := "select(option(#) option(#) option(#))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
	sel := doc.FindTag("select")
	opts := sel.FindAllTags("option")
	if len(opts) != 3 {
		t.Fatalf("got %d options", len(opts))
	}
	if !opts[2].HasAttr("selected") {
		t.Error("third option should be selected")
	}
}

func TestParseImpliedParagraphAndList(t *testing.T) {
	doc := Parse(`<p>one<p>two<ul><li>a<li>b</ul>`)
	want := "p(#) p(#) ul(li(#) li(#))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<div>a<br>b<hr>c<img src=x><input></div>`)
	want := "div(# br # hr # img input)"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseMismatchedEndTags(t *testing.T) {
	// Unmatched </b> and </table> are ignored; <i> is auto-closed at </div>.
	doc := Parse(`<div></b><i>x</div>`)
	want := "div(i(#))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseNestedTables(t *testing.T) {
	doc := Parse(`<table><tr><td><table><tr><td>inner</td></tr></table></td><td>outer</td></tr></table>`)
	want := "table(tr(td(table(tr(td(#)))) td(#)))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseTableScopedEndTag(t *testing.T) {
	// A stray </tr> inside a nested table must not close the outer row.
	doc := Parse(`<table><tr><td><table></tr><tr><td>x</table></td><td>y</td></table>`)
	outer := doc.FindTag("table")
	rows := 0
	for _, c := range outer.Children {
		if c.IsElement("tr") {
			rows++
		}
	}
	if rows != 1 {
		t.Errorf("outer table has %d direct rows, want 1; outline %q", rows, outline(doc))
	}
}

func TestParseTbody(t *testing.T) {
	doc := Parse(`<table><thead><tr><td>h</thead><tbody><tr><td>b</tbody></table>`)
	want := "table(thead(tr(td(#))) tbody(tr(td(#))))"
	if got := outline(doc); got != want {
		t.Errorf("outline = %q, want %q", got, want)
	}
}

func TestParseFormControls(t *testing.T) {
	src := `<form action="/search" method=get>
		Author: <input type="text" name="author" size="40">
		<input type=radio name=mode value=exact checked>Exact name
		<select name=fmt><option value=h>Hardcover<option value=p>Paper</select>
		<textarea name=notes rows=2>hi</textarea>
		<input type=submit value=Search>
	</form>`
	doc := Parse(src)
	form := doc.FindTag("form")
	if form == nil {
		t.Fatal("no form found")
	}
	if got := form.AttrOr("method", ""); got != "get" {
		t.Errorf("method = %q", got)
	}
	inputs := form.FindAllTags("input")
	if len(inputs) != 3 {
		t.Fatalf("got %d inputs, want 3", len(inputs))
	}
	if !inputs[1].HasAttr("checked") {
		t.Error("radio should be checked")
	}
	ta := form.FindTag("textarea")
	if ta == nil || ta.InnerText() != "hi" {
		t.Errorf("textarea = %+v", ta)
	}
}

func TestInnerTextCollapsesWhitespace(t *testing.T) {
	doc := Parse("<div>  Publication \n\t Date   <b>(range)</b> </div>")
	if got := doc.FindTag("div").InnerText(); got != "Publication Date (range)" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestFindHelpers(t *testing.T) {
	doc := Parse(`<div><span id=a>x</span><span id=b>y</span></div>`)
	all := doc.FindAllTags("span")
	if len(all) != 2 {
		t.Fatalf("FindAllTags = %d, want 2", len(all))
	}
	first := doc.Find(func(n *Node) bool { return n.Type == ElementNode && n.AttrOr("id", "") == "b" })
	if first == nil || first.InnerText() != "y" {
		t.Errorf("Find by id failed: %+v", first)
	}
	if doc.FindTag("table") != nil {
		t.Error("FindTag for absent tag should be nil")
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse(`<div><p>skip me</p></div><span>keep</span>`)
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Tag)
			return n.Tag != "div" // prune inside div
		}
		return true
	})
	if strings.Join(visited, " ") != "div span" {
		t.Errorf("visited = %v", visited)
	}
}

func TestParentLinks(t *testing.T) {
	doc := Parse(`<table><tr><td><input></td></tr></table>`)
	input := doc.FindTag("input")
	chain := []string{}
	for n := input; n != nil && n.Type == ElementNode; n = n.Parent {
		chain = append(chain, n.Tag)
	}
	if strings.Join(chain, "<") != "input<td<tr<table" {
		t.Errorf("parent chain = %v", chain)
	}
}

// Property: Parse never panics and always yields a tree whose parent links
// are consistent, no matter how mangled the input.
func TestParsePropertyRobust(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		ok := true
		doc.Walk(func(n *Node) bool {
			for _, c := range n.Children {
				if c.Parent != n {
					ok = false
				}
			}
			return true
		})
		return ok && doc.Type == DocumentNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: parsing is idempotent over serialize-free content — all text in
// the input (outside tags) appears in the tree.
func TestParsePlainTextPreserved(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r == '<' || r == '>' || r == '&' {
					return -1
				}
				return r
			}, w)
			if strings.TrimSpace(w) != "" {
				clean = append(clean, strings.Join(strings.Fields(w), " "))
			}
		}
		src := "<div>" + strings.Join(clean, " ") + "</div>"
		doc := Parse(src)
		return doc.InnerText() == strings.Join(strings.Fields(strings.Join(clean, " ")), " ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAttrCaseInsensitive pins the lookup contract behind Attr's
// lower-case fast path: mixed- and upper-case names still find the
// lexer's lower-cased attributes, lower-case names take the fast path, and
// a non-ASCII name is still lowered.
func TestAttrCaseInsensitive(t *testing.T) {
	doc := Parse(`<td NAME="q" Align=CENTER data-İd="x">`)
	td := doc.FindTag("td")
	if td == nil {
		t.Fatal("no td parsed")
	}
	if v, ok := td.Attr("NAME"); !ok || v != "q" {
		t.Errorf(`Attr("NAME") = %q, %v; want "q", true`, v, ok)
	}
	if v, ok := td.Attr("name"); !ok || v != "q" {
		t.Errorf(`Attr("name") = %q, %v; want "q", true`, v, ok)
	}
	if v := td.AttrOr("Align", "left"); v != "CENTER" {
		t.Errorf(`AttrOr("Align", "left") = %q, want "CENTER"`, v)
	}
	if v := td.AttrOr("valign", "top"); v != "top" {
		t.Errorf(`AttrOr("valign", "top") = %q, want the default`, v)
	}
	if !td.HasAttr("DATA-İD") {
		t.Errorf(`HasAttr("DATA-İD") = false; the non-ASCII name must still be lowered`)
	}
}
