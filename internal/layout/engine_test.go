package layout

import (
	"strings"
	"testing"
	"testing/quick"

	"formext/internal/geom"
	"formext/internal/htmlparse"
)

var th = geom.DefaultThresholds

func render(src string) *Box {
	return New().Layout(htmlparse.Parse(src))
}

// leafByText finds the first leaf text box whose text contains s.
func leafByText(root *Box, s string) *Box {
	for _, b := range root.Leaves() {
		if b.Kind == TextBox && strings.Contains(b.Text, s) {
			return b
		}
	}
	return nil
}

// leafWidget finds the i-th widget leaf with the given tag.
func leafWidget(root *Box, tag string, i int) *Box {
	for _, b := range root.Leaves() {
		if b.Kind == WidgetBox && b.Node.Tag == tag {
			if i == 0 {
				return b
			}
			i--
		}
	}
	return nil
}

func TestInlineLabelLeftOfTextbox(t *testing.T) {
	root := render(`Author: <input type=text name=a size=30>`)
	label := leafByText(root, "Author:")
	box := leafWidget(root, "input", 0)
	if label == nil || box == nil {
		t.Fatalf("missing leaves: label=%v box=%v", label, box)
	}
	if !th.Left(label.Rect, box.Rect) {
		t.Errorf("label %v should be Left of box %v", label.Rect, box.Rect)
	}
	if !th.SameRow(label.Rect, box.Rect) {
		t.Errorf("label and box should share a row")
	}
}

func TestBrStacksLabelAboveField(t *testing.T) {
	root := render(`Title<br><input type=text name=t size=40>`)
	label := leafByText(root, "Title")
	box := leafWidget(root, "input", 0)
	if label == nil || box == nil {
		t.Fatal("missing leaves")
	}
	if !th.Above(label.Rect, box.Rect) {
		t.Errorf("label %v should be Above box %v", label.Rect, box.Rect)
	}
	if th.SameRow(label.Rect, box.Rect) {
		t.Error("label and box must not share a row")
	}
}

func TestVerticalCenteringInLine(t *testing.T) {
	root := render(`Go <input type=text size=20>`)
	label := leafByText(root, "Go")
	box := leafWidget(root, "input", 0)
	if !th.AlignedMiddle(label.Rect, box.Rect) {
		t.Errorf("label %v and box %v should be middle-aligned", label.Rect, box.Rect)
	}
}

func TestRadioPairing(t *testing.T) {
	root := render(`<input type=radio name=m value=1>Exact name <input type=radio name=m value=2>Start of name`)
	r0 := leafWidget(root, "input", 0)
	t0 := leafByText(root, "Exact name")
	r1 := leafWidget(root, "input", 1)
	t1 := leafByText(root, "Start of name")
	if !th.Left(r0.Rect, t0.Rect) || !th.Left(t0.Rect, r1.Rect) || !th.Left(r1.Rect, t1.Rect) {
		t.Errorf("radio/text chain not left-adjacent: %v %v %v %v", r0.Rect, t0.Rect, r1.Rect, t1.Rect)
	}
}

func TestLineWrapping(t *testing.T) {
	// 60 words of 10 chars each cannot fit 800px; expect multiple text runs
	// on distinct rows.
	words := strings.TrimSpace(strings.Repeat("abcdefghij ", 60))
	root := render("<div>" + words + "</div>")
	var runs []*Box
	for _, b := range root.Leaves() {
		if b.Kind == TextBox {
			runs = append(runs, b)
		}
	}
	if len(runs) < 2 {
		t.Fatalf("expected wrapped runs, got %d", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if !th.SameRow(runs[i-1].Rect, runs[i].Rect) && runs[i].Rect.Y1 <= runs[i-1].Rect.Y1 {
			t.Errorf("wrapped run %d should start on a lower row", i)
		}
		if runs[i].Rect.X2 > viewport {
			t.Errorf("run %d overflows the viewport: %v", i, runs[i].Rect)
		}
	}
}

func TestBlocksStackVertically(t *testing.T) {
	root := render(`<div>first</div><div>second</div><p>third</p>`)
	a := leafByText(root, "first")
	b := leafByText(root, "second")
	c := leafByText(root, "third")
	if !(a.Rect.Y2 <= b.Rect.Y1 && b.Rect.Y2 <= c.Rect.Y1) {
		t.Errorf("blocks should stack: %v %v %v", a.Rect, b.Rect, c.Rect)
	}
}

func TestTableColumnsAlign(t *testing.T) {
	src := `<table>
	<tr><td>Author</td><td><input type=text name=a size=30></td></tr>
	<tr><td>Title</td><td><input type=text name=t size=30></td></tr>
	</table>`
	root := render(src)
	author := leafByText(root, "Author")
	title := leafByText(root, "Title")
	boxA := leafWidget(root, "input", 0)
	boxT := leafWidget(root, "input", 1)
	if !th.AlignedLeft(author.Rect, title.Rect) {
		t.Errorf("labels should be left-aligned: %v %v", author.Rect, title.Rect)
	}
	if !th.AlignedLeft(boxA.Rect, boxT.Rect) {
		t.Errorf("fields should be left-aligned: %v %v", boxA.Rect, boxT.Rect)
	}
	if !th.Left(author.Rect, boxA.Rect) {
		t.Errorf("row 1: label %v should be Left of field %v", author.Rect, boxA.Rect)
	}
	if !th.Left(title.Rect, boxT.Rect) {
		t.Errorf("row 2: label %v should be Left of field %v", title.Rect, boxT.Rect)
	}
	if !th.Above(boxA.Rect, boxT.Rect) {
		t.Errorf("field A %v should be Above field T %v", boxA.Rect, boxT.Rect)
	}
}

func TestTableCellVerticalCentering(t *testing.T) {
	src := `<table><tr><td>Label</td><td><textarea rows=4 cols=30></textarea></td></tr></table>`
	root := render(src)
	label := leafByText(root, "Label")
	ta := leafWidget(root, "textarea", 0)
	if !th.SameRow(label.Rect, ta.Rect) {
		t.Errorf("label %v should share the row with the tall widget %v", label.Rect, ta.Rect)
	}
}

func TestColspan(t *testing.T) {
	src := `<table>
	<tr><td colspan=2>Search our catalog</td></tr>
	<tr><td>Keyword</td><td><input type=text size=40></td></tr>
	</table>`
	root := render(src)
	head := leafByText(root, "Search our catalog")
	kw := leafByText(root, "Keyword")
	field := leafWidget(root, "input", 0)
	if !th.Above(head.Rect, kw.Rect) && head.Rect.Y2 > kw.Rect.Y1 {
		t.Errorf("header should be above row 2")
	}
	if !th.Left(kw.Rect, field.Rect) {
		t.Errorf("keyword label should be left of field")
	}
}

func TestNestedTable(t *testing.T) {
	src := `<table><tr>
	<td><table><tr><td>From</td><td><input type=text name=f size=10></td></tr></table></td>
	<td><table><tr><td>To</td><td><input type=text name=to size=10></td></tr></table></td>
	</tr></table>`
	root := render(src)
	from := leafByText(root, "From")
	to := leafByText(root, "To")
	f0 := leafWidget(root, "input", 0)
	if !th.Left(from.Rect, f0.Rect) {
		t.Errorf("inner table label/field adjacency broken: %v %v", from.Rect, f0.Rect)
	}
	if !th.SameRow(from.Rect, to.Rect) {
		t.Errorf("side-by-side nested tables should share a row: %v %v", from.Rect, to.Rect)
	}
	if from.Rect.X2 > to.Rect.X1 {
		t.Errorf("From cell should be left of To cell")
	}
}

func TestHiddenInputNotRendered(t *testing.T) {
	root := render(`<input type=hidden name=sid value=42><input type=text name=q>`)
	count := 0
	for _, b := range root.Leaves() {
		if b.Kind == WidgetBox {
			count++
		}
	}
	if count != 1 {
		t.Errorf("got %d widgets, want 1 (hidden input must not render)", count)
	}
}

func TestSelectSizing(t *testing.T) {
	root := render(`<select name=s><option>NY</option><option>San Francisco Bay Area</option></select>`)
	sel := leafWidget(root, "select", 0)
	m := DefaultMetrics
	wantMin := m.TextWidth("San Francisco Bay Area")
	if sel.Rect.Width() < wantMin {
		t.Errorf("select width %g should cover its longest option (%g)", sel.Rect.Width(), wantMin)
	}
}

func TestWidgetMetrics(t *testing.T) {
	m := DefaultMetrics
	n := htmlparse.Parse(`<input type=text size=40>`).FindTag("input")
	w, h, ok := m.WidgetSize(n)
	if !ok || w != 40*m.CharW+10 || h != 22 {
		t.Errorf("text input size = (%g,%g,%v)", w, h, ok)
	}
	n = htmlparse.Parse(`<input type=checkbox>`).FindTag("input")
	w, h, _ = m.WidgetSize(n)
	if w != 13 || h != 13 {
		t.Errorf("checkbox size = (%g,%g)", w, h)
	}
	n = htmlparse.Parse(`<input type=submit value=Go>`).FindTag("input")
	w, _, _ = m.WidgetSize(n)
	if w != m.TextWidth("Go")+16 {
		t.Errorf("submit width = %g", w)
	}
	n = htmlparse.Parse(`<textarea rows=3 cols=10></textarea>`).FindTag("textarea")
	_, h, _ = m.WidgetSize(n)
	if h != 3*m.LineH+6 {
		t.Errorf("textarea height = %g", h)
	}
}

func TestAttrIntTolerance(t *testing.T) {
	n := htmlparse.Parse(`<input size="40px">`).FindTag("input")
	if got := attrInt(n, "size", 20); got != 40 {
		t.Errorf("attrInt(40px) = %d", got)
	}
	n = htmlparse.Parse(`<input size="junk">`).FindTag("input")
	if got := attrInt(n, "size", 20); got != 20 {
		t.Errorf("attrInt(junk) = %d", got)
	}
	n = htmlparse.Parse(`<input size="0">`).FindTag("input")
	if got := attrInt(n, "size", 20); got != 20 {
		t.Errorf("attrInt(0) = %d", got)
	}
}

func TestHrRule(t *testing.T) {
	root := render(`above<hr>below`)
	var rule *Box
	for _, b := range root.Leaves() {
		if b.Kind == RuleBox {
			rule = b
		}
	}
	if rule == nil {
		t.Fatal("no rule box")
	}
	a := leafByText(root, "above")
	bl := leafByText(root, "below")
	if !(a.Rect.Y2 <= rule.Rect.Y1 && rule.Rect.Y2 <= bl.Rect.Y1) {
		t.Errorf("rule not between text rows: %v %v %v", a.Rect, rule.Rect, bl.Rect)
	}
}

func TestCenterTag(t *testing.T) {
	root := render(`<center>short</center><div>short</div>`)
	centered := leafByText(root, "short")
	plain := root.Leaves()[1]
	if centered.Rect.X1 <= plain.Rect.X1 {
		t.Errorf("centered text at %v should sit right of left-flushed %v", centered.Rect, plain.Rect)
	}
	mid := viewport / 2.0
	if centered.Rect.CenterX() < mid-60 || centered.Rect.CenterX() > mid+60 {
		t.Errorf("centered text center %g not near page middle %g", centered.Rect.CenterX(), mid)
	}
}

func TestAlignAttribute(t *testing.T) {
	root := render(`<div align="right">flush</div>`)
	leaf := leafByText(root, "flush")
	edge := float64(viewport - bodyMargin)
	if leaf.Rect.X2 < edge-16 {
		t.Errorf("right-aligned text ends at %g, page edge %g", leaf.Rect.X2, edge)
	}
	// Centered table cell: the submit button of a typical form.
	root = render(`<table><tr><td width="400" align="center"><input type="submit" value="Go"></td></tr></table>`)
	btn := leafWidget(root, "input", 0)
	if btn.Rect.CenterX() < 120 {
		t.Errorf("centered cell content at %v", btn.Rect)
	}
}

func TestCellWidthAttribute(t *testing.T) {
	src := `<table><tr><td width="300">a</td><td>b</td></tr></table>`
	root := render(src)
	a := leafByText(root, "a")
	b := leafByText(root, "b")
	if b.Rect.X1-a.Rect.X1 < 290 {
		t.Errorf("width attribute ignored: a at %v, b at %v", a.Rect, b.Rect)
	}
}

// Property: every child box lies within (or on the boundary of) the page
// and parent links produce consistent unions; no box has negative extent.
func TestLayoutPropertyBoxesWellFormed(t *testing.T) {
	f := func(labels []string, sizes []uint8) bool {
		var sb strings.Builder
		sb.WriteString("<table>")
		for i, l := range labels {
			l = strings.Map(func(r rune) rune {
				if r == '<' || r == '>' || r == '&' {
					return 'x'
				}
				return r
			}, l)
			size := 10
			if i < len(sizes) {
				size = int(sizes[i]%40) + 1
			}
			sb.WriteString("<tr><td>")
			sb.WriteString(l)
			sb.WriteString("</td><td><input type=text size=")
			sb.WriteString(strings.Repeat("1", 1))
			_ = size
			sb.WriteString("></td></tr>")
		}
		sb.WriteString("</table>")
		root := render(sb.String())
		ok := true
		root.Walk(func(b *Box) bool {
			if !b.Rect.Valid() {
				ok = false
			}
			for _, c := range b.Children {
				if !c.Rect.Valid() {
					ok = false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: leaves never overlap each other (the layout engine never places
// two pieces of content on top of one another).
func TestLayoutPropertyNoLeafOverlap(t *testing.T) {
	srcs := []string{
		`a b c <input type=text> d <select><option>x</option></select>`,
		`<table><tr><td>a</td><td>b</td></tr><tr><td colspan=2><input type=text size=50></td></tr></table>`,
		`<div>x<br>y<br><input type=radio>z</div>`,
		`<ul><li>one<li>two<li><input type=checkbox>three</ul>`,
	}
	for _, src := range srcs {
		root := render(src)
		leaves := root.Leaves()
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				if leaves[i].Rect.Intersects(leaves[j].Rect) {
					t.Errorf("src %q: leaves %d and %d overlap: %v %v", src, i, j, leaves[i].Rect, leaves[j].Rect)
				}
			}
		}
	}
}
