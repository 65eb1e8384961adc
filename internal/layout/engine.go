package layout

import (
	"context"
	"strings"
	"unicode"
	"unicode/utf8"

	"formext/internal/geom"
	"formext/internal/htmlparse"
)

// Engine lays out a parsed HTML document into a render tree with absolute
// bounding boxes.
type Engine struct {
	// M is the font/widget sizing model.
	M Metrics
}

// New returns an engine with the default metrics.
func New() *Engine { return &Engine{M: DefaultMetrics} }

// viewport is the page width in pixels; the body margin is taken from it
// on both sides.
const (
	viewport   = 800
	bodyMargin = 8
)

// checkEvery is how many DOM nodes a layout run processes between context
// checkpoints.
const checkEvery = 4096

// Layout renders the document and returns the root box. The root's
// children are the top-level block and inline boxes in render order.
func (e *Engine) Layout(doc *htmlparse.Node) *Box {
	b, _ := e.LayoutContext(context.Background(), doc)
	return b
}

// LayoutContext is Layout under cancellation: ctx is checked every few
// thousand DOM nodes, and when it ends the engine stops descending and
// returns the boxes laid out so far (a valid, partial render tree) along
// with the context's error. A nil error means the document was laid out
// in full.
func (e *Engine) LayoutContext(ctx context.Context, doc *htmlparse.Node) (*Box, error) {
	return e.LayoutArena(ctx, doc, nil)
}

// LayoutArena is LayoutContext with every allocation drawn from the arena
// (nil runs without one). The returned render tree retains arena memory:
// release the arena after the tree's owner takes it over, and do not reuse
// the arena while the tree is alive.
func (e *Engine) LayoutArena(ctx context.Context, doc *htmlparse.Node, a *Arena) (*Box, error) {
	root := doc
	if body := doc.FindTag("body"); body != nil {
		root = body
	}
	r := &run{ctx: ctx, countdown: checkEvery, a: a}
	if a != nil {
		if a.measure == nil {
			a.measure = make(map[*htmlparse.Node]float64)
		}
		r.measure = a.measure
	}
	f := a.newFlow()
	f.e, f.r, f.x0, f.width, f.y = e, r, bodyMargin, viewport-2*bodyMargin, bodyMargin
	for _, c := range root.Children {
		f.node(c)
	}
	f.flushLine()
	b := a.newBox()
	b.Kind, b.Node, b.Children = BlockBox, doc, f.out
	b.Rect = unionRects(f.out)
	if b.Rect == (geom.Rect{}) {
		b.Rect = geom.R(0, viewport, 0, 0)
	}
	if r.aborted {
		return b, ctx.Err()
	}
	return b, nil
}

// run is the per-layout cancellation state shared by every flow of one
// LayoutContext call (nested blocks and table cells all lay out through
// sub-flows; aborting must stop them all).
type run struct {
	ctx       context.Context
	countdown int
	aborted   bool
	// a backs every allocation of the run; nil falls back to the heap.
	a *Arena
	// measure memoizes unconstrained cell content widths (table sizing's
	// first pass). Without it, nested tables re-measure their entire
	// subtree once per enclosing measurement — exponential in nesting
	// depth, which adversarial pages exploit. The measurement depends only
	// on the node and the engine's metrics, so one entry per node is exact.
	measure map[*htmlparse.Node]float64
}

// arena returns the run's arena; flows built directly by tests have no run.
func (f *flow) arena() *Arena {
	if f.r == nil {
		return nil
	}
	return f.r.a
}

// step counts one processed node and reports whether the run is aborted.
// The context is consulted only at checkpoint intervals.
func (r *run) step() bool {
	if r == nil {
		return false
	}
	if r.aborted {
		return true
	}
	r.countdown--
	if r.countdown <= 0 {
		r.countdown = checkEvery
		if r.ctx.Err() != nil {
			r.aborted = true
		}
	}
	return r.aborted
}

// flow is one block-formatting context: a vertical cursor plus an open line
// box of inline-level boxes.
type flow struct {
	e       *Engine
	r       *run    // shared cancellation state (nil in tests that build flows directly)
	x0      float64 // content left edge
	width   float64 // content width
	y       float64 // vertical cursor (top of the open line)
	line    []*Box  // inline boxes on the open line
	lineAdv float64 // horizontal advance on the open line
	align   string  // "", "center" or "right": horizontal line alignment
	out     []*Box  // finished boxes of this context
}

func (f *flow) node(n *htmlparse.Node) {
	if f.r.step() {
		return
	}
	switch n.Type {
	case htmlparse.TextNode:
		f.text(n)
	case htmlparse.ElementNode:
		f.element(n)
	}
}

// element lays out one element according to its tag's class, resolved by
// a single switch: skipped, line break, rule, widget, table, block, or
// inline container.
func (f *flow) element(n *htmlparse.Node) {
	switch n.Tag {
	case "head", "script", "style", "title", "meta", "link", "base", "noscript",
		"map", "iframe", "object", "applet":
		// Contributes nothing to visual layout.
	case "br":
		f.lineBreak()
	case "hr":
		f.rule(n)
	case "input", "select", "textarea", "button", "img":
		// Leaf with an intrinsic size.
		w, h, ok := f.e.M.WidgetSize(n)
		if ok {
			b := f.arena().newBox()
			b.Kind, b.Node = WidgetBox, n
			f.placeInline(b, w, h)
		}
	case "table":
		f.flushLine()
		f.table(n)
	case "div", "p", "form", "center", "fieldset", "legend",
		"h1", "h2", "h3", "h4", "h5", "h6", "ul", "ol", "li", "dl", "dt", "dd",
		"blockquote", "pre", "address", "caption",
		"tr", "td", "th", "thead", "tbody", "tfoot":
		// Block-level container, laid out by vertical stacking.
		f.flushLine()
		f.block(n)
	default:
		// Inline container (span, b, i, a, font, label, ...): its children
		// flow into the current line boxes directly.
		for _, c := range n.Children {
			f.node(c)
		}
	}
}

// wordSpan is one whitespace-delimited word as a byte range of the source
// text.
type wordSpan struct{ s, e int }

// nextWord finds the next strings.Fields word of s at or after p. It uses
// the same whitespace definition (ASCII space set, unicode.IsSpace beyond).
func nextWord(s string, p int) (start, end int, ok bool) {
	for p < len(s) {
		c := s[p]
		if c < utf8.RuneSelf {
			if asciiSpace(c) {
				p++
				continue
			}
			break
		}
		r, size := utf8.DecodeRuneInString(s[p:])
		if unicode.IsSpace(r) {
			p += size
			continue
		}
		break
	}
	if p >= len(s) {
		return 0, 0, false
	}
	start = p
	for p < len(s) {
		c := s[p]
		if c < utf8.RuneSelf {
			if asciiSpace(c) {
				break
			}
			p++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[p:])
		if unicode.IsSpace(r) {
			break
		}
		p += size
	}
	return start, p, true
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// text flows a text node's words into line boxes, wrapping at the content
// width. Each maximal on-one-line run becomes a TextBox. Widths are
// computed arithmetically (TextWidth is rune count × CharW, and joining
// adds one space per word), so no candidate strings are built; the final
// run text aliases the source when the words are already single-space
// separated and is otherwise joined once into the arena.
func (f *flow) text(n *htmlparse.Node) {
	data := n.Data
	m := f.e.M
	a := f.arena()
	var spans []wordSpan
	if a != nil {
		spans = a.spans[:0]
		defer func() { a.spans = spans[:0] }()
	}
	start, end, ok := nextWord(data, 0)
	for ok {
		spans = append(spans[:0], wordSpan{start, end})
		runes := utf8.RuneCountInString(data[start:end])
		for {
			start, end, ok = nextWord(data, end)
			if !ok {
				break
			}
			next := runes + 1 + utf8.RuneCountInString(data[start:end])
			if f.lineAdv+float64(next)*m.CharW > f.width {
				break
			}
			runes = next
			spans = append(spans, wordSpan{start, end})
		}
		b := a.newBox()
		b.Kind, b.Node, b.Text = TextBox, n, joinSpans(data, spans, a)
		f.placeInline(b, float64(runes)*m.CharW, m.TextH)
	}
}

// joinSpans materializes a text run: a zero-copy slice of the source when
// the words are contiguous with single spaces, otherwise a single arena
// build.
func joinSpans(data string, spans []wordSpan, a *Arena) string {
	first, last := spans[0], spans[len(spans)-1]
	if last.e-first.s == spanJoinedLen(spans) {
		// The in-source separators are all exactly one byte; they must also
		// all be plain spaces for the alias to equal the joined text (words
		// contain no whitespace, so scanning the whole range checks the gaps).
		if !strings.ContainsAny(data[first.s:last.e], "\t\n\v\f\r") {
			return data[first.s:last.e]
		}
	}
	if a == nil {
		var sb strings.Builder
		sb.Grow(spanJoinedLen(spans))
		for i, sp := range spans {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(data[sp.s:sp.e])
		}
		return sb.String()
	}
	a.text.BeginRun()
	for i, sp := range spans {
		if i > 0 {
			a.text.AppendByte(' ')
		}
		a.text.AppendString(data[sp.s:sp.e])
	}
	return a.text.EndRun()
}

// spanJoinedLen is the byte length of the spans joined with single spaces.
func spanJoinedLen(spans []wordSpan) int {
	n := len(spans) - 1
	for _, sp := range spans {
		n += sp.e - sp.s
	}
	return n
}

// placeInline appends an inline-level box of the given size to the open
// line, wrapping first if it does not fit.
func (f *flow) placeInline(b *Box, w, h float64) {
	if f.lineAdv > 0 && f.lineAdv+w > f.width {
		f.flushLine()
	}
	x := f.x0 + f.lineAdv
	b.Rect = geom.R(x, x+w, f.y, f.y+h)
	f.line = f.arena().appendBox(f.line, b)
	f.lineAdv += w + f.e.M.SpaceW
}

// flushLine closes the open line box: inline boxes are vertically centered
// against the tallest box, horizontally aligned per the context's align
// mode, and emitted; the cursor moves below the line.
func (f *flow) flushLine() {
	if len(f.line) == 0 {
		return
	}
	lineH := f.e.M.LineH
	for _, b := range f.line {
		if h := b.Rect.Height(); h > lineH {
			lineH = h
		}
	}
	// Horizontal alignment: shift the whole line within the content width.
	lineW := f.lineAdv - f.e.M.SpaceW
	var dx float64
	switch f.align {
	case "center":
		dx = (f.width - lineW) / 2
	case "right":
		dx = f.width - lineW
	}
	if dx < 0 {
		dx = 0
	}
	a := f.arena()
	for _, b := range f.line {
		dy := (lineH - b.Rect.Height()) / 2
		if dy > 0 || dx > 0 {
			b.Translate(dx, dy)
		}
		f.out = a.appendBox(f.out, b)
	}
	f.line = f.line[:0]
	f.lineAdv = 0
	f.y += lineH + f.e.M.LineGap
}

// lineBreak handles <br>: it ends the open line, or advances one blank line
// when the line is empty.
func (f *flow) lineBreak() {
	if len(f.line) > 0 {
		f.flushLine()
		return
	}
	f.y += f.e.M.LineH + f.e.M.LineGap
}

// rule handles <hr>: a full-width 2px box with vertical margins.
func (f *flow) rule(n *htmlparse.Node) {
	f.flushLine()
	f.y += f.e.M.BlockGap / 2
	b := f.arena().newBox()
	b.Kind, b.Node = RuleBox, n
	b.Rect = geom.R(f.x0, f.x0+f.width, f.y, f.y+2)
	f.out = f.arena().appendBox(f.out, b)
	f.y += 2 + f.e.M.BlockGap/2
}

// blockGapFor returns the vertical margin applied above and below a block.
func (f *flow) blockGapFor(tag string) float64 {
	switch tag {
	case "p", "h1", "h2", "h3", "h4", "h5", "h6", "ul", "ol", "blockquote", "fieldset":
		return f.e.M.BlockGap
	default:
		return 0
	}
}

// blockIndent returns the extra left indentation of a block's content.
func blockIndent(tag string) float64 {
	switch tag {
	case "li":
		return 20
	case "blockquote", "dd":
		return 30
	case "fieldset":
		return 8
	default:
		return 0
	}
}

// block lays out a block-level element in its own flow and emits it as a
// BlockBox.
func (f *flow) block(n *htmlparse.Node) {
	gap := f.blockGapFor(n.Tag)
	indent := blockIndent(n.Tag)
	f.y += gap
	a := f.arena()
	sub := a.newFlow()
	sub.e, sub.r = f.e, f.r
	sub.x0, sub.width, sub.y, sub.align = f.x0+indent, f.width-indent, f.y, alignOf(n, f.align)
	if sub.width < 40 {
		sub.width = 40
	}
	for _, c := range n.Children {
		sub.node(c)
	}
	sub.flushLine()
	b := a.newBox()
	b.Kind, b.Node, b.Children = BlockBox, n, sub.out
	b.Rect = unionRects(sub.out)
	if b.Rect == (geom.Rect{}) {
		b.Rect = geom.R(f.x0, f.x0+f.width, f.y, f.y)
	}
	f.out = a.appendBox(f.out, b)
	f.y = sub.y + gap
}

// alignOf resolves an element's horizontal alignment: the <center> tag,
// an align attribute, or the inherited context alignment.
func alignOf(n *htmlparse.Node, inherited string) string {
	if n.Tag == "center" {
		return "center"
	}
	if len(n.Attrs) == 0 {
		return inherited
	}
	switch strings.ToLower(n.AttrOr("align", "")) {
	case "center", "middle":
		return "center"
	case "right":
		return "right"
	case "left":
		return ""
	}
	return inherited
}

// unionRects returns the bounding box of a slice of boxes.
func unionRects(bs []*Box) geom.Rect {
	var u geom.Rect
	for _, b := range bs {
		u = u.Union(b.Rect)
	}
	return u
}
