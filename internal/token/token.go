// Package token converts a rendered query form into the token set the
// best-effort parser consumes. Tokens are instances of the 2P grammar's
// terminals (Definition 1 of the paper): each has a terminal type, a
// bounding box (the universal pos attribute), and type-specific attributes
// such as the string value of a text token or the option list of a
// selection list (Figure 5).
package token

import (
	"fmt"
	"strings"

	"formext/internal/geom"
	"formext/internal/htmlparse"
	"formext/internal/layout"
)

// Type is a terminal type name as referenced by the grammar.
type Type string

// The terminal vocabulary. The derived grammar's terminal set Σ is drawn
// from these.
const (
	Text        Type = "text"
	Textbox     Type = "textbox"
	Password    Type = "password"
	Textarea    Type = "textarea"
	SelectList  Type = "selectlist"
	RadioButton Type = "radiobutton"
	Checkbox    Type = "checkbox"
	Submit      Type = "submit"
	Reset       Type = "reset"
	Button      Type = "button"
	Image       Type = "image"
	FileBox     Type = "filebox"
	Rule        Type = "rule"
	// Link is anchor text: hyperlinks are the vocabulary of the paper's
	// proposed follow-on application, extracting navigational menus and
	// services from entry pages (Section 7).
	Link Type = "link"
)

// AllTypes lists every terminal type the tokenizer can emit.
var AllTypes = []Type{
	Text, Textbox, Password, Textarea, SelectList, RadioButton,
	Checkbox, Submit, Reset, Button, Image, FileBox, Rule, Link,
}

// Token is one atomic visual element of the form.
type Token struct {
	// ID is the token's index in the token set; covers and conflicts are
	// expressed as bit sets over these indices.
	ID int
	// Type is the terminal type.
	Type Type
	// SVal is the string value: the text of a text token, the label of a
	// button, empty otherwise.
	SVal string
	// Pos is the bounding box assigned by the layout engine.
	Pos geom.Rect
	// Name is the form-control name attribute, when the token is a widget.
	Name string
	// Value is the control's value attribute (radio/checkbox/submit).
	Value string
	// Options holds the display texts of a selection list's options.
	Options []string
	// OptionValues holds the submit values of a selection list's options.
	OptionValues []string
	// Checked reports whether a radio button or checkbox is pre-checked.
	Checked bool
	// Multiple reports whether a selection list allows multiple choices.
	Multiple bool
	// ForID carries the explicit HTML association of a text token wrapped
	// in <label for="...">; ElemID is a widget's id attribute. When both
	// sides are present the page author has declared the label-widget
	// pairing outright, and the grammar's labelfor builtin can use it
	// regardless of geometry.
	ForID  string
	ElemID string
}

// IsWidget reports whether the token is a form-input widget (as opposed to
// text, links and rules).
func (t *Token) IsWidget() bool {
	switch t.Type {
	case Text, Rule, Link:
		return false
	}
	return true
}

func (t *Token) String() string {
	if t.Type == Text {
		return fmt.Sprintf("t%d:%s(%q)@%v", t.ID, t.Type, t.SVal, t.Pos)
	}
	return fmt.Sprintf("t%d:%s(name=%s)@%v", t.ID, t.Type, t.Name, t.Pos)
}

// Tokenizer converts render trees into token sets.
type Tokenizer struct {
	// MergeGap is the maximum horizontal gap, in pixels, between two text
	// runs on one line that are merged into a single text token. Inline
	// markup (<b>, <font>, ...) splits what is visually one label into
	// several runs; merging restores the visual unit.
	MergeGap float64
}

// NewTokenizer returns a tokenizer with the default merge gap.
func NewTokenizer() *Tokenizer { return &Tokenizer{MergeGap: 12} }

// Tokenize flattens the render tree into the token set, in render order.
func (tz *Tokenizer) Tokenize(root *layout.Box) []*Token {
	return tz.TokenizeArena(root, nil)
}

// TokenizeArena is TokenizeCapped without a cap.
func (tz *Tokenizer) TokenizeArena(root *layout.Box, a *Arena) []*Token {
	toks, _ := tz.TokenizeCapped(root, a, 0)
	return toks
}

// TokenizeCapped is Tokenize with every allocation of the walk drawn from
// the arena (nil runs without one), keeping at most limit tokens (limit <= 0
// keeps all): the render-order prefix, which stays ID-dense, so the parser
// sees a well-formed smaller sentence. capped reports whether the page had
// more. The render tree is traversed directly with the arena's scratch
// stack — the leaf visit is fused into the walk instead of materializing a
// Leaves slice — and the walk stops at the first token past the cap. Every
// string a token stores is copied, so the returned tokens reference
// neither the DOM, the render tree nor the page bytes: those may be
// recycled as soon as this returns. With an arena, the kept tokens are
// then handed over into exact-size storage the arena does not own, so
// they stay valid through any later use of the arena.
func (tz *Tokenizer) TokenizeCapped(root *layout.Box, a *Arena, limit int) (toks []*Token, capped bool) {
	// prevBlock is the containing block of the last text or link token,
	// the merge test's stand-in for the DOM node tokens no longer keep.
	var prevBlock *htmlparse.Node
	var stack []*layout.Box
	if a != nil {
		stack = append(a.stack[:0], root)
	} else {
		stack = []*layout.Box{root}
	}
	defer func() {
		if a != nil {
			a.stack = stack[:0]
		}
	}()
	for len(stack) > 0 {
		leaf := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(leaf.Children) > 0 {
			for i := len(leaf.Children) - 1; i >= 0; i-- {
				stack = append(stack, leaf.Children[i])
			}
			continue
		}
		switch leaf.Kind {
		case layout.TextBox:
			toks, prevBlock = tz.addText(toks, leaf, prevBlock, a)
		case layout.WidgetBox:
			if t := widgetToken(leaf, a); t != nil {
				toks = a.appendToken(toks, t)
			}
		case layout.RuleBox:
			t := a.newToken()
			t.Type, t.Pos = Rule, leaf.Rect
			toks = a.appendToken(toks, t)
		}
		// A text run only ever merges into the last token, so once a token
		// past the cap exists the first limit are final. Its slot is
		// cleared so no backing array keeps it alive.
		if limit > 0 && len(toks) > limit {
			toks[limit] = nil
			toks, capped = toks[:limit], true
			break
		}
	}
	for i, t := range toks {
		t.ID = i
	}
	if a != nil {
		toks = a.handOver(toks)
	}
	return toks, capped
}

// addText appends a text run, merging it into the previous token when the
// two form one visual label: same line, small gap, no widget between them
// in render order (guaranteed because merging only considers the
// immediately preceding token), and the same containing block — text in
// adjacent table cells is two labels even when the cells nearly touch.
// prevBlock is the containing block of the previous text token; the block
// of the run just handled is returned for the next call.
func (tz *Tokenizer) addText(toks []*Token, leaf *layout.Box, prevBlock *htmlparse.Node, a *Arena) ([]*Token, *htmlparse.Node) {
	s := strings.TrimSpace(leaf.Text)
	if s == "" {
		return toks, prevBlock
	}
	anchor := enclosingAnchor(leaf.Node)
	typ := Text
	href := ""
	if anchor != nil {
		typ = Link
		href = anchor.AttrOr("href", "")
	}
	forID := enclosingLabelFor(leaf.Node)
	block := containingBlock(leaf.Node)
	if n := len(toks); n > 0 {
		prev := toks[n-1]
		if prev.Type == typ && sameLine(prev.Pos, leaf.Rect) &&
			leaf.Rect.X1-prev.Pos.X2 <= tz.MergeGap && leaf.Rect.X1 >= prev.Pos.X1 &&
			prevBlock == block &&
			(typ != Link || prev.Name == href) && prev.ForID == forID {
			prev.SVal = a.joinLabel(prev.SVal, s)
			prev.Pos = prev.Pos.Union(leaf.Rect)
			return toks, block
		}
	}
	t := a.newToken()
	t.Type, t.SVal, t.Name, t.ForID, t.Pos = typ, a.keep(s), a.keep(href), a.keep(forID), leaf.Rect
	return a.appendToken(toks, t), block
}

// enclosingLabelFor returns the for attribute of the nearest enclosing
// <label for="...">, or "".
func enclosingLabelFor(n *htmlparse.Node) string {
	for p := n; p != nil; p = p.Parent {
		if p.Type == htmlparse.ElementNode && p.Tag == "label" {
			return p.AttrOr("for", "")
		}
	}
	return ""
}

// enclosingAnchor finds the nearest <a href> ancestor of a text node.
func enclosingAnchor(n *htmlparse.Node) *htmlparse.Node {
	for p := n; p != nil; p = p.Parent {
		if p.Type == htmlparse.ElementNode && p.Tag == "a" && p.HasAttr("href") {
			return p
		}
	}
	return nil
}

// containingBlock returns the nearest block-level ancestor of a text node:
// the elements that delimit a text label, so two runs in different cells
// or blocks never merge.
func containingBlock(n *htmlparse.Node) *htmlparse.Node {
	for p := n; p != nil; p = p.Parent {
		if p.Type != htmlparse.ElementNode {
			continue
		}
		switch p.Tag {
		case "td", "th", "tr", "table", "div", "p", "li", "form", "body", "fieldset",
			"h1", "h2", "h3", "h4", "h5", "h6":
			return p
		}
	}
	return nil
}

// sameLine reports whether two boxes overlap vertically by at least half of
// the smaller height.
func sameLine(a, b geom.Rect) bool {
	ov := a.VOverlap(b)
	small := a.Height()
	if b.Height() < small {
		small = b.Height()
	}
	return small > 0 && ov >= small/2
}

// widgetToken maps a widget render box to a token, or nil for widgets that
// play no role in query semantics.
func widgetToken(leaf *layout.Box, a *Arena) *Token {
	n := leaf.Node
	t := a.newToken()
	t.Pos, t.Name, t.ElemID = leaf.Rect, a.keep(n.AttrOr("name", "")), a.keep(n.AttrOr("id", ""))
	switch n.Tag {
	case "input":
		switch strings.ToLower(n.AttrOr("type", "text")) {
		case "radio":
			t.Type = RadioButton
		case "checkbox":
			t.Type = Checkbox
		case "submit", "image":
			t.Type = Submit
			t.SVal = a.keep(n.AttrOr("value", "Submit"))
		case "reset":
			t.Type = Reset
			t.SVal = a.keep(n.AttrOr("value", "Reset"))
		case "button":
			t.Type = Button
			t.SVal = a.keep(n.AttrOr("value", ""))
		case "password":
			t.Type = Password
		case "file":
			t.Type = FileBox
		default:
			t.Type = Textbox
		}
		t.Value = a.keep(n.AttrOr("value", ""))
		t.Checked = n.HasAttr("checked")
	case "select":
		t.Type = SelectList
		t.Multiple = n.HasAttr("multiple")
		collectOptions(n, t, a)
	case "textarea":
		t.Type = Textarea
	case "button":
		t.Type = Button
		t.SVal = a.innerText(n)
	case "img":
		t.Type = Image
		t.SVal = a.keep(n.AttrOr("alt", ""))
	default:
		return nil
	}
	return t
}

// collectOptions gathers the display text and submit value of every
// descendant option of a select, in document order — the traversal
// FindAllTags performed, fused and arena-backed.
func collectOptions(n *htmlparse.Node, t *Token, a *Arena) {
	for _, c := range n.Children {
		if c.Type == htmlparse.ElementNode && c.Tag == "option" {
			text := a.innerText(c)
			t.Options = a.appendString(t.Options, text)
			value := text
			if v, ok := c.Attr("value"); ok {
				value = a.keep(v)
			}
			t.OptionValues = a.appendString(t.OptionValues, value)
		}
		collectOptions(c, t, a)
	}
}
