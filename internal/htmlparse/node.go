// Package htmlparse implements an HTML lexer and forgiving tree builder
// sufficient for real-world query forms: tag soup, unclosed elements,
// attribute quoting variants, character entities, comments, and raw-text
// elements. It is the first half of the substrate that replaces the HTML
// DOM API of a browser (the paper's tokenizer reads rendered positions from
// Internet Explorer); the second half is the layout engine in
// internal/layout.
package htmlparse

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType discriminates the kinds of DOM nodes produced by the parser.
type NodeType int

const (
	// DocumentNode is the synthetic root of a parse.
	DocumentNode NodeType = iota
	// ElementNode is a tag such as <input> or <table>.
	ElementNode
	// TextNode holds character data.
	TextNode
	// CommentNode holds the body of an HTML comment.
	CommentNode
)

func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return "unknown"
	}
}

// Attr is a single name/value attribute. Names are lower-cased by the lexer.
type Attr struct {
	Name  string
	Value string
}

// Node is a node in the parsed document tree.
type Node struct {
	Type     NodeType
	Tag      string // element tag name, lower-cased; empty for non-elements
	Data     string // text or comment content
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
// The lookup is case-insensitive because the lexer lower-cases names.
// Callers almost always pass a lower-case literal, so the name is lowered
// only when it holds an upper-case or non-ASCII byte.
func (n *Node) Attr(name string) (string, bool) {
	if needsLower(name) {
		name = strings.ToLower(name)
	}
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// needsLower reports whether strings.ToLower could change s.
func needsLower(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || c >= 'A' && c <= 'Z' {
			return true
		}
	}
	return false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the attribute is present (even if empty-valued).
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// AppendChild attaches c as the last child of n and sets its parent.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Walk visits n and all descendants in document order. Returning false from
// the visitor prunes the subtree below the current node (the walk continues
// with siblings). The traversal uses an explicit stack so trees of any
// depth are walked without growing the goroutine stack.
func (n *Node) Walk(visit func(*Node) bool) {
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(cur) {
			continue
		}
		for i := len(cur.Children) - 1; i >= 0; i-- {
			stack = append(stack, cur.Children[i])
		}
	}
}

// Find returns the first descendant (in document order, excluding n itself)
// satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	for _, c := range n.Children {
		c.Walk(func(m *Node) bool {
			if found != nil {
				return false
			}
			if pred(m) {
				found = m
				return false
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}

// FindAll returns all descendants satisfying pred in document order.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(m *Node) bool {
			if pred(m) {
				out = append(out, m)
			}
			return true
		})
	}
	return out
}

// FindTag returns the first descendant element with the given tag name.
// Direct recursion, not Find: layout calls this per table (captions) and per
// document (body), and the visitor closure plus Walk's explicit stack were
// measurable per-extraction allocations.
func (n *Node) FindTag(tag string) *Node {
	return findTag(n, strings.ToLower(tag))
}

func findTag(n *Node, tag string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Tag == tag {
			return c
		}
		if f := findTag(c, tag); f != nil {
			return f
		}
	}
	return nil
}

// FindAllTags returns all descendant elements with the given tag name.
func (n *Node) FindAllTags(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(m *Node) bool { return m.Type == ElementNode && m.Tag == tag })
}

// InnerText concatenates all descendant text, collapsing runs of whitespace
// to single spaces and trimming the result.
func (n *Node) InnerText() string {
	return string(n.AppendInnerText(nil))
}

// AppendInnerText appends InnerText to dst and returns the extended slice,
// letting callers that tokenize many nodes reuse one scratch buffer. The
// output is every whitespace-delimited word of the subtree's text nodes,
// in document order, joined by single spaces — exactly
// strings.Join(strings.Fields(<concatenated text>), " ").
func (n *Node) AppendInnerText(dst []byte) []byte {
	first := len(dst) == 0
	return appendTextWords(n, dst, &first)
}

func appendTextWords(n *Node, dst []byte, first *bool) []byte {
	if n.Type == TextNode {
		data := n.Data
		p := 0
		for {
			s, e, ok := nextTextWord(data, p)
			if !ok {
				return dst
			}
			if !*first {
				dst = append(dst, ' ')
			}
			*first = false
			dst = append(dst, data[s:e]...)
			p = e
		}
	}
	for _, c := range n.Children {
		dst = appendTextWords(c, dst, first)
	}
	return dst
}

// nextTextWord finds the next strings.Fields word of s at or after p: the
// same whitespace definition (ASCII space set, unicode.IsSpace beyond).
func nextTextWord(s string, p int) (start, end int, ok bool) {
	for p < len(s) {
		c := s[p]
		if c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
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
			if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
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

// IsElement reports whether n is an element with the given tag.
func (n *Node) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Tag == tag
}
