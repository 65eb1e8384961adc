package htmlparse

import (
	"context"
	"unsafe"
)

// Tree construction. The builder follows the pragmatic subset of the HTML5
// tree-construction rules that matters for form pages: void elements,
// implied end tags (</p>, </li>, </option>, </tr>, </td>, ...), recovery
// from mismatched end tags, and raw-text elements handled by the lexer.

// voidElements never take children; a start tag is also its end.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedClosers maps a start tag to the set of open tags it implicitly
// closes when encountered. E.g. a new <li> closes a currently open <li>.
var impliedClosers = map[string]map[string]bool{
	"li":         {"li": true},
	"option":     {"option": true},
	"optgroup":   {"option": true, "optgroup": true},
	"tr":         {"tr": true, "td": true, "th": true},
	"td":         {"td": true, "th": true},
	"th":         {"td": true, "th": true},
	"thead":      {"tr": true, "td": true, "th": true, "tbody": true, "tfoot": true, "thead": true},
	"tbody":      {"tr": true, "td": true, "th": true, "thead": true, "tfoot": true, "tbody": true},
	"tfoot":      {"tr": true, "td": true, "th": true, "thead": true, "tbody": true, "tfoot": true},
	"dd":         {"dd": true, "dt": true},
	"dt":         {"dd": true, "dt": true},
	"p":          {"p": true},
	"h1":         {"p": true},
	"h2":         {"p": true},
	"h3":         {"p": true},
	"h4":         {"p": true},
	"h5":         {"p": true},
	"h6":         {"p": true},
	"div":        {"p": true},
	"table":      {"p": true},
	"form":       {"p": true},
	"ul":         {"p": true},
	"ol":         {"p": true},
	"fieldset":   {"p": true},
	"hr":         {"p": true},
	"blockquote": {"p": true},
}

// tableScoped lists tags whose implied closing must not escape the nearest
// enclosing table: a <tr> inside a nested table must not close the outer
// table's <tr>.
var tableScoped = map[string]bool{
	"tr": true, "td": true, "th": true, "thead": true, "tbody": true, "tfoot": true,
}

// DefaultMaxDepth is the element nesting depth applied by Parse and by
// ParseContext when Limits.MaxDepth is zero. Real query forms nest a few
// dozen levels at most; the cap exists so that an adversarial page (a 50k-
// deep <div> chain) cannot drive the recursive consumers of the tree —
// layout, rendering, form-info extraction — into a stack overflow.
const DefaultMaxDepth = 512

// checkEvery is how many lexer tokens are consumed between context
// checkpoints in ParseContext. The check is one atomic load on the common
// context implementations, so the interval just keeps it off the per-token
// path.
const checkEvery = 4096

// Limits bounds what a parse will accept from hostile input.
type Limits struct {
	// MaxDepth caps element nesting depth. Elements deeper than the cap
	// are appended as children of the node at the cap but never opened, so
	// the rest of the page flattens onto that level instead of nesting.
	// 0 means DefaultMaxDepth; negative means unlimited.
	MaxDepth int
}

// Trunc reports what, if anything, a parse cut short. The zero value means
// the whole input was consumed with no limit hit.
type Trunc struct {
	// DepthCapped is set when at least one element was flattened at the
	// depth cap.
	DepthCapped bool
	// Err is the context's error when cancellation ended the parse early;
	// the returned tree holds everything built up to that point.
	Err error
}

// openElem is one frame of the tree builder's stack of open elements: the
// node plus its tag's closer bits (selfBit | bitTable), so implied-closing
// decisions are bit tests instead of map lookups.
type openElem struct {
	n    *Node
	bits uint16
}

// Parse builds a document tree from HTML source. It never fails: malformed
// input produces a best-effort tree, matching the error recovery a browser
// performs. Nesting is bounded by DefaultMaxDepth (deeper structure is
// flattened, not dropped); use ParseContext to tune the cap or to parse
// under a deadline.
func Parse(src string) *Node {
	doc, _ := ParseContext(context.Background(), src, Limits{})
	return doc
}

// ParseContext is Parse under explicit failure containment: the nesting
// cap of lim is enforced while building, and ctx is checked every few
// thousand lexer tokens so a hung or adversarial page stops within one
// checkpoint interval of cancellation. The returned tree is always
// non-nil and valid — on cancellation it simply ends at the last token
// consumed — and the Trunc return describes what was cut short.
func ParseContext(ctx context.Context, src string, lim Limits) (*Node, Trunc) {
	return ParseBytes(ctx, strBytes(src), lim, nil)
}

// strBytes views a string as bytes without copying; safe because the
// parser never writes to its input.
func strBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// ParseBytes parses HTML directly from a byte buffer, carving every node,
// child slice, attribute and decoded string from the arena (nil runs
// without one, allocating from the heap). The tree aliases src wherever
// the syntax allows — plain text runs, raw-text bodies, comment bodies and
// entity-free attribute values are views into the buffer — so src must not
// be modified for as long as the tree is alive. Callers that reuse their
// buffer must copy first; callers serving []byte pages (the facade, the
// crawler) skip the page-sized string copy the string API used to force.
func ParseBytes(ctx context.Context, src []byte, lim Limits, a *Arena) (*Node, Trunc) {
	maxDepth := lim.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	var trunc Trunc
	doc := a.newNode()
	doc.Type = DocumentNode
	lx := newLexer(src, a)
	var stack []openElem
	if a != nil {
		stack = append(a.stack[:0], openElem{n: doc})
	} else {
		stack = []openElem{{n: doc}}
	}
	defer func() {
		if a != nil {
			a.stack = stack[:0]
		}
	}()

	countdown := checkEvery
	for {
		countdown--
		if countdown <= 0 {
			countdown = checkEvery
			if err := ctx.Err(); err != nil {
				trunc.Err = err
				return doc, trunc
			}
		}
		tok := lx.next()
		switch tok.kind {
		case tokEOF:
			return doc, trunc
		case tokText:
			if tok.data == "" {
				continue
			}
			n := a.newNode()
			n.Type, n.Data = TextNode, tok.data
			a.appendChild(stack[len(stack)-1].n, n)
		case tokComment:
			n := a.newNode()
			n.Type, n.Data = CommentNode, tok.data
			a.appendChild(stack[len(stack)-1].n, n)
		case tokDoctype:
			// Dropped; the tree does not model doctypes.
		case tokStartTag:
			closeImplied(&stack, tok.info)
			el := a.newNode()
			el.Type, el.Tag, el.Attrs = ElementNode, tok.data, tok.attrs
			a.appendChild(stack[len(stack)-1].n, el)
			// Interned names carry the void flag and frame bits; only a
			// name outside the vocabulary consults the map.
			var void bool
			var bits uint16
			if info := tok.info; info != nil {
				void, bits = info.flags&infoVoid != 0, info.frame
			} else {
				void = voidElements[tok.data]
			}
			if !void && !tok.selfClosing {
				// The document root occupies one stack slot, so the
				// element depth equals len(stack) after a push.
				if maxDepth < 0 || len(stack) <= maxDepth {
					stack = append(stack, openElem{n: el, bits: bits})
				} else {
					trunc.DepthCapped = true
				}
			}
		case tokEndTag:
			closeTo(&stack, tok.data, tok.info)
		}
	}
}

// closeImplied pops elements that the incoming start tag implicitly closes.
// The frame bits encode everything the decision needs: a frame whose bit is
// outside the incoming tag's closer mask — including a <table> boundary
// frame, whose bitTable no mask contains — stops the popping.
func closeImplied(stack *[]openElem, incoming *nameInfo) {
	if incoming == nil || incoming.closes == 0 {
		return
	}
	s := *stack
	for len(s) > 1 && incoming.closes&s[len(s)-1].bits != 0 {
		s = s[:len(s)-1]
	}
	*stack = s
}

// closeTo handles an explicit end tag: pop up to and including the matching
// open element. If no matching element is open the end tag is ignored,
// except for </p> and </br> which browsers synthesize; we simply ignore
// those too since they do not affect form extraction. Tag names are
// interned, so the == compares are pointer-equality fast paths.
func closeTo(stack *[]openElem, tag string, info *nameInfo) {
	s := *stack
	scoped := info != nil && info.flags&infoTableScoped != 0
	// Search for a matching open element.
	match := -1
	for i := len(s) - 1; i >= 1; i-- {
		if s[i].n.Tag == tag {
			match = i
			break
		}
		// Do not let a table-scoped end tag close through a table boundary.
		// (A </table> itself matches the boundary frame above.)
		if scoped && s[i].bits&bitTable != 0 {
			return
		}
	}
	if match < 0 {
		return
	}
	*stack = s[:match]
}
