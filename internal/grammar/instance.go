package grammar

import (
	"fmt"
	"strings"
	"unsafe"

	"formext/internal/bitset"
	"formext/internal/geom"
	"formext/internal/token"
)

// Instance is a node of a (partial) parse tree: an instantiation of a
// grammar symbol over a set of input tokens. Terminal instances wrap one
// token; nonterminal instances are built by a production from component
// instances. The universal constructor (the F of Definition 2) gives every
// instance a pos — the bounding box of its components — and a cover — the
// set of token IDs in its yield.
//
// Instances are the mutable half of the parsing state: the parser engine
// assigns IDs and flips Dead during preference enforcement. (Parent links —
// the rollback edges — live in the engine's index-form parent graph, not on
// the instance: only the parser needs them, and their far ends are mostly
// the parse's dead-instance majority.) Instances belong to exactly one
// parse and must not be shared across concurrent parses (the shared,
// immutable half is the Grammar).
type Instance struct {
	// ID is the creation sequence number assigned by the parser; it makes
	// preference enforcement and pruning deterministic.
	ID int
	// Sym is the grammar symbol this instance instantiates.
	Sym string
	// Children are the component instances, in production order; nil for
	// terminals.
	Children []*Instance
	// Token is the wrapped input token of a terminal instance.
	Token *token.Token
	// Pos is the bounding box.
	Pos geom.Rect
	// Cover is the set of token IDs in the instance's yield.
	Cover bitset.Set
	// Prod is the production that built the instance; nil for terminals.
	Prod *Production
	// Dead marks instances invalidated by preference enforcement or
	// rollback; dead instances take no further part in parsing.
	Dead bool

	// Lazily memoized text of the subtree (the yield never changes after
	// Build, so the first computation is definitive). Single-parse state,
	// like Dead: not synchronized.
	text    string
	hasText bool
	norm    string
	hasNorm bool
	// shape caches the text-shape predicate bits (attrlike/oplike/caplike/
	// endscolon), computed in one pass on first use. Zero means "not yet
	// computed" — shapeValid is always set once it is. Unlike the text
	// memos it is parse-time state: only constraint builtins read it, and
	// only the parser evaluates constraints, on its own instances before
	// the result is compacted out. FreezeMemos therefore leaves it alone;
	// a frozen instance must not be handed to a constraint evaluator
	// concurrently.
	shape uint8
}

// Text-shape memo bits. shapeValid marks the memo as computed; the rest
// record the four predicate outcomes the grammar's constraints probe
// repeatedly for the same instance.
const (
	shapeValid uint8 = 1 << iota
	shapeAttr
	shapeOp
	shapeCap
	shapeColon
)

// shapeBits returns the memoized text-shape predicate bits, computing all
// four predicates over the instance text on first call. The constraint
// evaluators ask attrlike/oplike/caplike/endscolon for the same instance
// across many candidate assignments; one scan amortizes them all.
func (in *Instance) shapeBits() uint8 {
	if in.shape == 0 {
		t := in.Text()
		b := shapeValid
		if attrLike(t) {
			b |= shapeAttr
		}
		if opLike(t) {
			b |= shapeOp
		}
		if capLike(t) {
			b |= shapeCap
		}
		if strings.HasSuffix(strings.TrimSpace(t), ":") {
			b |= shapeColon
		}
		in.shape = b
	}
	return in.shape
}

// NewTerminal wraps an input token as a terminal instance. The universe is
// the total token count.
func NewTerminal(t *token.Token, universe int) *Instance {
	c := bitset.New(universe)
	c.Add(t.ID)
	return &Instance{Sym: string(t.Type), Token: t, Pos: t.Pos, Cover: c}
}

// Build constructs a head instance from components via the universal
// constructor: pos is the components' bounding box and cover the union of
// their covers. It does not check constraints or cover disjointness — the
// parser does that before calling Build.
func Build(p *Production, children []*Instance) *Instance {
	inst := &Instance{Sym: p.Head, Children: children, Prod: p}
	for i, c := range children {
		inst.Pos = inst.Pos.Union(c.Pos)
		if i == 0 {
			inst.Cover = c.Cover.Clone()
		} else {
			inst.Cover.UnionWith(c.Cover)
		}
	}
	return inst
}

// IsTerminal reports whether the instance wraps a single input token.
func (in *Instance) IsTerminal() bool { return in.Token != nil }

// Size returns the number of nodes in the subtree.
func (in *Instance) Size() int {
	n := 1
	for _, c := range in.Children {
		n += c.Size()
	}
	return n
}

// Height returns the height of the subtree (terminals have height 1).
func (in *Instance) Height() int {
	h := 0
	for _, c := range in.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Tokens returns the yield: the wrapped tokens of all terminal descendants
// in left-to-right derivation order.
func (in *Instance) Tokens() []*token.Token {
	var out []*token.Token
	in.Walk(func(x *Instance) bool {
		if x.Token != nil {
			out = append(out, x.Token)
		}
		return true
	})
	return out
}

// Walk visits the subtree in preorder. Returning false prunes descent.
func (in *Instance) Walk(visit func(*Instance) bool) {
	if !visit(in) {
		return
	}
	for _, c := range in.Children {
		c.Walk(visit)
	}
}

// Texts concatenates the string values of all text-terminal descendants.
// The zero- and one-text cases — most attribute subtrees wrap exactly one
// text token — return without allocating; multi-text yields are joined
// through one grown buffer instead of a parts slice.
func (in *Instance) Texts() string {
	first, n := firstText(in, "", 0)
	if n == 0 {
		return ""
	}
	if n == 1 {
		return first
	}
	var j textJoiner
	j.walk(in)
	return string(j.buf)
}

// firstText finds the first text terminal and counts up to two of them.
func firstText(in *Instance, first string, n int) (string, int) {
	if in.Token != nil {
		if in.Token.Type == token.Text {
			if n == 0 {
				first = in.Token.SVal
			}
			n++
		}
		return first, n
	}
	for _, c := range in.Children {
		if first, n = firstText(c, first, n); n > 1 {
			break
		}
	}
	return first, n
}

// textJoiner joins text-terminal values with single separating spaces
// (strings.Join semantics: a separator between every adjacent pair, even
// around empty values).
type textJoiner struct {
	buf     []byte
	started bool
}

func (j *textJoiner) walk(in *Instance) {
	if in.Token != nil {
		if in.Token.Type == token.Text {
			if j.started {
				j.buf = append(j.buf, ' ')
			}
			j.started = true
			j.buf = append(j.buf, in.Token.SVal...)
		}
		return
	}
	for _, c := range in.Children {
		j.walk(c)
	}
}

// Text returns instText semantics with memoization: the token string for
// terminals, otherwise the concatenated yield text, computed once. The
// constraint evaluators call this instead of Texts so repeated evaluations
// over the same instance (one per candidate production, per preference
// pair) do not re-join the yield.
func (in *Instance) Text() string {
	if in.Token != nil {
		return in.Token.SVal
	}
	if !in.hasText {
		in.text = in.Texts()
		in.hasText = true
	}
	return in.text
}

// NormText returns normText(in.Text()), computed once per instance.
func (in *Instance) NormText() string {
	if !in.hasNorm {
		in.norm = normText(in.Text())
		in.hasNorm = true
	}
	return in.norm
}

// FreezeMemos prepares the subtree for concurrent readers: it
// pre-materializes the lazily memoized text caches (Text, NormText) of
// every instance reachable through Children — the only lazy writes a
// reader can trigger — and returns the approximate byte footprint of the
// visited subtree. The text-shape memo is parse-time state (see
// Instance.shape) and is left alone. Parent links need no severing — the engine
// keeps them in its own index-form graph, so a frozen Result never held
// rollback edges to begin with. After FreezeMemos any number of goroutines
// may read the subtree concurrently (Walk, Text, NormText, Dump, Explain).
// The seen set deduplicates shared nodes across calls; pass one set per
// result.
func (in *Instance) FreezeMemos(seen map[*Instance]bool) int64 {
	if seen[in] {
		return 0
	}
	seen[in] = true
	// The struct, its cover words and its child pointers.
	cost := int64(unsafe.Sizeof(Instance{})) + int64(8*in.Cover.Words())
	cost += int64(len(in.Text()) + len(in.NormText()))
	cost += int64(8 * len(in.Children))
	for _, c := range in.Children {
		cost += c.FreezeMemos(seen)
	}
	return cost
}

// String renders the instance as Sym[cover] for diagnostics.
func (in *Instance) String() string {
	return fmt.Sprintf("%s%s", in.Sym, in.Cover.String())
}

// Dump renders the whole subtree with indentation, for debugging and the
// CLI's --trees output.
func (in *Instance) Dump() string {
	var b strings.Builder
	var rec func(x *Instance, depth int)
	rec = func(x *Instance, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if x.Token != nil {
			fmt.Fprintf(&b, "%s %s\n", x.Sym, x.Token)
			return
		}
		fmt.Fprintf(&b, "%s  (%s)\n", x.Sym, x.Prod.Name)
		for _, c := range x.Children {
			rec(c, depth+1)
		}
	}
	rec(in, 0)
	return b.String()
}

// InterComponentDistance returns the largest pairwise gap between direct
// children — the "inter-component distance" preferences use to pick tighter
// groupings (Section 5.2 cycle example).
func (in *Instance) InterComponentDistance() float64 {
	max := 0.0
	for i := 0; i < len(in.Children); i++ {
		for j := i + 1; j < len(in.Children); j++ {
			if d := in.Children[i].Pos.Distance(in.Children[j].Pos); d > max {
				max = d
			}
		}
	}
	return max
}
