package grammar

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"formext/internal/token"
)

// builtins is the registry of functions callable from constraint and
// preference expressions. Spatial predicates delegate to geom.Thresholds,
// so the adjacency-implied semantics of the grammar's relations (Section
// 4.1) is centralized there.
var builtins = map[string]func(ctx *EvalCtx, args []Value) (Value, error){}

// The typed registries are the compiler's fast path: every registered
// builtin has a statically known argument shape (one or two instances) and
// return kind, so compileCall can bind var-argument calls straight to these
// functions — no Value boxing, no scratch-stack append, no generic arity
// check per evaluation. The generic builtins map above is derived from
// these same functions, so both paths share one implementation.
var (
	instBool1 = map[string]func(ctx *EvalCtx, a *Instance) bool{}
	instNum1  = map[string]func(ctx *EvalCtx, a *Instance) float64{}
	instStr1  = map[string]func(ctx *EvalCtx, a *Instance) string{}
	instBool2 = map[string]func(ctx *EvalCtx, a, b *Instance) bool{}
	instNum2  = map[string]func(ctx *EvalCtx, a, b *Instance) float64{}
)

func init() {
	// Spatial relations between two instances.
	regB2("left", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.Left(a.Pos, b.Pos) })
	regB2("right", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.Right(a.Pos, b.Pos) })
	regB2("above", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.Above(a.Pos, b.Pos) })
	regB2("below", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.Below(a.Pos, b.Pos) })
	regB2("alignedleft", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.AlignedLeft(a.Pos, b.Pos) })
	regB2("alignedtop", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.AlignedTop(a.Pos, b.Pos) })
	regB2("alignedmiddle", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.AlignedMiddle(a.Pos, b.Pos) })
	regB2("samerow", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.SameRow(a.Pos, b.Pos) })
	regB2("samecol", func(ctx *EvalCtx, a, b *Instance) bool { return ctx.Th.SameColumn(a.Pos, b.Pos) })
	regN2("hgap", func(_ *EvalCtx, a, b *Instance) float64 { return a.Pos.HGap(b.Pos) })
	regN2("vgap", func(_ *EvalCtx, a, b *Instance) float64 { return a.Pos.VGap(b.Pos) })
	regN2("distance", func(_ *EvalCtx, a, b *Instance) float64 { return a.Pos.Distance(b.Pos) })

	// Cover relations — conflict and subsumption between interpretations.
	regB2("overlap", func(_ *EvalCtx, a, b *Instance) bool { return a.Cover.Intersects(b.Cover) })
	regB2("subsumes", func(_ *EvalCtx, a, b *Instance) bool { return b.Cover.SubsetOf(a.Cover) })

	// samename holds when both subtrees contain widgets and their first
	// widgets share a form-control name — the HTML-level glue of a radio
	// group (the name attribute is part of the token attributes, cf. the
	// <name, field-0> attribute in Figure 5 of the paper).
	regB2("samename", func(_ *EvalCtx, a, b *Instance) bool {
		na, nb := widgetName(a), widgetName(b)
		return na != "" && na == nb
	})

	// labelfor holds when a's text carries an explicit <label for="id">
	// association matching the id of b's first widget — the page author's
	// declared pairing, independent of geometry.
	regB2("labelfor", func(_ *EvalCtx, a, b *Instance) bool {
		forID := findForID(a)
		return forID != "" && hasElemID(b, forID)
	})

	// Accessors on one instance.
	regN1("width", func(_ *EvalCtx, a *Instance) float64 { return a.Pos.Width() })
	regN1("height", func(_ *EvalCtx, a *Instance) float64 { return a.Pos.Height() })
	regN1("count", func(_ *EvalCtx, a *Instance) float64 { return float64(a.Cover.Count()) })
	regN1("size", func(_ *EvalCtx, a *Instance) float64 { return float64(a.Size()) })
	regN1("compdist", func(_ *EvalCtx, a *Instance) float64 { return a.InterComponentDistance() })
	// rowish holds when the instance's direct components all sit on one
	// visual row — the test that separates left-bound label readings from
	// caption-above readings.
	regB1("rowish", func(ctx *EvalCtx, a *Instance) bool {
		for i := 0; i < len(a.Children); i++ {
			for j := i + 1; j < len(a.Children); j++ {
				if !ctx.Th.SameRow(a.Children[i].Pos, a.Children[j].Pos) {
					return false
				}
			}
		}
		return true
	})
	regS1("sval", func(_ *EvalCtx, a *Instance) string { return instText(a) })
	regN1("wordcount", func(_ *EvalCtx, a *Instance) float64 {
		return float64(countFields(instText(a)))
	})
	regN1("textlen", func(_ *EvalCtx, a *Instance) float64 {
		return float64(len(instText(a)))
	})
	regB1("checked", func(_ *EvalCtx, a *Instance) bool {
		return a.Token != nil && a.Token.Checked
	})
	regB1("multiple", func(_ *EvalCtx, a *Instance) bool {
		return a.Token != nil && a.Token.Multiple
	})
	regN1("optioncount", func(_ *EvalCtx, a *Instance) float64 {
		if a.Token == nil {
			return 0
		}
		return float64(len(a.Token.Options))
	})

	// Text-shape predicates, memoized per instance (shapeBits computes all
	// four in one pass over the text on first use).
	regB1("attrlike", func(_ *EvalCtx, a *Instance) bool { return a.shapeBits()&shapeAttr != 0 })
	regB1("oplike", func(_ *EvalCtx, a *Instance) bool { return a.shapeBits()&shapeOp != 0 })
	regB1("caplike", func(_ *EvalCtx, a *Instance) bool { return a.shapeBits()&shapeCap != 0 })
	regB1("endscolon", func(_ *EvalCtx, a *Instance) bool { return a.shapeBits()&shapeColon != 0 })

	// Selection-list content predicates.
	regB1("oplist", func(_ *EvalCtx, a *Instance) bool { return opList(a.Token) })
	regB1("dateish", func(_ *EvalCtx, a *Instance) bool { return Dateish(a.Token) })
	regB1("numlist", func(_ *EvalCtx, a *Instance) bool { return numList(a.Token) })

	// String tests with literal arguments.
	builtins["textis"] = func(ctx *EvalCtx, args []Value) (Value, error) {
		return varArgsStringTest("textis", args, func(text, lit string) bool { return text == lit })
	}
	builtins["contains"] = func(ctx *EvalCtx, args []Value) (Value, error) {
		return varArgsStringTest("contains", args, strings.Contains)
	}
	builtins["near"] = func(ctx *EvalCtx, args []Value) (Value, error) {
		if len(args) != 3 || args[0].Kind != InstVal || args[1].Kind != InstVal || args[2].Kind != NumVal {
			return Value{}, fmt.Errorf("near(instance, instance, radius) misused")
		}
		return VBool(args[0].I.Pos.Distance(args[1].I.Pos) <= args[2].N), nil
	}
}

// regB1/regN1/regS1/regB2/regN2 register a builtin in its typed registry
// and derive the generic Value-boxed form, so the interpreter and the
// compiler's generic path keep their exact argument-validation semantics.
func regB1(name string, fn func(ctx *EvalCtx, a *Instance) bool) {
	instBool1[name] = fn
	reg1(name, func(ctx *EvalCtx, a *Instance) Value { return VBool(fn(ctx, a)) })
}

func regN1(name string, fn func(ctx *EvalCtx, a *Instance) float64) {
	instNum1[name] = fn
	reg1(name, func(ctx *EvalCtx, a *Instance) Value { return VNum(fn(ctx, a)) })
}

func regS1(name string, fn func(ctx *EvalCtx, a *Instance) string) {
	instStr1[name] = fn
	reg1(name, func(ctx *EvalCtx, a *Instance) Value { return VStr(fn(ctx, a)) })
}

func regB2(name string, fn func(ctx *EvalCtx, a, b *Instance) bool) {
	instBool2[name] = fn
	reg2(name, func(ctx *EvalCtx, a, b *Instance) Value { return VBool(fn(ctx, a, b)) })
}

func regN2(name string, fn func(ctx *EvalCtx, a, b *Instance) float64) {
	instNum2[name] = fn
	reg2(name, func(ctx *EvalCtx, a, b *Instance) Value { return VNum(fn(ctx, a, b)) })
}

// reg1 registers a unary builtin over an instance.
func reg1(name string, fn func(ctx *EvalCtx, a *Instance) Value) {
	builtins[name] = func(ctx *EvalCtx, args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != InstVal || args[0].I == nil {
			return Value{}, fmt.Errorf("%s expects one instance argument", name)
		}
		return fn(ctx, args[0].I), nil
	}
}

// reg2 registers a binary builtin over two instances.
func reg2(name string, fn func(ctx *EvalCtx, a, b *Instance) Value) {
	builtins[name] = func(ctx *EvalCtx, args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != InstVal || args[1].Kind != InstVal ||
			args[0].I == nil || args[1].I == nil {
			return Value{}, fmt.Errorf("%s expects two instance arguments", name)
		}
		return fn(ctx, args[0].I, args[1].I), nil
	}
}

// varArgsStringTest implements test(inst, "lit1", "lit2", ...): true when
// the instance's normalized text matches any literal under pred.
func varArgsStringTest(name string, args []Value, pred func(text, lit string) bool) (Value, error) {
	if len(args) < 2 || args[0].Kind != InstVal || args[0].I == nil {
		return Value{}, fmt.Errorf("%s expects (instance, string...)", name)
	}
	text := args[0].I.NormText()
	for _, a := range args[1:] {
		if a.Kind != StrVal {
			return Value{}, fmt.Errorf("%s literal arguments must be strings", name)
		}
		if pred(text, normText(a.S)) {
			return VBool(true), nil
		}
	}
	return VBool(false), nil
}

// widgetName returns the control name of the first named widget token in
// the subtree, or "". Recursion instead of Walk: the closure Walk needs
// escapes to the heap, and this runs once per samename evaluation.
func widgetName(in *Instance) string {
	if in.Token != nil {
		if in.Token.IsWidget() && in.Token.Name != "" {
			return in.Token.Name
		}
		return ""
	}
	for _, c := range in.Children {
		if n := widgetName(c); n != "" {
			return n
		}
	}
	return ""
}

// instText returns the text of an instance: the token string for text
// terminals, otherwise the (memoized) concatenated text of the yield.
func instText(in *Instance) string { return in.Text() }

// findForID returns the first explicit <label for="..."> target in the
// subtree, in preorder, or "".
func findForID(in *Instance) string {
	if in.Token != nil {
		return in.Token.ForID
	}
	for _, c := range in.Children {
		if id := findForID(c); id != "" {
			return id
		}
	}
	return ""
}

// hasElemID reports whether any token in the subtree carries the element id.
func hasElemID(in *Instance, id string) bool {
	if in.Token != nil {
		return in.Token.ElemID == id
	}
	for _, c := range in.Children {
		if hasElemID(c, id) {
			return true
		}
	}
	return false
}

// normText lowercases, strips the label punctuation cutset from both ends,
// and collapses runs of whitespace to single spaces — semantically
// ToLower/TrimSpace, Trim(":*?.! \t"), Join(Fields(s), " "). It is memoized
// per instance but still runs once per fresh instance per parse, and the
// strings.Fields slice was the parser's top residual allocation, so already-
// normal inputs (the common single-word lowercase label) are detected in one
// scan and returned as-is, and the rest are rebuilt through one buffer.
func normText(s string) string {
	if normTextClean(s) {
		return s
	}
	var arr [64]byte
	buf := arr[:0]
	started := false
	pendingSpace := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			pendingSpace = started
			continue
		}
		if pendingSpace {
			buf = append(buf, ' ')
			pendingSpace = false
		}
		started = true
		buf = utf8.AppendRune(buf, unicode.ToLower(r))
	}
	// Trim the cutset (all single-byte ASCII, so byte-wise trimming cannot
	// split a rune) plus any space it exposes, matching Trim-then-Fields.
	lo, hi := 0, len(buf)
	for lo < hi && isCutset(buf[lo]) {
		lo++
	}
	for hi > lo && isCutset(buf[hi-1]) {
		hi--
	}
	return string(buf[lo:hi])
}

func isCutset(b byte) bool {
	switch b {
	case ':', '*', '?', '.', '!', ' ', '\t':
		return true
	}
	return false
}

// normTextClean reports whether normText(s) == s: ASCII with no uppercase,
// no cutset character at either end, and single interior spaces only.
func normTextClean(s string) bool {
	if s == "" {
		return true
	}
	if isCutset(s[0]) || isCutset(s[len(s)-1]) {
		return false
	}
	prevSpace := false
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= 0x80 || b >= 'A' && b <= 'Z' {
			return false
		}
		if b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r' {
			return false
		}
		if b == ' ' {
			if prevSpace {
				return false
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
	}
	return true
}

// attrLike reports whether a text reads like an attribute label: short,
// contains letters, not overly long. (The fuzzy heuristic of Section 1,
// made explicit and testable.)
func attrLike(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" || len(s) > 60 {
		return false
	}
	if countFields(s) > 6 {
		return false
	}
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			return true
		}
	}
	return false
}

// countFields is len(strings.Fields(s)) without materializing the fields:
// the constraint evaluators call the word-count heuristics once per
// candidate instance, and the slice was a top allocation site.
func countFields(s string) int {
	n := 0
	inField := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// containsFold is strings.Contains(strings.ToLower(s), sub) for a
// lowercase-ASCII needle, without allocating the lowered copy.
func containsFold(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if foldEqASCII(s[i:i+len(sub)], sub) {
			return true
		}
	}
	return false
}

// foldEqASCII compares equal-length byte strings ignoring ASCII case (the
// right-hand side is already lowercase).
func foldEqASCII(s, lower string) bool {
	for j := 0; j < len(lower); j++ {
		c := s[j]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[j] {
			return false
		}
	}
	return true
}

// parseIntFast parses a decimal integer with optional sign. Unlike
// strconv.Atoi it does not allocate a NumError on failure — and failure is
// the common case when probing selection-list options for numbers.
func parseIntFast(s string) (int, bool) {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		n, ok := parseIntFast(s[1:])
		if s[0] == '-' {
			n = -n
		}
		return n, ok
	}
	if s == "" || len(s) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// opKeywords are the operator vocabulary observed across query forms.
// Deliberately absent: bare comparatives that also appear in enumerated
// VALUES ("any", "all", "under $20", "over 100k miles") — those belong to
// domains, not operators, and including them turns price/mileage selection
// lists into false operator lists.
var opKeywords = []string{
	"exact", "start", "begin", "contain", "word", "phrase",
	"at least", "at most", "less than", "more than", "greater", "equal",
	"ends with", "match", "is before", "is after",
}

// opLike reports whether a text reads like an operator/modifier label.
func opLike(s string) bool {
	for _, k := range opKeywords {
		if containsFold(s, k) {
			return true
		}
	}
	return false
}

// capLike reports whether a text reads like a caption or instructions
// rather than an attribute: long, many words, or sentence punctuation.
func capLike(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return false
	}
	if countFields(s) >= 5 || len(s) > 45 {
		return true
	}
	return strings.HasSuffix(s, ".") || strings.HasSuffix(s, "!")
}

// opList reports whether a selection list's options read like operators
// (e.g. "less than | greater than | equal to").
func opList(t *token.Token) bool {
	if t == nil || t.Type != token.SelectList || len(t.Options) == 0 {
		return false
	}
	hits := 0
	for _, o := range t.Options {
		if opLike(o) {
			hits++
		}
	}
	return hits*2 >= len(t.Options)
}

var monthNames = []string{
	"january", "february", "march", "april", "may", "june", "july",
	"august", "september", "october", "november", "december",
	"jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
}

// Dateish reports whether a selection list looks like a date part: month
// names, a day-of-month list, or a year list. Small numeric lists (e.g.
// passenger counts 1-9) deliberately do not qualify. It backs the dateish
// builtin and the merger's date-domain inference.
func Dateish(t *token.Token) bool {
	if t == nil || t.Type != token.SelectList || len(t.Options) < 2 {
		return false
	}
	months, days, years := 0, 0, 0
	for _, o := range t.Options {
		o = strings.TrimSpace(o)
		for _, m := range monthNames {
			// Case-folded "jan" or "jan ..." match without lowering a copy.
			if len(o) >= len(m) && foldEqASCII(o[:len(m)], m) &&
				(len(o) == len(m) || o[len(m)] == ' ') {
				months++
				break
			}
		}
		if n, ok := parseIntFast(o); ok {
			if n >= 1 && n <= 31 {
				days++
			}
			if n >= 1900 && n <= 2035 {
				years++
			}
		}
	}
	n := len(t.Options)
	switch {
	case months*3 >= n*2: // mostly month names
		return true
	case days >= 25: // a day-of-month list needs most of 1..31
		return true
	case years >= 4 && years*3 >= n*2: // several year options
		return true
	}
	return false
}

// numList reports whether most options of a selection list are numeric.
func numList(t *token.Token) bool {
	if t == nil || t.Type != token.SelectList || len(t.Options) < 2 {
		return false
	}
	numeric := 0
	for _, o := range t.Options {
		if _, ok := parseIntFast(strings.TrimSpace(o)); ok {
			numeric++
		}
	}
	return numeric*5 >= len(t.Options)*4
}
