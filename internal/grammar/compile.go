package grammar

import (
	"errors"
	"strings"

	"formext/internal/geom"
)

// The expression compiler. The interpreted Expr tree (expr.go) binds
// component variables through a map[string]*Instance per evaluation and
// resolves builtins through a map lookup per call — fine for DSL tooling,
// far too slow for the parser's inner loop, which evaluates constraints
// once per candidate component assignment and preferences once per
// winner×loser pair. Compile resolves every variable to a slot index into
// a []*Instance frame and every builtin to its function pointer once per
// grammar; evaluation then allocates nothing (builtin argument vectors are
// carved from a per-frame scratch stack).
//
// Semantics are identical to the interpreted path by construction:
// evaluation errors — type mismatches, unknown names — still make EvalBool
// false, and expressions that cannot compile (a variable outside the slot
// map, an unknown builtin) compile to a node that always errors, which is
// exactly what the interpreter does at evaluation time. The parser keeps
// the interpreted path alive as a differential-test oracle
// (core.Options.Interpreted).

// Frame is the slot-indexed evaluation environment of compiled
// expressions: the instances bound to each compiled slot, the spatial
// thresholds, and the scratch stack for builtin argument vectors. One
// Frame belongs to one parse engine; it is not safe for concurrent use.
type Frame struct {
	slots []*Instance
	ctx   EvalCtx // Th for builtins; Bind stays nil on this path
	args  []Value // scratch stack for builtin calls
}

// NewFrame returns a frame evaluating under the given thresholds.
func NewFrame(th geom.Thresholds) *Frame {
	return &Frame{ctx: EvalCtx{Th: th}, args: make([]Value, 0, 16)}
}

// Bind points the frame's slots at the given instances. The slice is
// borrowed, not copied: the caller may rebind between evaluations.
func (fr *Frame) Bind(slots []*Instance) { fr.slots = slots }

// compiledFn evaluates one compiled node against a frame.
type compiledFn func(fr *Frame) (Value, error)

// The unboxed fast path. boolFn/numFn/strFn evaluate nodes whose runtime
// result kind is statically known, with ok=false standing for "the generic
// path would have returned an evaluation error here". EvalBool only ever
// inspects the final boolean, so folding every error into ok preserves its
// semantics exactly while skipping Value boxing, the builtin argument
// stack, and per-call arity validation. Eval (tests, tooling) keeps the
// generic compiledFn with its full error values.
type (
	boolFn func(fr *Frame) (v, ok bool)
	numFn  func(fr *Frame) (v float64, ok bool)
	strFn  func(fr *Frame) (v string, ok bool)
)

// CompiledExpr is a compiled constraint or preference expression.
type CompiledExpr struct {
	fn  compiledFn
	bfn boolFn
}

// EvalBool evaluates the compiled expression with the interpreter's
// forgiving semantics: nil expressions hold, errors and non-boolean
// results do not. The compiled twin of EvalBool. It runs on the unboxed
// fast path; the boxed fn is retained for Eval.
func (c *CompiledExpr) EvalBool(fr *Frame) bool {
	if c == nil {
		return true
	}
	v, ok := c.bfn(fr)
	return ok && v
}

// Eval evaluates the compiled expression (for tests and tooling; the
// parser only uses EvalBool).
func (c *CompiledExpr) Eval(fr *Frame) (Value, error) { return c.fn(fr) }

// Static error values, so the failure paths of compiled evaluation do not
// allocate. EvalBool discards errors; their text only surfaces through
// CompiledExpr.Eval in tests.
var (
	errUnbound  = errors.New("variable not bound to a compiled slot")
	errBuiltin  = errors.New("unknown builtin")
	errNonBool  = errors.New("non-boolean operand")
	errBadCmp   = errors.New("incomparable operands")
	errNilInst  = errors.New("nil instance in slot")
	errCannotEv = errors.New("inexpressible node")
)

// CompiledProd is the compiled form of one production: its constraint with
// component variables resolved to component indices (slot i is component
// i). Nil Constraint means unconditionally applicable.
//
// Conjuncts additionally decomposes the constraint's top-level ∧-chain into
// independently compiled factors (nil when there are fewer than two). Under
// EvalBool semantics the factors commute: evaluation errors and false both
// collapse to false, so EvalBool(A && B) == EvalBool(A) && EvalBool(B) for
// every A, B, and the parser is free to evaluate the factors in any order —
// in particular cheapest first by static cost. Every factor is pure
// (builtins only read instance state; the text memos they populate are
// idempotent), so short-circuiting a reordered chain is observationally
// identical to evaluating the original expression.
type CompiledProd struct {
	Constraint *CompiledExpr
	Conjuncts  []CompiledConjunct
}

// CompiledConjunct is one top-level ∧-factor of a production constraint,
// compiled on the same unboxed fast path as the full expression. Cost is a
// static estimate of the factor's evaluation cost (see staticCost) that
// orders the factors the parser evaluates at the same join slot, cheapest
// first.
//
// MaxSlot is the highest component slot any of the factor's variables
// resolves to — the earliest point in a left-to-right join at which the
// factor is fully bound. The parser evaluates the factor the moment that
// slot is filled (predicate pushdown): a unary factor on slot 0 rejects a
// candidate before any deeper slot is even enumerated. A factor with no
// resolvable variables gets MaxSlot 0 — it is constant (or, if it names an
// unknown variable, constantly false under error semantics) and belongs as
// early as possible. Src is the factor's source expression, kept so the
// interpreted oracle can evaluate the identical factor at the identical
// point through the tree-walking interpreter.
type CompiledConjunct struct {
	Expr    *CompiledExpr
	Src     Expr
	Cost    int
	MaxSlot int
}

// CompiledPref is the compiled form of one preference: slot 0 is the
// winner, slot 1 the loser. Nil Cond keeps the default conflicting
// condition (cover intersection); nil Win means the winner always wins.
type CompiledPref struct {
	Cond *CompiledExpr
	Win  *CompiledExpr
}

// CompiledGrammar holds the compiled productions and preferences of one
// grammar, index-parallel to Grammar.Prods and Grammar.Prefs. Like the
// Grammar it derives from, it is immutable after construction and safe to
// share across parsers and goroutines (all mutable evaluation state lives
// in the Frame).
type CompiledGrammar struct {
	Prods []CompiledProd
	Prefs []CompiledPref
}

// Compile compiles every production constraint and preference
// condition/criterion of g. Compilation is total: malformed expressions
// (which a validated grammar cannot contain) compile to always-false
// nodes, mirroring the interpreter's error-means-false semantics.
func Compile(g *Grammar) *CompiledGrammar {
	cg := &CompiledGrammar{
		Prods: make([]CompiledProd, len(g.Prods)),
		Prefs: make([]CompiledPref, len(g.Prefs)),
	}
	for i, p := range g.Prods {
		slot := make(map[string]int, len(p.Components))
		for j, c := range p.Components {
			slot[c.Var] = j
		}
		cg.Prods[i].Constraint = CompileExpr(p.Constraint, slot)
		cg.Prods[i].Conjuncts = compileConjuncts(p.Constraint, slot)
	}
	for i, r := range g.Prefs {
		// Winner first: if the two variables collide, the loser binding
		// wins, exactly as the interpreter's last map write does.
		slot := map[string]int{r.WinnerVar: 0}
		slot[r.LoserVar] = 1
		cg.Prefs[i].Cond = CompileExpr(r.Cond, slot)
		cg.Prefs[i].Win = CompileExpr(r.Win, slot)
	}
	return cg
}

// CompileExpr compiles one expression against a variable→slot mapping.
// A nil expression compiles to nil (EvalBool then holds, like the
// interpreter).
func CompileExpr(e Expr, slot map[string]int) *CompiledExpr {
	if e == nil {
		return nil
	}
	return &CompiledExpr{fn: compileNode(e, slot), bfn: compileBool(e, slot)}
}

func compileNode(e Expr, slot map[string]int) compiledFn {
	switch n := e.(type) {
	case *VarExpr:
		i, ok := slot[n.Name]
		if !ok {
			return errNode(errUnbound)
		}
		return func(fr *Frame) (Value, error) { return VInst(fr.slots[i]), nil }
	case *NumLit:
		v := VNum(n.V)
		return func(*Frame) (Value, error) { return v, nil }
	case *StrLit:
		v := VStr(n.V)
		return func(*Frame) (Value, error) { return v, nil }
	case *BoolLit:
		v := VBool(n.V)
		return func(*Frame) (Value, error) { return v, nil }
	case *NotExpr:
		x := compileNode(n.X, slot)
		return func(fr *Frame) (Value, error) {
			v, err := x(fr)
			if err != nil {
				return Value{}, err
			}
			if v.Kind != BoolVal {
				return Value{}, errNonBool
			}
			return VBool(!v.B), nil
		}
	case *AndExpr:
		l, r := compileNode(n.L, slot), compileNode(n.R, slot)
		return func(fr *Frame) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return Value{}, err
			}
			if lv.Kind != BoolVal {
				return Value{}, errNonBool
			}
			if !lv.B {
				return VBool(false), nil
			}
			rv, err := r(fr)
			if err != nil {
				return Value{}, err
			}
			if rv.Kind != BoolVal {
				return Value{}, errNonBool
			}
			return rv, nil
		}
	case *OrExpr:
		l, r := compileNode(n.L, slot), compileNode(n.R, slot)
		return func(fr *Frame) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return Value{}, err
			}
			if lv.Kind != BoolVal {
				return Value{}, errNonBool
			}
			if lv.B {
				return VBool(true), nil
			}
			rv, err := r(fr)
			if err != nil {
				return Value{}, err
			}
			if rv.Kind != BoolVal {
				return Value{}, errNonBool
			}
			return rv, nil
		}
	case *CmpExpr:
		l, r := compileNode(n.L, slot), compileNode(n.R, slot)
		op := n.Op
		return func(fr *Frame) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return Value{}, err
			}
			rv, err := r(fr)
			if err != nil {
				return Value{}, err
			}
			if lv.Kind == NumVal && rv.Kind == NumVal {
				return VBool(cmpNum(op, lv.N, rv.N)), nil
			}
			if lv.Kind == StrVal && rv.Kind == StrVal {
				switch op {
				case "==":
					return VBool(strings.EqualFold(lv.S, rv.S)), nil
				case "!=":
					return VBool(!strings.EqualFold(lv.S, rv.S)), nil
				}
			}
			if lv.Kind == BoolVal && rv.Kind == BoolVal {
				switch op {
				case "==":
					return VBool(lv.B == rv.B), nil
				case "!=":
					return VBool(lv.B != rv.B), nil
				}
			}
			return Value{}, errBadCmp
		}
	case *CallExpr:
		return compileCall(n, slot)
	}
	return errNode(errCannotEv)
}

// compileCall compiles a builtin invocation: the builtin is resolved once,
// and argument vectors are carved from the frame's scratch stack so a call
// allocates nothing. The text-matching builtins with literal arguments get
// a specialized node with the literals pre-normalized.
func compileCall(n *CallExpr, slot map[string]int) compiledFn {
	if fn := compileTextMatch(n, slot); fn != nil {
		return fn
	}
	bi, ok := builtins[n.Name]
	if !ok {
		return errNode(errBuiltin)
	}
	argFns := make([]compiledFn, len(n.Args))
	for i, a := range n.Args {
		argFns[i] = compileNode(a, slot)
	}
	return func(fr *Frame) (Value, error) {
		base := len(fr.args)
		for _, af := range argFns {
			v, err := af(fr)
			if err != nil {
				fr.args = fr.args[:base]
				return Value{}, err
			}
			fr.args = append(fr.args, v)
		}
		v, err := bi(&fr.ctx, fr.args[base:])
		fr.args = fr.args[:base]
		return v, err
	}
}

// compileTextMatch specializes textis/contains calls whose first argument
// is a variable and whose remaining arguments are string literals — the
// shape every DSL use has — normalizing the literals at compile time
// instead of on every evaluation. Returns nil when the call does not fit
// the shape (the generic path then reproduces interpreter semantics,
// errors included).
func compileTextMatch(n *CallExpr, slot map[string]int) compiledFn {
	var pred func(text, lit string) bool
	switch n.Name {
	case "textis":
		pred = func(text, lit string) bool { return text == lit }
	case "contains":
		pred = strings.Contains
	default:
		return nil
	}
	if len(n.Args) < 2 {
		return nil
	}
	v, ok := n.Args[0].(*VarExpr)
	if !ok {
		return nil
	}
	i, ok := slot[v.Name]
	if !ok {
		return errNode(errUnbound)
	}
	lits := make([]string, 0, len(n.Args)-1)
	for _, a := range n.Args[1:] {
		s, ok := a.(*StrLit)
		if !ok {
			return nil
		}
		lits = append(lits, normText(s.V))
	}
	return func(fr *Frame) (Value, error) {
		in := fr.slots[i]
		if in == nil {
			return Value{}, errNilInst
		}
		text := in.NormText()
		for _, lit := range lits {
			if pred(text, lit) {
				return VBool(true), nil
			}
		}
		return VBool(false), nil
	}
}

func errNode(err error) compiledFn {
	return func(*Frame) (Value, error) { return Value{}, err }
}

// ---- Unboxed fast path -------------------------------------------------
//
// compileBool and its helpers compile the boolean fragment of the
// expression language into closures that pass raw bool/float64/string
// values instead of boxed Values. The parser's inner loop (one constraint
// evaluation per candidate component assignment, one preference evaluation
// per winner×loser pair) runs entirely on this path: var-argument builtin
// calls bind directly to the typed registries in builtins.go, so an
// evaluation touches no Value structs, no scratch stack, and no write
// barriers.
//
// Equivalence with the generic path: ok=false is returned exactly where
// the generic path returns an error or (at the root) a non-boolean value,
// and EvalBool collapses both to false. Comparison operands use *static*
// kinds only — a node compiles into the numeric/string fragment only when
// its runtime result kind is fixed by its syntax (literals, registry
// builtins) — so the fast path never mistypes a comparison the generic
// path would have dispatched differently; any other shape falls back to
// the boxed evaluator wrapped in wrapBool.

// compileBool compiles e as a boolean node. It is total: shapes outside
// the fast fragment are evaluated boxed through wrapBool.
func compileBool(e Expr, slot map[string]int) boolFn {
	switch n := e.(type) {
	case *BoolLit:
		v := n.V
		return func(*Frame) (bool, bool) { return v, true }
	case *NotExpr:
		x := compileBool(n.X, slot)
		return func(fr *Frame) (bool, bool) {
			v, ok := x(fr)
			if !ok {
				return false, false
			}
			return !v, true
		}
	case *AndExpr:
		l, r := compileBool(n.L, slot), compileBool(n.R, slot)
		return func(fr *Frame) (bool, bool) {
			v, ok := l(fr)
			if !ok {
				return false, false
			}
			if !v {
				return false, true
			}
			return r(fr)
		}
	case *OrExpr:
		l, r := compileBool(n.L, slot), compileBool(n.R, slot)
		return func(fr *Frame) (bool, bool) {
			v, ok := l(fr)
			if !ok {
				return false, false
			}
			if v {
				return true, true
			}
			return r(fr)
		}
	case *CmpExpr:
		if fn := compileCmpFast(n, slot); fn != nil {
			return fn
		}
	case *CallExpr:
		if fn := compileCallBool(n, slot); fn != nil {
			return fn
		}
	}
	return wrapBool(compileNode(e, slot))
}

// wrapBool adapts a boxed node: errors and non-boolean results both become
// ok=false, which is precisely how EvalBool treats them.
func wrapBool(fn compiledFn) boolFn {
	return func(fr *Frame) (bool, bool) {
		v, err := fn(fr)
		if err != nil || v.Kind != BoolVal {
			return false, false
		}
		return v.B, true
	}
}

// compileCmpFast compiles a comparison whose operand kinds are statically
// known. Returns nil (caller falls back to the boxed comparison) when
// either side's kind cannot be fixed at compile time.
func compileCmpFast(n *CmpExpr, slot map[string]int) boolFn {
	op := n.Op
	if lf := compileNum(n.L, slot); lf != nil {
		rf := compileNum(n.R, slot)
		if rf == nil {
			return nil
		}
		return func(fr *Frame) (bool, bool) {
			lv, ok := lf(fr)
			if !ok {
				return false, false
			}
			rv, ok := rf(fr)
			if !ok {
				return false, false
			}
			return cmpNum(op, lv, rv), true
		}
	}
	if lf := compileStr(n.L, slot); lf != nil {
		rf := compileStr(n.R, slot)
		if rf == nil {
			return nil
		}
		var want bool
		switch op {
		case "==":
			want = true
		case "!=":
			want = false
		default:
			// Statically incomparable: the boxed path returns errBadCmp.
			return func(*Frame) (bool, bool) { return false, false }
		}
		return func(fr *Frame) (bool, bool) {
			lv, ok := lf(fr)
			if !ok {
				return false, false
			}
			rv, ok := rf(fr)
			if !ok {
				return false, false
			}
			return strings.EqualFold(lv, rv) == want, true
		}
	}
	return nil
}

// compileNum compiles a node whose runtime kind is statically numeric:
// a literal, or a registered numeric builtin applied to variables. Returns
// nil for any other shape.
func compileNum(e Expr, slot map[string]int) numFn {
	switch n := e.(type) {
	case *NumLit:
		v := n.V
		return func(*Frame) (float64, bool) { return v, true }
	case *CallExpr:
		if fn, ok := instNum1[n.Name]; ok && len(n.Args) == 1 {
			i, ok := VarSlot(n.Args[0], slot)
			if !ok {
				return nil
			}
			return func(fr *Frame) (float64, bool) {
				in := fr.slots[i]
				if in == nil {
					return 0, false
				}
				return fn(&fr.ctx, in), true
			}
		}
		if fn, ok := instNum2[n.Name]; ok && len(n.Args) == 2 {
			i, iok := VarSlot(n.Args[0], slot)
			j, jok := VarSlot(n.Args[1], slot)
			if !iok || !jok {
				return nil
			}
			return func(fr *Frame) (float64, bool) {
				a, b := fr.slots[i], fr.slots[j]
				if a == nil || b == nil {
					return 0, false
				}
				return fn(&fr.ctx, a, b), true
			}
		}
	}
	return nil
}

// compileStr compiles a node whose runtime kind is statically a string.
func compileStr(e Expr, slot map[string]int) strFn {
	switch n := e.(type) {
	case *StrLit:
		v := n.V
		return func(*Frame) (string, bool) { return v, true }
	case *CallExpr:
		if fn, ok := instStr1[n.Name]; ok && len(n.Args) == 1 {
			i, ok := VarSlot(n.Args[0], slot)
			if !ok {
				return nil
			}
			return func(fr *Frame) (string, bool) {
				in := fr.slots[i]
				if in == nil {
					return "", false
				}
				return fn(&fr.ctx, in), true
			}
		}
	}
	return nil
}

// compileCallBool specializes boolean builtin calls over variables — the
// shape of every spatial/cover/text predicate in practice — plus the
// literal-argument text matchers and near. Returns nil when the call does
// not fit (the boxed call node then takes over).
func compileCallBool(n *CallExpr, slot map[string]int) boolFn {
	if fn := compileTextMatchBool(n, slot); fn != nil {
		return fn
	}
	if fn, ok := instBool1[n.Name]; ok && len(n.Args) == 1 {
		i, ok := VarSlot(n.Args[0], slot)
		if !ok {
			return nil
		}
		return func(fr *Frame) (bool, bool) {
			in := fr.slots[i]
			if in == nil {
				return false, false
			}
			return fn(&fr.ctx, in), true
		}
	}
	if fn, ok := instBool2[n.Name]; ok && len(n.Args) == 2 {
		i, iok := VarSlot(n.Args[0], slot)
		j, jok := VarSlot(n.Args[1], slot)
		if !iok || !jok {
			return nil
		}
		return func(fr *Frame) (bool, bool) {
			a, b := fr.slots[i], fr.slots[j]
			if a == nil || b == nil {
				return false, false
			}
			return fn(&fr.ctx, a, b), true
		}
	}
	if n.Name == "near" && len(n.Args) == 3 {
		i, iok := VarSlot(n.Args[0], slot)
		j, jok := VarSlot(n.Args[1], slot)
		r, rok := n.Args[2].(*NumLit)
		if !iok || !jok || !rok {
			return nil
		}
		radius := r.V
		return func(fr *Frame) (bool, bool) {
			a, b := fr.slots[i], fr.slots[j]
			if a == nil || b == nil {
				return false, false
			}
			return a.Pos.Distance(b.Pos) <= radius, true
		}
	}
	return nil
}

// compileTextMatchBool is compileTextMatch on the unboxed path: textis and
// contains with a variable subject and literal patterns, the literals
// normalized at compile time.
func compileTextMatchBool(n *CallExpr, slot map[string]int) boolFn {
	var pred func(text, lit string) bool
	switch n.Name {
	case "textis":
		pred = func(text, lit string) bool { return text == lit }
	case "contains":
		pred = strings.Contains
	default:
		return nil
	}
	if len(n.Args) < 2 {
		return nil
	}
	if _, ok := n.Args[0].(*VarExpr); !ok {
		return nil
	}
	i, ok := VarSlot(n.Args[0], slot)
	if !ok {
		// An unbound variable always errors on the boxed path.
		return func(*Frame) (bool, bool) { return false, false }
	}
	lits := make([]string, 0, len(n.Args)-1)
	for _, a := range n.Args[1:] {
		s, ok := a.(*StrLit)
		if !ok {
			return nil
		}
		lits = append(lits, normText(s.V))
	}
	return func(fr *Frame) (bool, bool) {
		in := fr.slots[i]
		if in == nil {
			return false, false
		}
		text := in.NormText()
		for _, lit := range lits {
			if pred(text, lit) {
				return true, true
			}
		}
		return false, true
	}
}

// VarSlot resolves e as a variable bound in the slot map, returning its
// slot index.
func VarSlot(e Expr, slot map[string]int) (int, bool) {
	v, ok := e.(*VarExpr)
	if !ok {
		return 0, false
	}
	i, ok := slot[v.Name]
	return i, ok
}

// ---- Conjunct decomposition --------------------------------------------

// compileConjuncts splits e's top-level ∧-chain and compiles each factor.
// A constraint with fewer than two factors yields nil — the parser then
// evaluates the whole compiled expression as before.
func compileConjuncts(e Expr, slot map[string]int) []CompiledConjunct {
	factors := FlattenAnd(e, nil)
	if len(factors) < 2 {
		return nil
	}
	out := make([]CompiledConjunct, len(factors))
	for i, f := range factors {
		out[i] = CompiledConjunct{
			Expr:    CompileExpr(f, slot),
			Src:     f,
			Cost:    staticCost(f),
			MaxSlot: maxSlotOf(f, slot),
		}
	}
	return out
}

// maxSlotOf returns the highest slot any of e's variables resolves to, or 0
// when none does (a constant factor, or one over unknown variables — which
// evaluates to false everywhere and should reject as early as possible).
func maxSlotOf(e Expr, slot map[string]int) int {
	max := 0
	for _, v := range e.Vars() {
		if s, ok := slot[v]; ok && s > max {
			max = s
		}
	}
	return max
}

// FlattenAnd appends the top-level ∧-factors of e to out, in syntax order.
func FlattenAnd(e Expr, out []Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		return FlattenAnd(a.R, FlattenAnd(a.L, out))
	}
	if e == nil {
		return out
	}
	return append(out, e)
}

// builtinCost ranks builtins by how much work one evaluation does: pure
// rectangle geometry is a handful of compares; cover predicates loop over
// bitset words; subtree walks visit every node; text predicates join and
// scan the yield (memoized per instance, but the first evaluation pays).
// Unlisted builtins get costMid. The values only need to order conjuncts
// sensibly: within one join slot the parser evaluates the cheapest first.
const (
	costGeom = 1
	costMid  = 3
	costText = 8
)

var builtinCost = map[string]int{
	// Rectangle geometry over Pos.
	"left": costGeom, "right": costGeom, "above": costGeom, "below": costGeom,
	"alignedleft": costGeom, "alignedtop": costGeom, "alignedmiddle": costGeom,
	"samerow": costGeom, "samecol": costGeom, "hgap": costGeom, "vgap": costGeom,
	"distance": costGeom, "width": costGeom, "height": costGeom, "near": costGeom,
	// Cover-word loops and subtree walks.
	"overlap": 2, "subsumes": 2,
	"count": costMid, "size": costMid, "compdist": costMid, "rowish": costMid,
	"optioncount": costMid, "checked": costMid, "multiple": costMid,
	// Yield-text scans.
	"sval": costText, "textlen": costText, "wordcount": costText,
	"attrlike": costText, "oplike": costText, "caplike": costText,
	"endscolon": costText, "oplist": costText, "dateish": costText,
	"numlist": costText, "samename": costText, "labelfor": costText,
	"textis": costText, "contains": costText,
}

// staticCost estimates the evaluation cost of one expression: one unit per
// node plus the builtin table's cost per call.
func staticCost(e Expr) int {
	switch n := e.(type) {
	case nil:
		return 0
	case *NotExpr:
		return 1 + staticCost(n.X)
	case *AndExpr:
		return 1 + staticCost(n.L) + staticCost(n.R)
	case *OrExpr:
		return 1 + staticCost(n.L) + staticCost(n.R)
	case *CmpExpr:
		return 1 + staticCost(n.L) + staticCost(n.R)
	case *CallExpr:
		c := costMid
		if bc, ok := builtinCost[n.Name]; ok {
			c = bc
		}
		for _, a := range n.Args {
			c += staticCost(a)
		}
		return c
	}
	return 1
}
