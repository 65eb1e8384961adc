// Package merger implements the back-end of the form extractor (Section
// 3.4): it combines the multiple partial parse trees the best-effort parser
// outputs, compiles the semantic model (the union of extracted query
// conditions), and reports the two error classes the paper defines —
// conflicts (a token claimed by several conditions, like the
// passengers/adults selection list of interface Qaa) and missing elements
// (tokens no parse tree covers).
package merger

import (
	"slices"
	"strings"
	"sync"

	"formext/internal/bitset"
	"formext/internal/core"
	"formext/internal/grammar"
	"formext/internal/model"
	"formext/internal/obs"
	"formext/internal/token"
)

// Merger compiles semantic models from parse results, guided by the
// grammar's role tagging.
type Merger struct {
	g *grammar.Grammar
}

// New returns a merger for the grammar whose roles tag the parse trees.
func New(g *grammar.Grammar) *Merger { return &Merger{g: g} }

// mergeScratch holds the transient state of one merge: collection slices,
// the coverage set, the dedup map, and the conflict owner table. Everything
// here is either copied out or dead by the time MergeSpan returns, so the
// scratch is pooled across merges (the merger itself is shared between
// goroutines and holds no per-call state). Anything a produced Condition
// retains — token ID slices, operator lists, cloned domain values — is
// allocated fresh, never from here.
type mergeScratch struct {
	conds     []model.Condition
	attrParts []string
	freeTexts []string
	widgets   []*token.Token
	covered   bitset.Set
	keyBuf    []byte
	owner     []int
	seen      map[string]int
}

var scratchPool = sync.Pool{New: func() any {
	return &mergeScratch{seen: make(map[string]int)}
}}

// Merge combines the maximal parse trees into the semantic model.
func (m *Merger) Merge(res *core.Result) *model.SemanticModel {
	return m.MergeSpan(res, nil)
}

// MergeSpan merges, recording the merge report on sp when non-nil: the
// condition/conflict/missing counts as attributes and one structured event
// per conflict (which token, which conditions) and per missing element.
// These events are the merger's per-request error report — the two failure
// classes Section 3.4 tells clients to handle — so a trace shows not just
// that a merge lost tokens but which ones.
func (m *Merger) MergeSpan(res *core.Result, sp *obs.Span) *model.SemanticModel {
	sm := &model.SemanticModel{}
	n := len(res.Tokens)
	sc := scratchPool.Get().(*mergeScratch)
	defer scratchPool.Put(sc)
	sc.covered.Reset(n)

	// Coverage counts what the semantic reading accounts for: tokens inside
	// extracted conditions or inside decoration constructs (captions,
	// action rows). A token grouped only into a semantics-free fragment —
	// say a selection list absorbed by a value construct that never found
	// an attribute — is still missing from the model and reported as such.
	sc.conds = sc.conds[:0]
	for _, tree := range res.Maximal {
		m.conditionsOf(tree, sc)
		m.coverInto(tree, sc.covered)
	}

	// Union with deduplication: conditions over the same token set are the
	// same condition extracted from overlapping partial trees.
	clear(sc.seen)
	for _, c := range sc.conds {
		sc.keyBuf = appendTokenKey(sc.keyBuf[:0], c.TokenIDs)
		if _, dup := sc.seen[string(sc.keyBuf)]; dup {
			continue
		}
		sc.seen[string(sc.keyBuf)] = len(sm.Conditions)
		sm.Conditions = append(sm.Conditions, c)
	}
	slices.SortStableFunc(sm.Conditions, func(a, b model.Condition) int {
		return firstToken(a) - firstToken(b)
	})

	// Conflicts: a token claimed by two different conditions.
	if cap(sc.owner) < n {
		sc.owner = make([]int, n)
	}
	owner := sc.owner[:n]
	for i := range owner {
		owner[i] = -1
	}
	for ci, c := range sm.Conditions {
		for _, t := range c.TokenIDs {
			if prev := owner[t]; prev >= 0 && prev != ci {
				sm.Conflicts = append(sm.Conflicts, model.Conflict{TokenID: t, Conditions: [2]int{prev, ci}})
			} else {
				owner[t] = ci
			}
		}
	}

	// Missing elements: tokens not covered by any parse tree. Pure
	// decorations (rules) are not reported.
	for _, t := range res.Tokens {
		if sc.covered.Has(t.ID) || t.Type == token.Rule {
			continue
		}
		sm.Missing = append(sm.Missing, t.ID)
	}

	if sp != nil {
		sp.SetInt("trees", int64(len(res.Maximal)))
		sp.SetInt("conditions", int64(len(sm.Conditions)))
		sp.SetInt("conflicts", int64(len(sm.Conflicts)))
		sp.SetInt("missing", int64(len(sm.Missing)))
		for _, k := range sm.Conflicts {
			sp.Event("conflict", obs.Int("token", int64(k.TokenID)),
				obs.Int("condA", int64(k.Conditions[0])),
				obs.Int("condB", int64(k.Conditions[1])))
		}
		for _, id := range sm.Missing {
			sp.Event("missing", obs.Int("token", int64(id)))
		}
	}
	return sm
}

// conditionsOf extracts the conditions of one parse tree: the outermost
// condition-role nodes, each compiled into a [attribute; operators; domain]
// tuple. Direct recursion, not Instance.Walk — the merge runs on every
// extraction and the closure-per-tree pattern was its dominant allocator.
func (m *Merger) conditionsOf(in *grammar.Instance, sc *mergeScratch) {
	if m.g.RoleOf(in.Sym) == grammar.RoleCondition {
		sc.conds = append(sc.conds, m.compile(in, sc))
		return // do not extract nested condition readings
	}
	for _, ch := range in.Children {
		m.conditionsOf(ch, sc)
	}
}

// coverInto unions the covers of the outermost condition- and
// decoration-role nodes into the coverage set.
func (m *Merger) coverInto(in *grammar.Instance, covered bitset.Set) {
	switch m.g.RoleOf(in.Sym) {
	case grammar.RoleCondition, grammar.RoleDecoration:
		covered.UnionWith(in.Cover)
		return
	}
	for _, ch := range in.Children {
		m.coverInto(ch, covered)
	}
}

// compile turns one condition subtree into a Condition using the role tags:
// attribute text from attribute-role subtrees, operators from operator-role
// subtrees, and the domain from the remaining widgets. The collection
// slices live in the scratch; everything the Condition keeps is copied out.
func (m *Merger) compile(cond *grammar.Instance, sc *mergeScratch) model.Condition {
	var c model.Condition
	sc.attrParts = sc.attrParts[:0]
	sc.freeTexts = sc.freeTexts[:0]
	sc.widgets = sc.widgets[:0]
	m.compileWalk(cond, &c, sc)

	c.Attribute = strings.Join(sc.attrParts, " ")
	c.TokenIDs = cond.Cover.Members()
	for _, w := range sc.widgets {
		if w.Name != "" {
			c.Fields = append(c.Fields, w.Name)
		}
	}
	c.Domain = inferDomain(sc.widgets, sc.freeTexts)
	c.SubmitValues = submitValuesFor(sc.widgets, c.Domain)
	if c.Attribute == "" {
		// Conditions without an attribute-role subtree (e.g. a single
		// checkbox) are named by their own label texts.
		c.Attribute = strings.Join(sc.freeTexts, " ")
	}
	return c
}

func (m *Merger) compileWalk(in *grammar.Instance, c *model.Condition, sc *mergeScratch) {
	switch m.g.RoleOf(in.Sym) {
	case grammar.RoleAttribute:
		// Text, not Texts: the memoized yield is usually already computed by
		// the parser's constraint evaluations, so this re-joins nothing.
		if s := in.Text(); s != "" {
			sc.attrParts = append(sc.attrParts, s)
		}
		return
	case grammar.RoleOperator:
		operatorsInto(in, c)
		return
	}
	if in.Token != nil {
		switch {
		case in.Token.Type == token.Text:
			sc.freeTexts = append(sc.freeTexts, in.Token.SVal)
		case in.Token.IsWidget():
			sc.widgets = append(sc.widgets, in.Token)
		}
		return
	}
	for _, ch := range in.Children {
		m.compileWalk(ch, c, sc)
	}
}

// operatorsInto appends the operator choices of an operator-role subtree —
// the individual text labels (radio operators) or the options of an
// operator selection list — to the condition, together with the control
// name (first found wins) and the wire values that select each operator.
func operatorsInto(op *grammar.Instance, c *model.Condition) {
	if t := op.Token; t != nil {
		switch t.Type {
		case token.Text:
			c.Operators = append(c.Operators, t.SVal)
		case token.RadioButton, token.Checkbox:
			if c.OperatorField == "" {
				c.OperatorField = t.Name
			}
			c.OperatorValues = append(c.OperatorValues, t.Value)
		case token.SelectList:
			c.Operators = append(c.Operators, t.Options...)
			if c.OperatorField == "" {
				c.OperatorField = t.Name
			}
			c.OperatorValues = append(c.OperatorValues, t.OptionValues...)
		}
		return
	}
	for _, ch := range op.Children {
		operatorsInto(ch, c)
	}
}

// submitValuesFor maps an enum domain's display values to the wire values
// the form transmits: option values for selects, the value attributes for
// radio/checkbox groups.
func submitValuesFor(widgets []*token.Token, d model.Domain) []string {
	if d.Kind != model.EnumDomain {
		return nil
	}
	var out []string
	for _, w := range widgets {
		switch w.Type {
		case token.SelectList:
			out = append(out, w.OptionValues...)
		case token.RadioButton, token.Checkbox:
			out = append(out, w.Value)
		}
	}
	if len(out) != len(d.Values) {
		// Labels and widgets failed to line up; submission metadata is
		// best-effort and absent beats wrong.
		return nil
	}
	return out
}

// inferDomain derives the domain of a condition from the widgets that make
// up its value region (attribute and operator subtrees already excluded).
func inferDomain(widgets []*token.Token, freeTexts []string) model.Domain {
	var entry, selects, radios, checks int
	var opts []string
	multiple := false
	for _, w := range widgets {
		switch w.Type {
		case token.Textbox, token.Password, token.Textarea, token.FileBox:
			entry++
		case token.SelectList:
			selects++
			opts = append(opts, w.Options...)
			if w.Multiple {
				multiple = true
			}
		case token.RadioButton:
			radios++
		case token.Checkbox:
			checks++
		}
	}
	switch {
	case radios > 0 || checks > 1:
		// Enumeration over labelled buttons; values are the label texts.
		// freeTexts is merge scratch, so the retained values are copied out
		// (nil stays nil: an empty domain has no values slice).
		if radios+checks == 1 {
			return model.Domain{Kind: model.BoolDomain}
		}
		var vals []string
		if len(freeTexts) > 0 {
			vals = slices.Clone(freeTexts)
		}
		return model.Domain{Kind: model.EnumDomain, Values: vals, Multiple: checks > 0}
	case checks == 1:
		return model.Domain{Kind: model.BoolDomain}
	case entry >= 2:
		return model.Domain{Kind: model.RangeDomain}
	case entry == 1 && selects == 0:
		return model.Domain{Kind: model.TextDomain}
	case entry == 1 && selects >= 1:
		// Mixed entry/select pairs appear in ranges ("from [select] to
		// [box]").
		return model.Domain{Kind: model.RangeDomain}
	case selects >= 2:
		// Explicit from/to marks say range even when the options would
		// pass the date test (year-only lists).
		if hasRangeMarks(freeTexts) {
			return model.Domain{Kind: model.RangeDomain}
		}
		if allDateish(widgets) {
			return model.Domain{Kind: model.DateDomain}
		}
		return model.Domain{Kind: model.EnumDomain, Values: opts, Multiple: multiple}
	case selects == 1:
		return model.Domain{Kind: model.EnumDomain, Values: opts, Multiple: multiple}
	default:
		return model.Domain{Kind: model.TextDomain}
	}
}

// allDateish reports whether every selection list among the widgets looks
// like a date part.
func allDateish(widgets []*token.Token) bool {
	any := false
	for _, w := range widgets {
		if w.Type != token.SelectList {
			continue
		}
		any = true
		if !grammar.Dateish(w) {
			return false
		}
	}
	return any
}

func hasRangeMarks(texts []string) bool {
	from, to := false, false
	for _, t := range texts {
		switch model.NormalizeLabel(t) {
		case "from", "between", "min", "minimum", "low", "start", "at least":
			from = true
		case "to", "and", "max", "maximum", "high", "end", "until", "at most":
			to = true
		}
	}
	return from && to
}

// appendTokenKey renders the dedup key of a token ID set into dst. Keys are
// looked up via string(buf) map indexing, which the compiler keeps
// allocation-free; only first-seen keys are materialized as strings.
func appendTokenKey(dst []byte, ids []int) []byte {
	for _, id := range ids {
		dst = append(dst, ',')
		dst = appendItoa(dst, id)
	}
	return dst
}

func appendItoa(dst []byte, v int) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, buf[i:]...)
}

func firstToken(c model.Condition) int {
	if len(c.TokenIDs) == 0 {
		return 1 << 30
	}
	return c.TokenIDs[0]
}
