// Package induce derives a 2P grammar from annotated training interfaces,
// automating the manual grammar-derivation step ("we manually observe the
// 150 query interfaces in the dataset, and summarize 21 most commonly used
// patterns", Section 6) along the lines the paper's concluding discussion
// proposes ("it may be interesting to see how techniques such as machine
// learning can be explored to automate such grammar creation", Section 7).
//
// The inducer mirrors what the authors did by hand, mechanically: each
// ground-truth condition of a training source is located in the token set,
// its presentation is abstracted into a layout signature (label placement ×
// value composition), and every signature with enough support across
// sources is emitted as DSL productions — together with the structural core
// (rows, captions, action rows) and the standard precedence preferences for
// whichever symbols were induced.
package induce

import (
	"fmt"
	"sort"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/model"
	"formext/internal/token"
)

// Example is one training interface: its token set and hand labels.
type Example struct {
	Tokens []*token.Token
	Truth  []model.Condition
}

// Signature identifies one observed presentation convention: how the
// attribute label relates to the value region, and what the value region
// is made of.
type Signature struct {
	// Relation is "left", "above" or "below" (label vs value region), or
	// "none" for label-free patterns (single checkboxes).
	Relation string
	// Comp is the value composition: entry, select, multiselect,
	// radiolist, checklist, boolcb, dateparts, rangepair, selectrange,
	// entry-opselect, entry-radio-ops-below, entry-radio-ops-right.
	Comp string
}

func (s Signature) String() string { return s.Relation + "|" + s.Comp }

// Inducer derives grammars from examples.
type Inducer struct {
	// MinSupport is how many observations a signature needs before it is
	// encoded as productions (default 3 — rarities are noise).
	MinSupport int
	// Thresholds parameterizes the spatial tests used to read layouts.
	Thresholds geom.Thresholds
}

// NewInducer returns an inducer with default settings.
func NewInducer() *Inducer {
	return &Inducer{MinSupport: 3, Thresholds: geom.DefaultThresholds}
}

// Observe extracts the layout signatures of one example's conditions.
// Conditions whose tokens cannot be located, or whose label placement
// follows no adjacency convention, yield no signature — exactly the
// "uncaptured" residue a derived grammar cannot and should not encode.
func (in *Inducer) Observe(e Example) []Signature {
	var out []Signature
	for _, c := range e.Truth {
		if sig, ok := in.signatureOf(e, c); ok {
			out = append(out, sig)
		}
	}
	return out
}

// signatureOf locates one condition in the token set and abstracts it.
func (in *Inducer) signatureOf(e Example, c model.Condition) (Signature, bool) {
	widgets := widgetsOf(e.Tokens, c)
	if len(widgets) == 0 {
		return Signature{}, false
	}
	comp, ok := in.composition(e, c, widgets)
	if !ok {
		return Signature{}, false
	}
	if comp == "boolcb" {
		return Signature{Relation: "none", Comp: comp}, true
	}
	region := regionOf(widgets)
	label := in.labelOf(e, c, region)
	if label == nil {
		return Signature{}, false
	}
	th := in.Thresholds
	var rel string
	switch {
	case th.Left(label.Pos, region):
		rel = "left"
	case th.Above(label.Pos, region):
		rel = "above"
	case th.Below(label.Pos, region):
		rel = "below"
	default:
		return Signature{}, false // no adjacency convention to learn
	}
	return Signature{Relation: rel, Comp: comp}, true
}

// widgetsOf finds the widget tokens of a condition by control name.
func widgetsOf(toks []*token.Token, c model.Condition) []*token.Token {
	want := map[string]bool{}
	for _, f := range c.Fields {
		want[f] = true
	}
	var out []*token.Token
	for _, t := range toks {
		if t.IsWidget() && want[t.Name] {
			out = append(out, t)
		}
	}
	return out
}

// regionOf is the bounding box of the value widgets.
func regionOf(widgets []*token.Token) geom.Rect {
	var r geom.Rect
	for _, w := range widgets {
		r = r.Union(w.Pos)
	}
	return r
}

// labelOf finds the text token carrying the condition's attribute, nearest
// to the value region.
func (in *Inducer) labelOf(e Example, c model.Condition, region geom.Rect) *token.Token {
	want := model.NormalizeLabel(c.Attribute)
	if want == "" {
		return nil
	}
	var best *token.Token
	bestD := 1e18
	for _, t := range e.Tokens {
		if t.Type != token.Text || model.NormalizeLabel(t.SVal) != want {
			continue
		}
		if d := t.Pos.Distance(region); d < bestD {
			bestD = d
			best = t
		}
	}
	return best
}

// composition classifies the value region.
func (in *Inducer) composition(e Example, c model.Condition, widgets []*token.Token) (string, bool) {
	var entries, selects, radios, checks int
	var selectToks []*token.Token
	for _, w := range widgets {
		switch w.Type {
		case token.Textbox, token.Password, token.Textarea, token.FileBox:
			entries++
		case token.SelectList:
			selects++
			selectToks = append(selectToks, w)
		case token.RadioButton:
			radios++
		case token.Checkbox:
			checks++
		}
	}
	switch {
	case radios > 0 && entries > 0:
		// Text condition with radio operators: which side do they sit on?
		entry, ops := splitEntryOps(widgets)
		if entry == nil || ops.Empty() {
			return "", false
		}
		if in.Thresholds.Below(ops, entry.Pos) {
			return "entry-radio-ops-below", true
		}
		if in.Thresholds.Left(entry.Pos, ops) || in.Thresholds.SameRow(entry.Pos, ops) {
			return "entry-radio-ops-right", true
		}
		return "", false
	case radios > 0:
		return "radiolist", true
	case checks == 1:
		return "boolcb", true
	case checks > 1:
		return "checklist", true
	case entries >= 2:
		return "rangepair", true
	case entries == 1 && selects == 1 && len(c.Operators) > 0:
		return "entry-opselect", true
	case entries == 1 && selects >= 1:
		return "rangepair", true // mixed entry/select range
	case entries == 1:
		return "entry", true
	case selects >= 2 && c.Domain.Kind == model.RangeDomain:
		// The label says range; year-only option lists would otherwise
		// pass the dateish test below.
		return "selectrange", true
	case selects >= 2 && allDateish(selectToks):
		return "dateparts", true
	case selects >= 2:
		return "multiselect", true
	case selects == 1:
		return "select", true
	}
	return "", false
}

// splitEntryOps separates a mixed widget group into the entry box and the
// bounding box of the radio operators.
func splitEntryOps(widgets []*token.Token) (*token.Token, geom.Rect) {
	var entry *token.Token
	var ops geom.Rect
	for _, w := range widgets {
		switch w.Type {
		case token.Textbox, token.Password, token.Textarea:
			entry = w
		case token.RadioButton:
			ops = ops.Union(w.Pos)
		}
	}
	return entry, ops
}

func allDateish(selects []*token.Token) bool {
	if len(selects) == 0 {
		return false
	}
	for _, s := range selects {
		if !grammar.Dateish(s) {
			return false
		}
	}
	return true
}

// Counts tallies signatures across a training set.
func (in *Inducer) Counts(examples []Example) map[Signature]int {
	counts := map[Signature]int{}
	for _, e := range examples {
		for _, s := range in.Observe(e) {
			counts[s]++
		}
	}
	return counts
}

// Induce derives a grammar from the training set. It returns the parsed
// grammar, its DSL source (for inspection or persistence), and the
// signature counts the derivation is based on.
func (in *Inducer) Induce(examples []Example) (*grammar.Grammar, string, map[Signature]int, error) {
	counts := in.Counts(examples)
	var kept []Signature
	for s, n := range counts {
		if n >= in.MinSupport {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if counts[kept[i]] != counts[kept[j]] {
			return counts[kept[i]] > counts[kept[j]]
		}
		return kept[i].String() < kept[j].String()
	})
	src := emit(kept)
	g, err := grammar.ParseDSL(src)
	if err != nil {
		return nil, src, counts, fmt.Errorf("induce: emitted grammar invalid: %w", err)
	}
	return g, src, counts, nil
}
