package core_test

// Differential testing of the join windows. The reference is the same
// grammar with every constraint rewritten to (c) || false: the rewrite
// changes no verdict under EvalBool semantics, but a disjunction is not an
// adjacency factor, so the window planner leaves every slot of the
// reference to the full scan. Both parsers must then agree on everything
// renderResult shows except ConstraintEvals, which counts the evaluations
// the windows skip.

import (
	"math"
	"math/rand"
	"testing"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// windowGrammar exercises every window shape the default grammar lacks:
// below/right orientation, a windowed slot that is the relation's first
// operand (its window lies before its anchor), arity-3 productions with
// windows anchored on either earlier slot, and Chain, a windowed symbol
// that grows inside its own group (even inside its own production's join).
// S2's disjunction stays unwindowed.
const windowGrammar = `
terminals text, textbox, radiobutton, checkbox, selectlist;
start Top;
prod B1 Pair -> t:text b:textbox : below(b, t);
prod B2 Pair -> b:textbox t:text : right(t, b);
prod B3 Pair -> t:text b:textbox : right(t, b) && samerow(t, b);
prod B4 Pair -> b:textbox t:text : above(t, b);
prod B5 Pair -> s:selectlist t:text : left(t, s) && width(s) > 0;
prod C1 Chain -> p:Pair ;
prod C2 Chain -> a:Chain b:Chain : above(a, b);
prod C3 Chain -> a:Chain b:Chain : left(b, a);
prod T1 Tri -> a:text b:radiobutton c:checkbox : left(a, b) && below(c, b);
prod T2 Tri -> c:checkbox a:text b:radiobutton : left(b, c) && above(a, c);
prod T3 Tri -> a:text b:radiobutton c:checkbox : right(c, a) && below(b, a);
prod S1 Top -> c:Chain ;
prod S2 Top -> c:Chain t:Tri : left(c, t) || above(c, t);
prod S3 Top -> t:Tri ;
pref P1 w:Chain beats l:Pair when overlap(w, l) win count(w) > count(l);
tag condition Pair Tri;
`

// hideWindows returns g with every production constraint c rewritten to
// (c) || false.
func hideWindows(g *grammar.Grammar) *grammar.Grammar {
	h := grammar.NewGrammar()
	h.Start = g.Start
	for k, v := range g.Terminals {
		h.Terminals[k] = v
	}
	for k, v := range g.Nonterminals {
		h.Nonterminals[k] = v
	}
	for k, v := range g.Roles {
		h.Roles[k] = v
	}
	h.Prefs = g.Prefs
	for _, p := range g.Prods {
		q := *p
		if p.Constraint != nil {
			q.Constraint = &grammar.OrExpr{L: p.Constraint, R: &grammar.BoolLit{V: false}}
		}
		h.Prods = append(h.Prods, &q)
	}
	return h
}

// windowPair is a parser with join windows and its unwindowed reference.
type windowPair struct {
	win, ref *core.Parser
}

func newWindowPair(tb testing.TB, g *grammar.Grammar, opt core.Options) windowPair {
	tb.Helper()
	win, err := core.NewParser(g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := core.NewParser(hideWindows(g), opt)
	if err != nil {
		tb.Fatal(err)
	}
	return windowPair{win: win, ref: ref}
}

// check parses toks with both parsers and fails on any difference. It
// returns the two ConstraintEvals counts.
func (wp windowPair) check(tb testing.TB, label string, toks []*token.Token) (winEvals, refEvals int) {
	tb.Helper()
	rw, err := wp.win.ParseAlive(toks)
	if err != nil {
		tb.Fatalf("%s: windowed: %v", label, err)
	}
	rr, err := wp.ref.ParseAlive(toks)
	if err != nil {
		tb.Fatalf("%s: reference: %v", label, err)
	}
	winEvals, refEvals = rw.Stats.ConstraintEvals, rr.Stats.ConstraintEvals
	rw.Stats.ConstraintEvals, rr.Stats.ConstraintEvals = 0, 0
	if got, want := renderResult(rw), renderResult(rr); got != want {
		tb.Fatalf("%s (%d tokens): windowed and full-scan joins diverge\nwindowed:\n%s\nfull scan:\n%s", label, len(toks), got, want)
	}
	return winEvals, refEvals
}

// edgeTokens generates a token set whose geometry sits on the window
// boundaries: each box is placed relative to an earlier one exactly at
// AlignTol, MaxVGap or MaxHGap from its facing edge (on either side), or
// on a loose grid, and now and then a coordinate is NaN or ±Inf. Types
// and strings come from fuzzTokens, so the default grammar's terminals
// all appear.
func edgeTokens(rng *rand.Rand, n int, th geom.Thresholds) []*token.Token {
	toks := fuzzTokens(rng, n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, tk := range toks {
		w := 10 + float64(rng.Intn(120))
		h := 10 + float64(rng.Intn(14))
		x, y := float64(rng.Intn(600)), float64(rng.Intn(400))
		if i > 0 {
			a := toks[rng.Intn(i)].Pos
			x, y = a.X1, a.Y1
			switch rng.Intn(9) {
			case 0: // b.Y1 at a.Y2−AlignTol, a.Y2+AlignTol or a.Y2+MaxVGap
				y = a.Y2 + []float64{-th.AlignTol, th.AlignTol, th.MaxVGap}[rng.Intn(3)]
			case 1: // b.X1 at a.X2−AlignTol or a.X2+MaxHGap
				x = a.X2 + []float64{-th.AlignTol, th.MaxHGap}[rng.Intn(2)]
			case 2: // b.Y2 at a.Y1−MaxVGap or a.Y1+AlignTol
				y = a.Y1 + []float64{-th.MaxVGap, th.AlignTol}[rng.Intn(2)] - h
			case 3: // b.X2 at a.X1−MaxHGap or a.X1+AlignTol
				x = a.X1 + []float64{-th.MaxHGap, th.AlignTol}[rng.Intn(2)] - w
			case 4: // just outside the vertical window
				y = a.Y2 + th.MaxVGap + 0.5
			case 5: // same row, right after
				x, y = a.X2+4, a.Y1
			}
		}
		tk.Pos = geom.R(x, x+w, y, y+h)
		if rng.Intn(12) == 0 {
			v := specials[rng.Intn(len(specials))]
			switch rng.Intn(4) {
			case 0:
				tk.Pos.X1 = v
			case 1:
				tk.Pos.X2 = v
			case 2:
				tk.Pos.Y1 = v
			default:
				tk.Pos.Y2 = v
			}
		}
	}
	return toks
}

// windowThresholds are the threshold sets the edge layouts run under: the
// defaults, zero gaps, and a negative alignment tolerance.
var windowThresholds = []geom.Thresholds{
	geom.DefaultThresholds,
	{MaxHGap: 0, MaxVGap: 0, AlignTol: 0, MinOverlapFrac: 0.4},
	{MaxHGap: 90, MaxVGap: 20, AlignTol: -3, MinOverlapFrac: 0.2},
}

func mustDSL(tb testing.TB, src string) *grammar.Grammar {
	tb.Helper()
	g, err := grammar.ParseDSL(src)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestJoinWindowCorpus runs the window differential over real pages in
// all three TestCompiledParity configurations, in both evaluation modes,
// and requires the windows to have skipped evaluations somewhere (a
// vacuous window planner would pass the differential trivially).
func TestJoinWindowCorpus(t *testing.T) {
	full := parityPages(t, dataset.QamHTML, dataset.QaaHTML, dataset.Basic()[0].HTML, dataset.Basic()[5].HTML)
	for _, s := range dataset.NewSource()[:8] {
		full = append(full, parityPages(t, s.HTML)...)
	}
	small := parityPages(t, dataset.Figure5Fragment)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		small = append(small, fuzzTokens(rng, 6+rng.Intn(9)))
	}
	configs := []struct {
		name   string
		opt    core.Options
		corpus [][]*token.Token
	}{
		{"scheduled", core.Options{}, full},
		{"latePruning", core.Options{DisableScheduling: true, MaxInstances: 4000}, small},
		{"bruteForce", core.Options{DisablePreferences: true, MaxInstances: 20000}, small},
	}
	g := grammar.Default()
	for _, cfg := range configs {
		for _, interpreted := range []bool{false, true} {
			opt := cfg.opt
			opt.Interpreted = interpreted
			wp := newWindowPair(t, g, opt)
			saved := 0
			for i, toks := range cfg.corpus {
				we, re := wp.check(t, cfg.name, toks)
				if we > re {
					t.Errorf("%s input %d: windows evaluated more constraints (%d) than the full scan (%d)", cfg.name, i, we, re)
				}
				saved += re - we
			}
			if saved == 0 {
				t.Errorf("%s interpreted=%v: windows skipped no constraint evaluation", cfg.name, interpreted)
			}
		}
	}
}

// TestJoinWindowEdges runs the differential over boundary layouts — NaN,
// ±Inf and coordinates exactly on the window edges — under the default
// and custom thresholds, with the default grammar and windowGrammar.
func TestJoinWindowEdges(t *testing.T) {
	grammars := map[string]*grammar.Grammar{
		"default": grammar.Default(),
		"window":  mustDSL(t, windowGrammar),
	}
	rng := rand.New(rand.NewSource(11))
	for name, g := range grammars {
		for ti, th := range windowThresholds {
			for _, interpreted := range []bool{false, true} {
				wp := newWindowPair(t, g, core.Options{Thresholds: th, MaxInstances: 5000, Interpreted: interpreted})
				saved := 0
				for i := 0; i < 12; i++ {
					we, re := wp.check(t, name, edgeTokens(rng, 6+rng.Intn(16), th))
					saved += re - we
				}
				if ti == 0 && saved <= 0 {
					t.Errorf("%s interpreted=%v: windows skipped no constraint evaluation", name, interpreted)
				}
			}
		}
	}
}

// FuzzJoinWindow runs the window differential over fuzzer-chosen edge
// layouts, thresholds, grammars and evaluation modes.
func FuzzJoinWindow(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(8+seed), uint8(seed))
	}
	grammars := []*grammar.Grammar{grammar.Default(), mustDSL(f, windowGrammar)}
	pairs := map[uint8]windowPair{}
	f.Fuzz(func(t *testing.T, seed int64, n, mode uint8) {
		mode %= uint8(2 * 2 * len(windowThresholds))
		wp, ok := pairs[mode]
		if !ok {
			th := windowThresholds[int(mode)%len(windowThresholds)]
			g := grammars[int(mode)/len(windowThresholds)%2]
			interpreted := mode >= uint8(2*len(windowThresholds))
			wp = newWindowPair(t, g, core.Options{Thresholds: th, MaxInstances: 3000, Interpreted: interpreted})
			pairs[mode] = wp
		}
		th := windowThresholds[int(mode)%len(windowThresholds)]
		rng := rand.New(rand.NewSource(seed))
		wp.check(t, "fuzz", edgeTokens(rng, 1+int(n%24), th))
	})
}
