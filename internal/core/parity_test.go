package core_test

// Differential testing of the two evaluation modes: the compiled
// per-grammar plan (the default) against the interpreted Expr walker (the
// semantic reference). Every parser configuration must produce
// byte-identical results — same instances, same covers, same maximal
// trees, same statistics — on the example corpus and on fuzz-generated
// token sets.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"formext"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// parityPages tokenizes the named example pages through the real pipeline
// front half.
func parityPages(tb testing.TB, pages ...string) [][]*token.Token {
	tb.Helper()
	ex, err := formext.New()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]*token.Token
	for _, p := range pages {
		toks := ex.Tokenize(p)
		if len(toks) == 0 {
			tb.Fatal("page tokenized to nothing")
		}
		out = append(out, toks)
	}
	return out
}

// fuzzTokens generates a deterministic pseudo-random token set: form-ish
// vocabulary over a loose grid, with enough type and geometry variety to
// reach every terminal the default grammar mentions.
func fuzzTokens(rng *rand.Rand, n int) []*token.Token {
	words := []string{
		"Author", "Title", "Last Name", "Exact name", "keywords",
		"Select a month", "Departure Date", "City", "zip code",
		"between", "and", "of", "contains", "starts with",
	}
	months := []string{"January", "February", "March", "April"}
	ops := []string{"contains", "starts with", "exact phrase"}
	toks := make([]*token.Token, n)
	x, y := 10.0, 10.0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			x, y = 10+float64(rng.Intn(30)), y+20+float64(rng.Intn(25))
		}
		w := 20 + float64(rng.Intn(140))
		pos := geom.R(x, x+w, y, y+12+float64(rng.Intn(10)))
		x += w + 4 + float64(rng.Intn(12))
		tk := &token.Token{ID: i, Pos: pos}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			tk.Type = token.Text
			tk.SVal = words[rng.Intn(len(words))]
			if rng.Intn(6) == 0 {
				tk.ForID = fmt.Sprintf("fld-%d", rng.Intn(n))
			}
		case 4, 5:
			tk.Type = token.Textbox
			tk.Name = fmt.Sprintf("q%d", i)
			if rng.Intn(4) == 0 {
				tk.ElemID = fmt.Sprintf("fld-%d", i)
			}
		case 6, 7:
			tk.Type = token.RadioButton
			tk.Name = fmt.Sprintf("grp-%d", rng.Intn(3))
			tk.Value = fmt.Sprintf("v%d", i)
		case 8:
			tk.Type = token.SelectList
			tk.Name = fmt.Sprintf("sel-%d", i)
			if rng.Intn(2) == 0 {
				tk.Options = months
			} else {
				tk.Options = ops
			}
		default:
			tk.Type = token.Checkbox
			tk.Name = fmt.Sprintf("cb-%d", i)
		}
		toks[i] = tk
	}
	return toks
}

// renderResult flattens everything parity must preserve into one string:
// per-instance identity (ID, symbol, production, children, cover, pos) for
// every alive instance, the maximal tree IDs, and the statistics with the
// wall clock zeroed.
func renderResult(res *core.AliveResult) string {
	var sb strings.Builder
	for _, in := range res.Alive {
		prod := ""
		if in.Prod != nil {
			prod = in.Prod.Name
		}
		fmt.Fprintf(&sb, "inst %d %s prod=%q cover=%v pos=%v kids=[", in.ID, in.Sym, prod, in.Cover.Members(), in.Pos)
		for i, c := range in.Children {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", c.ID)
		}
		sb.WriteString("]\n")
	}
	sb.WriteString("maximal [")
	for i, m := range res.Maximal {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", m.ID)
	}
	sb.WriteString("]\n")
	st := res.Stats
	st.Duration = 0
	fmt.Fprintf(&sb, "stats %+v\n", st)
	return sb.String()
}

// TestCompiledParity is the differential gate: for every parser
// configuration and every input, Options{} and Options{Interpreted: true}
// must agree exactly.
func TestCompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fuzz := make([][]*token.Token, 0, 12)
	for i := 0; i < 12; i++ {
		fuzz = append(fuzz, fuzzTokens(rng, 6+rng.Intn(19)))
	}
	full := append(parityPages(t, dataset.QamHTML, dataset.QaaHTML, dataset.Basic()[0].HTML, dataset.Basic()[5].HTML), fuzz...)
	// The ablation configurations blow up instance counts (that is what
	// they ablate), so they run over the Figure 5 fragment plus the smaller
	// fuzz sets, under an instance cap both modes must hit identically.
	small := parityPages(t, dataset.Figure5Fragment)
	for _, toks := range fuzz {
		if len(toks) <= 14 {
			small = append(small, toks)
		}
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
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			compiledOpt := cfg.opt
			interpOpt := cfg.opt
			interpOpt.Interpreted = true
			pc, err := core.NewParser(g, compiledOpt)
			if err != nil {
				t.Fatal(err)
			}
			pi, err := core.NewParser(g, interpOpt)
			if err != nil {
				t.Fatal(err)
			}
			for ti, toks := range cfg.corpus {
				rc, err := pc.ParseAlive(toks)
				if err != nil {
					t.Fatalf("input %d: compiled: %v", ti, err)
				}
				ri, err := pi.ParseAlive(toks)
				if err != nil {
					t.Fatalf("input %d: interpreted: %v", ti, err)
				}
				// Terminals never die, so every token leaves an alive
				// instance to compare; an empty list would make the
				// comparison vacuous.
				if len(rc.Alive) < len(toks) {
					t.Fatalf("input %d: %d alive instances for %d tokens", ti, len(rc.Alive), len(toks))
				}
				got, want := renderResult(rc), renderResult(ri)
				if got != want {
					t.Fatalf("input %d (%d tokens): compiled and interpreted results diverge\ncompiled:\n%s\ninterpreted:\n%s", ti, len(toks), got, want)
				}
			}
		})
	}
}
