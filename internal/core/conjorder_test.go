package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderParse is a deterministic rendering of everything a Result exposes
// (instances, structure, maximal roots, stats minus wall time), used to
// compare parses bit for bit.
func renderParse(res *AliveResult) string {
	var sb strings.Builder
	for _, in := range res.Alive {
		prod := ""
		if in.Prod != nil {
			prod = in.Prod.Name
		}
		fmt.Fprintf(&sb, "inst %d %s prod=%q cover=%v kids=[", in.ID, in.Sym, prod, in.Cover.Members())
		for i, c := range in.Children {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", c.ID)
		}
		sb.WriteString("]\n")
	}
	for _, m := range res.Maximal {
		fmt.Fprintf(&sb, "max %d\n", m.ID)
	}
	st := res.Stats
	st.Duration = 0
	fmt.Fprintf(&sb, "stats %+v\n", st)
	return sb.String()
}

// TestConjunctOrderPermutationParity fuzzes the claim the fixed within-tier
// order rests on: within a tier, ∧-factors commute under EvalBool
// semantics, so ANY within-tier evaluation order must produce the
// identical parse — same instances, same trees, same stats (including
// ConstraintEvals: a tier is one counted event no matter which factor
// rejects). The test parses the corpus fragment under the seed schedule,
// then under randomly permuted within-tier orders, and demands identical
// renders. Cross-tier moves are NOT legal (an earlier tier would read
// unbound slots), so permutations stay inside tier boundaries — which the
// test also validates against each factor's MaxSlot.
func TestConjunctOrderPermutationParity(t *testing.T) {
	toks := qamFragmentTokens()
	baseline := ""
	{
		p := mustParser(t, figure6Grammar, Options{})
		res, err := p.ParseAlive(toks)
		if err != nil {
			t.Fatal(err)
		}
		baseline = renderParse(res)
	}
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 12; trial++ {
		p := mustParser(t, figure6Grammar, Options{})
		permuted := 0
		for i := range p.pl.prods {
			pp := &p.pl.prods[i]
			if pp.conj == nil {
				continue
			}
			co := &pp.order
			// Validate the tier structure before shuffling inside it.
			for s := 0; s+1 < len(co.tier); s++ {
				for _, ci := range co.ord[co.tier[s]:co.tier[s+1]] {
					if pp.conj[ci].MaxSlot != s {
						t.Fatalf("prod %s: factor %d in tier %d has MaxSlot %d",
							pp.p.Name, ci, s, pp.conj[ci].MaxSlot)
					}
				}
			}
			next := conjOrder{ord: append([]uint8(nil), co.ord...), tier: co.tier}
			for s := 0; s+1 < len(co.tier); s++ {
				seg := next.ord[co.tier[s]:co.tier[s+1]]
				rng.Shuffle(len(seg), func(a, b int) { seg[a], seg[b] = seg[b], seg[a] })
			}
			pp.order = next
			permuted++
		}
		if permuted == 0 {
			t.Fatal("grammar has no decomposed constraints; fixture inert")
		}
		res, err := p.ParseAlive(toks)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderParse(res); got != baseline {
			t.Fatalf("trial %d: permuted conjunct order changed the parse\nbaseline:\n%s\ngot:\n%s",
				trial, baseline, got)
		}
	}
}

// TestConjunctTiersMatchInterpreted cross-checks predicate pushdown between
// the two evaluation modes on the corpus fragment: identical instances AND
// identical ConstraintEvals, because both modes run the same tier schedule
// over the same join prefixes. (TestCompiledParity covers this over the
// full config matrix; this focused copy fails with a sharper message when
// only the tier plumbing regresses.)
func TestConjunctTiersMatchInterpreted(t *testing.T) {
	toks := qamFragmentTokens()
	var renders [2]string
	for i, interpreted := range []bool{false, true} {
		p := mustParser(t, figure6Grammar, Options{Interpreted: interpreted})
		res, err := p.ParseAlive(toks)
		if err != nil {
			t.Fatal(err)
		}
		renders[i] = renderParse(res)
	}
	if renders[0] != renders[1] {
		t.Fatalf("compiled and interpreted tier evaluation diverge\ncompiled:\n%s\ninterpreted:\n%s",
			renders[0], renders[1])
	}
}

// grammarWithUnaryConjunct ensures tier-0 factors (unary predicates on the
// first slot) reject before deeper slots enumerate: the production pairs a
// dateish-gated select with any select, and the fixture has no dateish
// text, so the parse must evaluate the tier-0 factor per candidate but the
// tier-1 factor never.
func TestTierZeroRejectsBeforeEnumeration(t *testing.T) {
	const src = `
terminals text, selectlist;
start D;
prod D1 D -> a:selectlist b:selectlist : dateish(a) && left(a, b);
`
	p := mustParser(t, src, Options{})
	toks := qamFragmentTokens()
	// Retype the textboxes as selectlists so D1 has candidates; none are
	// dateish, so tier 0 rejects every prefix.
	for _, tk := range toks {
		if tk.Type == "textbox" {
			tk.Type = "selectlist"
		}
	}
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Nonterminals(); got != 0 {
		t.Fatalf("dateish tier-0 factor must reject everything, got %d nonterminals", got)
	}
	// Two selectlist candidates => exactly two tier-0 evaluation events
	// (one per slot-0 candidate), not two squared: pushdown pruned the
	// inner loop.
	if res.Stats.ConstraintEvals != 2 {
		t.Fatalf("want 2 tier-0 constraint events (one per slot-0 candidate), got %d",
			res.Stats.ConstraintEvals)
	}
}
