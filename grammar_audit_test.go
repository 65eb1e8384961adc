package formext

import (
	"flag"
	"strings"
	"testing"

	"formext/internal/grammar"
)

var auditGrammar = flag.Bool("audit", false, "run the default grammar's leave-one-out audit (make grammar-audit)")

// auditNeededByTests names the rules the model golden's corpus never
// exercises but a named test needs: deleting one fails that test.
var auditNeededByTests = map[string]string{
	"T4": "TestLabelForAssociation",
	"L7": "TestLabelForSelectList",
}

// TestGrammarAudit removes each rule of the default grammar in turn,
// extracts the model golden's corpus with the rest, and prints one row per
// rule. A rule earns its place if removing it changes any page's model
// digest, raises the corpus's instances, constraint evaluations or
// degradations, or leaves the grammar invalid; if it is the only
// production consuming a terminal the tokenizer emits; or if a named test
// needs it (auditNeededByTests). The test fails on any rule that earns
// nothing. It runs only with -audit: one pass over the corpus per rule.
func TestGrammarAudit(t *testing.T) {
	if !*auditGrammar {
		t.Skip("run with -audit (make grammar-audit)")
	}
	src := grammar.DefaultSource()
	g := grammar.Default()
	pages := modelCorpus()
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	base, baseCost := modelSignatures(t, ex, pages)

	consumers := map[string]int{}
	for _, p := range g.Prods {
		for _, c := range p.Components {
			if g.IsTerminal(c.Sym) {
				consumers[c.Sym]++
			}
		}
	}
	var rules []string
	soleConsumer := map[string]string{}
	for _, p := range g.Prods {
		rules = append(rules, p.Name)
		for _, c := range p.Components {
			if g.IsTerminal(c.Sym) && consumers[c.Sym] == 1 {
				soleConsumer[p.Name] = c.Sym
			}
		}
	}
	for _, r := range g.Prefs {
		rules = append(rules, r.Name)
	}

	t.Logf("%d productions, %d preferences; baseline over %d pages: %d instances, %d constraint evals, %d degradations",
		len(g.Prods), len(g.Prefs), len(pages), baseCost.Instances, baseCost.ConstraintEvals, baseCost.Degraded)
	t.Logf("%-5s %8s %11s %11s %9s  %s", "rule", "changed", "Δinstances", "Δevals", "Δdegraded", "verdict")
	for _, name := range rules {
		reduced, err := New(Options{GrammarSource: withoutRule(t, src, name)})
		if err != nil {
			t.Logf("%-5s %8s %11s %11s %9s  keep: invalid grammar", name, "-", "-", "-", "-")
			continue
		}
		sigs, cost := modelSignatures(t, reduced, pages)
		changed := 0
		for p, d := range sigs {
			if d != base[p] {
				changed++
			}
		}
		dInst := cost.Instances - baseCost.Instances
		dEvals := cost.ConstraintEvals - baseCost.ConstraintEvals
		dDeg := cost.Degraded - baseCost.Degraded
		var verdict string
		switch {
		case changed > 0:
			verdict = "keep: models change"
		case dInst > 0 || dEvals > 0 || dDeg > 0:
			verdict = "keep: raises cost"
		case soleConsumer[name] != "":
			verdict = "keep: only consumer of " + soleConsumer[name]
		case auditNeededByTests[name] != "":
			verdict = "keep: needed by " + auditNeededByTests[name]
		default:
			verdict = "REMOVABLE"
			t.Errorf("%s changes no model and raises no cost: delete it", name)
		}
		t.Logf("%-5s %8d %+11d %+11d %+9d  %s", name, changed, dInst, dEvals, dDeg, verdict)
	}
}

// withoutRule returns the DSL source with the statement defining the named
// production or preference deleted.
func withoutRule(t *testing.T, src, name string) string {
	lines := strings.SplitAfter(src, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "prod "+name+" ") && !strings.HasPrefix(l, "pref "+name+" ") {
			continue
		}
		end := i
		for end < len(lines) && !strings.HasSuffix(strings.TrimSpace(lines[end]), ";") {
			end++
		}
		return strings.Join(lines[:i], "") + strings.Join(lines[end+1:], "")
	}
	t.Fatalf("rule %s not found in the grammar source", name)
	return ""
}
