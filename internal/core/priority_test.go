package core

import (
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// priorityGrammar builds a grammar with two mutually inconsistent
// unconditional preferences between symbols B and C (each reads the same
// text token); the priority decides which interpretation survives.
func priorityGrammar(bPrio, cPrio int) string {
	src := `
terminals text, textbox;
start S;
prod B -> t:text ;
prod C -> t:text ;
prod S -> b:B ;
prod S -> c:C ;
`
	add := func(name, w, l string, prio int) string {
		s := "pref " + name + " w:" + w + " beats l:" + l + " when overlap(w, l)"
		if prio != 0 {
			s += " prio " + itoa(prio)
		}
		return s + ";\n"
	}
	src += add("RB", "B", "C", bPrio)
	src += add("RC", "C", "B", cPrio)
	return src
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// parsePriority runs the inconsistent grammar and reports which symbol's
// interpretation survived.
func parsePriority(t *testing.T, bPrio, cPrio int, lateprune bool) string {
	t.Helper()
	g, err := grammar.ParseDSL(priorityGrammar(bPrio, cPrio))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(g, Options{DisableScheduling: lateprune})
	if err != nil {
		t.Fatal(err)
	}
	toks := []*token.Token{{ID: 0, Type: token.Text, SVal: "x", Pos: geom.R(0, 10, 0, 10)}}
	res, err := p.ParseAlive(toks)
	if err != nil {
		t.Fatal(err)
	}
	aliveB, aliveC := false, false
	for _, in := range res.Alive {
		switch in.Sym {
		case "B":
			aliveB = true
		case "C":
			aliveC = true
		}
	}
	switch {
	case aliveB && !aliveC:
		return "B"
	case aliveC && !aliveB:
		return "C"
	case aliveB && aliveC:
		return "both"
	default:
		return "neither"
	}
}

func TestPriorityDecidesInconsistentPreferences(t *testing.T) {
	// With RB at higher priority, B's kill of C lands first; the dead C
	// can no longer kill B.
	if got := parsePriority(t, 5, 0, false); got != "B" {
		t.Errorf("B prio 5: survivor = %s, want B", got)
	}
	// Flipping the priorities flips the survivor.
	if got := parsePriority(t, 0, 5, false); got != "C" {
		t.Errorf("C prio 5: survivor = %s, want C", got)
	}
}

func TestPriorityInLatePruningPath(t *testing.T) {
	if got := parsePriority(t, 5, 0, true); got != "B" {
		t.Errorf("late pruning, B prio 5: survivor = %s, want B", got)
	}
	if got := parsePriority(t, 0, 5, true); got != "C" {
		t.Errorf("late pruning, C prio 5: survivor = %s, want C", got)
	}
}

func TestFlatPrioritiesKeepGrammarOrder(t *testing.T) {
	// With equal (flat) priorities — the paper's model — the first
	// preference in grammar order acts first; deterministic either way.
	got := parsePriority(t, 0, 0, false)
	if got != "B" {
		t.Errorf("flat priorities: survivor = %s, want B (grammar order)", got)
	}
	if again := parsePriority(t, 0, 0, false); again != got {
		t.Errorf("flat priorities nondeterministic: %s then %s", got, again)
	}
}

func TestPriorityParsedFromDSL(t *testing.T) {
	g, err := grammar.ParseDSL(priorityGrammar(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Prefs[0].Priority != 3 || g.Prefs[1].Priority != 1 {
		t.Errorf("priorities = %d, %d", g.Prefs[0].Priority, g.Prefs[1].Priority)
	}
}
