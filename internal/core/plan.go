package core

import (
	"sort"
	"strings"
	"sync"

	"formext/internal/grammar"
)

// plan is the per-grammar compiled evaluation form: the 2P schedule plus
// everything the engine's inner loops would otherwise recompute per parse —
// symbols interned to dense IDs, productions resolved to component symbol
// IDs with compiled constraints, preferences resolved to winner/loser
// symbol IDs with compiled condition/criterion, per-group production lists,
// and pre-joined group labels for tracing. Like the grammar and schedule it
// derives from, a plan is immutable after construction and shared across
// parsers and goroutines.
type plan struct {
	g     *grammar.Grammar
	sched *Schedule

	// syms/symID intern every grammar symbol (terminals and nonterminals)
	// to a dense ID; bySym tables and fix-point marks index by it.
	syms  []string
	symID map[string]int

	// prods is index-parallel to g.Prods; prefs to g.Prefs.
	prods []prodPlan
	prefs []prefPlan

	// groupProds[i] lists (by index into prods, in grammar order) the
	// productions whose head is in schedule group i. globalProds is the
	// same for the single late-pruning fix point: every production.
	groupProds  [][]int
	globalProds []int
	// groupSyms[i] is the deduplicated union of component symbol IDs the
	// productions of group i join over; globalSyms the same for globalProds.
	// Fix-point frontier bookkeeping (marks, snapshots) touches only these —
	// a group typically joins a handful of symbols out of the grammar's
	// dozens, and the snapshot runs once per round per group.
	groupSyms  [][]int
	globalSyms []int
	// groupLabels[i] is strings.Join(sched.Groups[i], " "), precomputed so
	// tracing a parse does not allocate the label per group per call.
	groupLabels []string

	// enforceAfter[i] lists (by index into prefs) the preferences enforced
	// after group i; prefsByPriority is the late-pruning enforcement order.
	enforceAfter    [][]int
	prefsByPriority []int

	// maxArity is the largest production component count, sizing the
	// engine's join scratch.
	maxArity int
}

// planCache memoizes the compiled plan per grammar, keyed by the *Grammar
// pointer. Grammars are immutable after construction (see grammar.Grammar),
// so a plan computed once is valid for the grammar's lifetime; the cache
// makes NewParser on a shared grammar — the serving path's default —
// allocation-light.
var planCache sync.Map // *grammar.Grammar → *plan

// planFor returns the (possibly cached) compiled plan of g.
func planFor(g *grammar.Grammar) (*plan, error) {
	if p, ok := planCache.Load(g); ok {
		return p.(*plan), nil
	}
	p, err := buildPlan(g)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(g, p)
	return actual.(*plan), nil
}

func buildPlan(g *grammar.Grammar) (*plan, error) {
	sched, err := BuildSchedule(g)
	if err != nil {
		return nil, err
	}
	cg := grammar.Compile(g)

	pl := &plan{g: g, sched: sched}
	pl.syms = g.Symbols()
	pl.symID = make(map[string]int, len(pl.syms))
	for i, s := range pl.syms {
		pl.symID[s] = i
	}

	pl.prods = make([]prodPlan, len(g.Prods))
	for i, p := range g.Prods {
		pp := &pl.prods[i]
		pp.p = p
		pp.headID = pl.symID[p.Head]
		pp.compSyms = make([]int, len(p.Components))
		for j, c := range p.Components {
			pp.compSyms[j] = pl.symID[c.Sym]
		}
		pp.constraint = cg.Prods[i].Constraint
		pp.win = windowsOf(p)
		pp.conj = cg.Prods[i].Conjuncts
		if pp.conj != nil {
			pp.order = tierOrder(pp.conj, len(p.Components))
		}
		if len(p.Components) > pl.maxArity {
			pl.maxArity = len(p.Components)
		}
	}

	prefIdx := make(map[*grammar.Preference]int, len(g.Prefs))
	pl.prefs = make([]prefPlan, len(g.Prefs))
	for i, r := range g.Prefs {
		pl.prefs[i] = prefPlan{
			p:        r,
			winnerID: pl.symID[r.Winner],
			loserID:  pl.symID[r.Loser],
			cond:     cg.Prefs[i].Cond,
			win:      cg.Prefs[i].Win,
		}
		prefIdx[r] = i
	}

	pl.groupProds = make([][]int, len(sched.Groups))
	pl.groupLabels = make([]string, len(sched.Groups))
	for gi, group := range sched.Groups {
		inGroup := map[string]bool{}
		for _, s := range group {
			inGroup[s] = true
		}
		for i, p := range g.Prods {
			if inGroup[p.Head] {
				pl.groupProds[gi] = append(pl.groupProds[gi], i)
			}
		}
		pl.groupLabels[gi] = strings.Join(group, " ")
	}
	pl.globalProds = make([]int, len(g.Prods))
	for i := range g.Prods {
		pl.globalProds[i] = i
	}
	pl.groupSyms = make([][]int, len(pl.groupProds))
	for gi, prods := range pl.groupProds {
		pl.groupSyms[gi] = pl.compSymsOf(prods)
	}
	pl.globalSyms = pl.compSymsOf(pl.globalProds)

	pl.enforceAfter = make([][]int, len(sched.EnforceAfter))
	for gi, prefs := range sched.EnforceAfter {
		for _, r := range prefs {
			pl.enforceAfter[gi] = append(pl.enforceAfter[gi], prefIdx[r])
		}
	}
	for _, r := range ByPriority(g.Prefs) {
		pl.prefsByPriority = append(pl.prefsByPriority, prefIdx[r])
	}
	return pl, nil
}

// compSymsOf returns the deduplicated component symbol IDs of the given
// productions, in first-appearance order.
func (pl *plan) compSymsOf(prods []int) []int {
	seen := make([]bool, len(pl.syms))
	var out []int
	for _, pi := range prods {
		for _, sid := range pl.prods[pi].compSyms {
			if !seen[sid] {
				seen[sid] = true
				out = append(out, sid)
			}
		}
	}
	return out
}

// prodPlan is one production in compiled evaluation form.
type prodPlan struct {
	p          *grammar.Production
	headID     int
	compSyms   []int
	constraint *grammar.CompiledExpr

	// Tiered conjunct evaluation. conj is the constraint's top-level
	// ∧-chain in grammar order (nil when it has fewer than two factors —
	// the engine then evaluates constraint whole); order is the evaluation
	// schedule over conj, built once by tierOrder.
	conj  []grammar.CompiledConjunct
	order conjOrder

	// win holds each join slot's adjacency window (see window.go), nil
	// when no top-level factor is an adjacency over two components.
	win []slotWindow
}

// conjOrder is one production's conjunct evaluation schedule: ord lists the
// factor indices tier-major — grouped by the join slot at which each factor
// becomes fully bound (CompiledConjunct.MaxSlot), ascending static cost
// within a tier — and tier[s]..tier[s+1] bounds slot s's segment of ord
// (len(tier) is the production arity plus one). The engine evaluates
// segment s the moment join slot s is filled, so a rejecting factor prunes
// every deeper candidate combination instead of one complete assignment.
type conjOrder struct {
	ord  []uint8
	tier []uint8
}

// prefPlan is one preference in compiled evaluation form.
type prefPlan struct {
	p        *grammar.Preference
	winnerID int
	loserID  int
	cond     *grammar.CompiledExpr
	win      *grammar.CompiledExpr
}

// tierOrder builds one production's conjunct schedule over conj, for a
// production of the given arity. The tier structure is fixed by the
// grammar — each factor belongs to the join slot where its variables
// become fully bound — and within a tier the factors run cheapest first
// by static cost, ties in grammar order. Under EvalBool semantics the
// ∧-factors of a tier commute, so the order decides only how much work a
// rejection costs, never the verdict.
func tierOrder(conj []grammar.CompiledConjunct, arity int) conjOrder {
	k := len(conj)
	ord := make([]uint8, k)
	for ci := range ord {
		ord[ci] = uint8(ci)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		ca, cb := &conj[ord[a]], &conj[ord[b]]
		if ca.MaxSlot != cb.MaxSlot {
			return ca.MaxSlot < cb.MaxSlot
		}
		return max(ca.Cost, 1) < max(cb.Cost, 1)
	})
	// tier[s] = first index of ord whose factor has MaxSlot >= s, so
	// ord[tier[s]:tier[s+1]] is exactly slot s's segment.
	tier := make([]uint8, 0, arity+1)
	idx := 0
	for s := 0; s <= arity; s++ {
		for idx < k && conj[ord[idx]].MaxSlot < s {
			idx++
		}
		tier = append(tier, uint8(idx))
	}
	return conjOrder{ord: ord, tier: tier}
}
