package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

	// Selectivity state — the one mutable corner of the plan, all accessed
	// through atomics (plans are shared across parsers and goroutines).
	// conjStats holds two counters per conjunct, flat across productions
	// (prodPlan.counters is each production's offset); engines accumulate
	// locally during a parse and flush here at release. Every production's
	// current evaluation order lives behind an atomic pointer in its
	// prodPlan; reorder() recomputes all of them from the counters at
	// exponentially spaced eval milestones, so steady-state parses stop
	// paying for reordering entirely.
	conjStats   []conjStat
	conjEvals   atomic.Int64 // conjunct evaluations flushed since the last reorder
	nextReorder atomic.Int64 // eval milestone that triggers the next reorder
	reorderMu   sync.Mutex
}

// conjStat is the measured record of one conjunct: how many times it was
// evaluated and how many of those evaluations rejected the assignment.
type conjStat struct {
	evals   atomic.Int64
	rejects atomic.Int64
}

// conjReorderEvery is the first reorder milestone; each reorder doubles it.
const conjReorderEvery = 4096

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
	nConj := 0
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
			pp.counters = nConj
			nConj += len(pp.conj)
		}
		if len(p.Components) > pl.maxArity {
			pl.maxArity = len(p.Components)
		}
	}
	pl.conjStats = make([]conjStat, nConj)
	pl.nextReorder.Store(conjReorderEvery)
	pl.reorder() // seed every production's order from the static costs

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

	// Selectivity-ordered conjunct evaluation. conj is the constraint's
	// top-level ∧-chain in grammar order (nil when it has fewer than two
	// factors — the engine then evaluates constraint whole); order is the
	// current evaluation schedule over conj, replaced wholesale by
	// reorder(); counters is this production's offset into plan.conjStats.
	conj     []grammar.CompiledConjunct
	order    atomic.Pointer[conjOrder]
	counters int

	// win holds each join slot's adjacency window (see window.go), nil
	// when no top-level factor is an adjacency over two components.
	win []slotWindow
}

// conjOrder is one production's conjunct evaluation schedule: ord lists the
// factor indices tier-major — grouped by the join slot at which each factor
// becomes fully bound (CompiledConjunct.MaxSlot), measured-selectivity order
// within a tier — and tier[s]..tier[s+1] bounds slot s's segment of ord
// (len(tier) is the production arity plus one). The engine evaluates
// segment s the moment join slot s is filled, so a rejecting factor prunes
// every deeper candidate combination instead of one complete assignment.
// Both fields are immutable once published; reorder() swaps in a fresh
// value wholesale.
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

// noteConjStats merges one engine's per-parse conjunct counters (evals and
// rejects, index-parallel to conjStats) into the plan, and triggers a
// reorder when the cumulative evaluation count crosses the next milestone.
// Called once per parse at engine release, so the hot loop's counters stay
// plain int32 increments.
func (pl *plan) noteConjStats(evals, rejects []int32) {
	total := int64(0)
	for i := range evals {
		if e := evals[i]; e != 0 {
			pl.conjStats[i].evals.Add(int64(e))
			total += int64(e)
		}
		if r := rejects[i]; r != 0 {
			pl.conjStats[i].rejects.Add(int64(r))
		}
	}
	if total == 0 {
		return
	}
	if pl.conjEvals.Add(total) >= pl.nextReorder.Load() {
		pl.reorder()
	}
}

// reorder recomputes every production's conjunct evaluation schedule from
// the measured counters. The tier structure is static — each factor belongs
// to the join slot where its variables become fully bound — so only the
// order within a tier is measured: a conjunct's score is its smoothed
// reject rate (rejects+1)/(evals+2) divided by its static cost — the
// expected rejections bought per unit of work — and a tier evaluates its
// factors in descending score order. With no measurements yet the smoothed
// rate is uniform, so the seed order within a tier is simply ascending
// static cost (cheapest first), ties broken by grammar order. Milestones
// double after every reorder: the schedule converges while reordering cost
// amortizes to zero on long-running parsers.
func (pl *plan) reorder() {
	pl.reorderMu.Lock()
	defer pl.reorderMu.Unlock()
	nProds := 0
	nConj := 0
	nTier := 0
	for i := range pl.prods {
		if pl.prods[i].conj != nil {
			nProds++
			nConj += len(pl.prods[i].conj)
			nTier += len(pl.prods[i].compSyms) + 1
		}
	}
	if nConj == 0 {
		return
	}
	// One backing array each for orders and tier bounds, one conjOrder per
	// production: three allocations per reorder, and O(1) reorders per
	// milestone doubling.
	flat := make([]uint8, 0, nConj)
	tiers := make([]uint8, 0, nTier)
	heads := make([]conjOrder, 0, nProds)
	for i := range pl.prods {
		pp := &pl.prods[i]
		if pp.conj == nil {
			continue
		}
		k := len(pp.conj)
		start := len(flat)
		for ci := 0; ci < k; ci++ {
			flat = append(flat, uint8(ci))
		}
		ord := flat[start : start+k : start+k]
		score := func(ci uint8) float64 {
			st := &pl.conjStats[pp.counters+int(ci)]
			rate := float64(st.rejects.Load()+1) / float64(st.evals.Load()+2)
			cost := pp.conj[ci].Cost
			if cost < 1 {
				cost = 1
			}
			return rate / float64(cost)
		}
		sort.SliceStable(ord, func(a, b int) bool {
			ta, tb := pp.conj[ord[a]].MaxSlot, pp.conj[ord[b]].MaxSlot
			if ta != tb {
				return ta < tb
			}
			return score(ord[a]) > score(ord[b])
		})
		// tier[s] = first index of ord whose factor has MaxSlot >= s, so
		// ord[tier[s]:tier[s+1]] is exactly slot s's segment.
		arity := len(pp.compSyms)
		tstart := len(tiers)
		idx := 0
		for s := 0; s <= arity; s++ {
			for idx < k && pp.conj[ord[idx]].MaxSlot < s {
				idx++
			}
			tiers = append(tiers, uint8(idx))
		}
		tb := tiers[tstart : tstart+arity+1 : tstart+arity+1]
		heads = append(heads, conjOrder{ord: ord, tier: tb})
		pp.order.Store(&heads[len(heads)-1])
	}
	pl.nextReorder.Store(pl.conjEvals.Load()*2 + conjReorderEvery)
}
