package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"formext/internal/bitset"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/obs"
	"formext/internal/token"
)

// Options tunes the parser. The zero value asks for the paper's algorithm:
// scheduled symbol-by-symbol instantiation with just-in-time pruning,
// evaluated through the compiled per-grammar form.
type Options struct {
	// Thresholds parameterizes the spatial relations; zero value means
	// geom.DefaultThresholds.
	Thresholds geom.Thresholds
	// DisablePreferences turns off all pruning — the "brute-force"
	// exhaustive interpretation of Section 4.2.1, kept for the ambiguity
	// experiments.
	DisablePreferences bool
	// DisableScheduling replaces the 2P schedule with a single global
	// fix point; preferences are then enforced only at the end of parsing
	// (late pruning) and rollback erases the aggregated false instances.
	DisableScheduling bool
	// MaxInstances caps total instance creation as a safety valve for the
	// exponential worst case; 0 means DefaultMaxInstances.
	MaxInstances int
	// Interpreted evaluates constraints and preferences through the
	// interpreted Expr tree (the DSL tools' semantics) instead of the
	// compiled per-grammar evaluation; it exists as the differential-test
	// oracle and as an operational escape hatch.
	Interpreted bool
}

// DefaultMaxInstances bounds instance creation (the membership problem for
// visual languages is NP-complete; the cap keeps pathological inputs and the
// brute-force ablation from running away).
const DefaultMaxInstances = 400000

// Stats reports what parsing did — the quantities Section 4.2.1 and 5.1 of
// the paper discuss (total vs. temporary instances, parse trees, timing),
// plus the scheduling internals the observability layer exposes (fix-point
// rounds, schedule groups). Counting is unconditional: the counters are
// plain integer increments on paths that already do real work, so there is
// no "stats off" mode to get wrong.
type Stats struct {
	Tokens         int
	Terminals      int // terminal instances created (one per token)
	TotalCreated   int // instances ever created, including pruned ones
	Pruned         int // killed directly by a preference
	RolledBack     int // killed transitively as ancestors of pruned instances
	Alive          int // instances alive at the end
	MaximalTrees   int // maximal partial parse trees
	CompleteParses int // alive start-symbol instances covering every token
	// ConstraintEvals counts constraint evaluation events. Monolithic
	// constraints (single ∧-factor or none) count one per complete
	// component assignment, as always. Decomposed constraints evaluate
	// tier by tier as the join binds each slot (predicate pushdown), and
	// count one per non-empty tier reached — so one event may cover a
	// prefix shared by many assignments, and rejected prefixes never
	// produce deeper events. Only candidates the join visits count: a slot
	// with a join window (window.go) never visits, and so never evaluates,
	// the candidates outside it. Both evaluation modes share the join code
	// and count identically.
	ConstraintEvals int
	FixpointIters   int           // fix-point rounds summed over all groups
	Groups          int           // schedule groups executed (1 when scheduling is off)
	Truncated       bool          // hit MaxInstances
	Interrupted     bool          // cut short by context cancellation or deadline
	Duration        time.Duration // parse construction + maximization time
}

// Nonterminals returns the nonterminal instances created.
func (s Stats) Nonterminals() int { return s.TotalCreated - s.Terminals }

// Result is the parser output: the maximal partial parse trees (Section
// 5.3), ordered by descending cover, and the statistics of the parse. The
// trees are all a Result holds of the parse graph: the alive instances no
// tree reaches are counted in Stats and then dropped with the engine's
// scratch storage.
type Result struct {
	// Tokens is the input token set.
	Tokens []*token.Token
	// Maximal holds the maximum partial parse trees: alive instances whose
	// cover is not properly subsumed by any other alive instance's cover.
	Maximal []*grammar.Instance
	Stats   Stats
}

// Parser parses token sets against one grammar. A Parser is immutable
// after construction — the compiled plan (grammar, 2P schedule, compiled
// constraints) and the options are all read-only — and every call to Parse
// checks out a pooled engine for its mutable state, so one Parser is safe
// for concurrent use by multiple goroutines.
type Parser struct {
	pl   *plan
	opt  Options
	pool sync.Pool // *engine
}

// NewParser builds a parser for the grammar. The plan — 2P schedule plus
// compiled constraint evaluation — is computed once per grammar and cached,
// so repeated construction over a shared grammar costs only the Parser
// allocation.
func NewParser(g *grammar.Grammar, opt Options) (*Parser, error) {
	if opt.Thresholds == (geom.Thresholds{}) {
		opt.Thresholds = geom.DefaultThresholds
	}
	if opt.MaxInstances <= 0 {
		opt.MaxInstances = DefaultMaxInstances
	}
	pl, err := planFor(g)
	if err != nil {
		return nil, err
	}
	return &Parser{pl: pl, opt: opt}, nil
}

// Schedule exposes the computed 2P schedule (for diagnostics and tests).
func (p *Parser) Schedule() *Schedule { return p.pl.sched }

// Parse runs best-effort parsing over the token set.
func (p *Parser) Parse(toks []*token.Token) (*Result, error) {
	return p.ParseContext(context.Background(), toks, nil)
}

// ValidateTokens checks that a token set is parseable: no nil entries, and
// IDs dense in slice order (token i must carry ID i — covers are bit sets
// over those indices, so sparse, duplicated or out-of-range IDs would index
// outside the cover universe). The error names the first offending token.
func ValidateTokens(toks []*token.Token) error {
	for i, t := range toks {
		if t == nil {
			return fmt.Errorf("core: token at index %d is nil", i)
		}
		if t.ID != i {
			why := "sparse or out of order"
			switch {
			case t.ID < 0 || t.ID >= len(toks):
				why = "out of range"
			case i > 0 && toks[i-1].ID == t.ID:
				why = "duplicated"
			}
			return fmt.Errorf("core: token IDs must be dense and ordered: token at index %d has ID %d, want %d (%s)",
				i, t.ID, i, why)
		}
	}
	return nil
}

// ParseContext runs best-effort parsing under a context. Cancellation is
// checked at fix-point round boundaries and every few thousand constraint
// evaluations inside a round; when the context ends mid-parse, the parser
// stops instantiating, still runs maximization over the instances built so
// far, and returns that partial Result together with the context's error —
// the caller gets the largest interpretation the time budget allowed, with
// Stats.Interrupted set. A validation failure returns a nil Result.
//
// A non-nil sp receives one child span per schedule group (instances
// created, fix-point rounds, prunes and rollbacks it caused) plus one for
// maximization; a nil span costs only the nil checks inside obs.
func (p *Parser) ParseContext(ctx context.Context, toks []*token.Token, sp *obs.Span) (*Result, error) {
	res, _, err := p.parse(ctx, toks, sp, false)
	return res, err
}

// parse runs one parse. With keepAlive set, every alive instance is a
// compaction root as well as the maximal trees, and the copies come back in
// creation order: the whole surviving interpretation set, which the
// package's tests inspect (export_test.go). The production path keeps only
// the trees' reach; both paths run the same parse and count the same Stats.
func (p *Parser) parse(ctx context.Context, toks []*token.Token, sp *obs.Span, keepAlive bool) (res *Result, alive []*grammar.Instance, err error) {
	if err := ValidateTokens(toks); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	e := p.engine()
	defer func() {
		// A panicking parse abandons its engine: half-mutated scratch
		// state (dedup table, join buffers, bitset arena) must never be
		// pooled for the next request. The panic continues to the caller's
		// isolation boundary.
		if r := recover(); r != nil {
			panic(r)
		}
		p.release(e)
	}()
	e.begin(ctx, p.pl, p.opt, len(toks))

	for _, t := range toks {
		e.terminal(t)
	}
	e.stats.Tokens = len(toks)

	if p.opt.DisableScheduling {
		// Late pruning: one global fix point, then preference enforcement
		// with rollback until no more kills.
		e.stats.Groups++
		gsp := sp.Span("fixpoint")
		gsp.SetStr("mode", "global")
		e.fixpoint(gsp, p.pl.globalProds, p.pl.globalSyms)
		if !p.opt.DisablePreferences {
			for !e.cancelled() {
				killed := 0
				for _, pi := range p.pl.prefsByPriority {
					killed += e.enforce(gsp, pi)
				}
				if killed == 0 {
					break
				}
			}
		}
		gsp.SetInt("created", int64(e.stats.TotalCreated-e.stats.Terminals))
		gsp.SetInt("pruned", int64(e.stats.Pruned))
		gsp.SetInt("rolledBack", int64(e.stats.RolledBack))
		gsp.End()
	} else {
		for gi := range p.pl.sched.Groups {
			if e.cancelled() {
				break
			}
			e.stats.Groups++
			gsp := sp.Span("fixpoint")
			gsp.SetStr("symbols", p.pl.groupLabels[gi])
			c0, f0 := e.stats.TotalCreated, e.stats.FixpointIters
			p0, r0 := e.stats.Pruned, e.stats.RolledBack
			e.fixpoint(gsp, p.pl.groupProds[gi], p.pl.groupSyms[gi])
			if !p.opt.DisablePreferences && !e.cancelled() {
				for _, pi := range p.pl.enforceAfter[gi] {
					e.enforce(gsp, pi)
				}
			}
			gsp.SetInt("created", int64(e.stats.TotalCreated-c0))
			gsp.SetInt("rounds", int64(e.stats.FixpointIters-f0))
			gsp.SetInt("pruned", int64(e.stats.Pruned-p0))
			gsp.SetInt("rolledBack", int64(e.stats.RolledBack-r0))
			gsp.End()
		}
	}

	msp := sp.Span("maximize")
	res = &Result{Tokens: toks}
	res.Maximal = e.maximize(p.pl.g.Start)
	msp.SetInt("trees", int64(len(res.Maximal)))
	msp.End()
	// Alive instances and complete parses are counted over the engine's
	// alive set, before compaction keeps only what the trees reach.
	// Complete parses are all alive start-symbol instances covering every
	// token: distinct derivations of the full token set are distinct global
	// interpretations (Figure 9), even though maximization keeps one
	// representative per cover.
	for _, in := range e.all {
		if in.Dead {
			continue
		}
		e.stats.Alive++
		if in.Sym == p.pl.g.Start && in.Cover.Count() == len(toks) {
			e.stats.CompleteParses++
		}
		if keepAlive {
			alive = append(alive, in)
		}
	}
	roots := res.Maximal
	if keepAlive {
		roots = append(alive, res.Maximal...)
	}
	e.compact(roots)
	if keepAlive {
		alive, res.Maximal = roots[:len(alive):len(alive)], roots[len(alive):]
	}
	e.stats.MaximalTrees = len(res.Maximal)
	e.stats.Interrupted = e.interrupted
	e.stats.Duration = time.Since(start)
	res.Stats = e.stats

	sp.SetInt("tokens", int64(e.stats.Tokens))
	sp.SetInt("instances", int64(e.stats.TotalCreated))
	sp.SetInt("pruned", int64(e.stats.Pruned))
	sp.SetInt("rolledBack", int64(e.stats.RolledBack))
	sp.SetInt("fixpointIters", int64(e.stats.FixpointIters))
	sp.SetInt("completeParses", int64(e.stats.CompleteParses))
	if e.interrupted {
		sp.Event("interrupted", obs.Int("instances", int64(e.stats.TotalCreated)))
		return res, alive, ctx.Err()
	}
	return res, alive, nil
}

// structuralKey identifies a derivation by head symbol and component
// instance IDs. The live dedup path uses dedupTable over the same identity;
// structuralKey remains the readable rendering of it and the oracle the
// table is differential-tested against.
func structuralKey(head string, children []*grammar.Instance) string {
	buf := make([]byte, 0, len(head)+8*len(children))
	buf = append(buf, head...)
	for _, c := range children {
		buf = append(buf, '|')
		buf = appendInt(buf, c.ID)
	}
	return string(buf)
}

func appendInt(buf []byte, v int) []byte {
	u := uint(v)
	if v < 0 {
		buf = append(buf, '-')
		// Negation in uint space renders the magnitude correctly even for
		// the minimum int, which has no positive counterpart.
		u = -u
	}
	if u == 0 {
		return append(buf, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for u > 0 {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
	}
	return append(buf, tmp[i:]...)
}

// instSlabSize is how many instances one engine slab holds; childSlabSize
// how many child pointers. The parse builds instances in these engine-owned
// slabs, and their covers in the engine's bitset arena; at the end
// compact() copies the maximal trees' reach (instances, child pointers and
// cover words) into exact-size Result-owned storage, so every slab is
// cleared and recycled for the next parse instead of being retained by the
// Result. maxFreeSlabs caps how many spare slabs of each kind a pooled
// engine keeps — a single pathological parse cannot pin an unbounded pool.
const (
	instSlabSize  = 512
	childSlabSize = 2048
	maxFreeSlabs  = 8
)

// engine holds the mutable state of one parse. Engines are pooled per
// Parser: scratch structures that hold no instance pointers (dedup table,
// bitset scratch, join buffers, list headers) survive between parses, and
// instance and cover storage is carved from engine-owned slabs that recycle
// too — compact() copies the maximal trees into Result-owned storage at the
// end of each parse, so nothing the Result retains reaches into the engine.
type engine struct {
	pl  *plan
	opt Options

	// Cancellation state for one parse: the context, a countdown between
	// in-round checks (consulting the context every constraint evaluation
	// would put an atomic load on the hottest path), and the latched
	// verdict once the context has ended.
	ctx             context.Context
	evalsUntilCheck int
	interrupted     bool

	bySym [][]*grammar.Instance // alive+dead instances by dense symbol ID
	all   []*grammar.Instance   // every instance, in creation (ID) order

	dedup  dedupTable
	nextID int
	stats  Stats

	// Compiled evaluation state: the slot frame, and the winner/loser pair
	// backing array for preference frames.
	frame *grammar.Frame
	pair  [2]*grammar.Instance
	// Interpreted-oracle evaluation state.
	evalCtx *grammar.EvalCtx

	// Fix-point scratch: per-symbol frontier marks and round snapshots.
	marks []int
	snap  []int

	// Join candidate lists: per-symbol alive-compacted views of bySym,
	// rebuilt at each fix point's start. Kills only happen between fix
	// points (enforcement runs after a group's fix point, or after the
	// global one), so the dead set is fixed while one runs: filtering the
	// dead out once here removes the per-candidate liveness check from the
	// join inner loop, and frontier bookkeeping (marks/snap) indexes the
	// compacted lists. candActive marks the symbols whose lists are live so
	// track() keeps them growing as instances are created mid-round.
	//
	// A symbol with no dead instances (deadBySym) aliases bySym directly —
	// no copy, no extra write barriers; terminals never die (rollback only
	// walks upward), so the large terminal lists alias every group. Only
	// symbols that lost instances pay for a compacted copy, built in the
	// engine-owned candBuf so capacity recycles across groups and parses.
	joinCands   [][]*grammar.Instance
	candBuf     [][]*grammar.Instance
	candActive  []bool
	candAliased []bool
	deadBySym   []int32

	// Join windows (window.go): winIdx[sid*numWinKeys+key] is symbol sid's
	// candidate list sorted by one coordinate, valid for the fix point
	// numbered winEpoch; winHits[slot] is the per-slot bitmap of window
	// hits, one per join depth because slots recurse.
	winIdx   []winIndex
	winEpoch uint64
	winHits  [][]uint64

	// Join scratch, sized to the grammar's maximum production arity.
	// joinCover[s] (s >= 2) holds the cover union of the first s chosen
	// components, so deep slots test token-disjointness against one bitset
	// instead of every earlier child.
	children  []*grammar.Instance
	joinLists [][]*grammar.Instance
	joinOld   []int
	joinCover []bitset.Set

	// Dedup key scratch.
	keyBuf []int32

	// Index-form parent graph, engine-owned scratch: parHead[id] is the
	// index of instance id's first parent edge in parEdges (-1 when it has
	// none), edges are prepend-linked via next. Rollback and maximization
	// walk these instead of per-Instance parent slices, so frozen Results
	// retain no parse-only back edges (the dead-instance majority they
	// mostly pointed at) and the arrays recycle across parses.
	parHead  []int32
	parEdges []parEdge

	// sizes[id] is instance id's subtree node count, recorded at creation
	// (1 + the children's sizes) so maximize never walks a subtree.
	sizes []int32

	// Enforcement scratch: the memoized winner-subtree spare set and the
	// winner cover-union prefilter.
	spare      bitset.Set
	spareFor   *grammar.Instance
	coverUnion bitset.Set

	// Maximization scratch.
	maxCands   []*grammar.Instance
	maxKeys    []maxKey  // ID-indexed sort keys scratch for maximize
	maxPost    [][]int32 // per-token posting lists of the kept trees
	maxMembers []int     // one candidate's cover members

	// Freeze-compaction scratch: reach marks the IDs reachable from the
	// compaction roots; remap[id] is the Result-owned copy of reachable
	// instance id during compact(), nil for unreachable ones.
	reach []bool
	remap []*grammar.Instance

	// Instance/child-pointer storage slabs (see instSlabSize). instSlab and
	// childSlab are the chunks currently being filled; used* lists every
	// chunk this parse touched (the current one last, header kept fresh);
	// free* holds cleared chunks awaiting reuse.
	arena     bitset.Arena
	instSlab  []grammar.Instance
	childSlab []*grammar.Instance
	usedInst  [][]grammar.Instance
	usedChild [][]*grammar.Instance
	freeInst  [][]grammar.Instance
	freeChild [][]*grammar.Instance
}

// parEdge is one child→parent link of the index-form parent graph.
type parEdge struct {
	parent int32 // parent instance ID
	next   int32 // next edge of the same child, -1 at the end
}

// engine checks an engine out of the pool, constructing one on first use.
func (p *Parser) engine() *engine {
	if v := p.pool.Get(); v != nil {
		return v.(*engine)
	}
	return &engine{
		frame:   grammar.NewFrame(p.opt.Thresholds),
		evalCtx: &grammar.EvalCtx{Bind: map[string]*grammar.Instance{}, Th: p.opt.Thresholds},
	}
}

// forgetInstances clears every reference the engine holds into the
// finished parse — compact() copied the trees into Result-owned storage, so
// the slabs only hold parse-scratch copies now — and recycles the instance,
// child and cover slabs (cleared, so a pooled engine pins nothing) before
// release returns the engine to the pool.
func (e *engine) forgetInstances() {
	for i := range e.bySym {
		clear(e.bySym[i])
		e.bySym[i] = e.bySym[i][:0]
	}
	clear(e.all)
	e.all = e.all[:0]
	clear(e.children)
	clear(e.joinLists)
	clear(e.maxCands)
	e.maxCands = e.maxCands[:0]
	clear(e.remap)
	e.pair = [2]*grammar.Instance{}
	e.frame.Bind(nil)
	clear(e.evalCtx.Bind)
	e.ctx = nil
	e.spareFor = nil
	e.arena.Reset(0)
	for _, c := range e.usedInst {
		clear(c)
		if len(e.freeInst) < maxFreeSlabs {
			e.freeInst = append(e.freeInst, c)
		}
	}
	clear(e.usedInst)
	e.usedInst = e.usedInst[:0]
	for _, c := range e.usedChild {
		clear(c)
		if len(e.freeChild) < maxFreeSlabs {
			e.freeChild = append(e.freeChild, c)
		}
	}
	clear(e.usedChild)
	e.usedChild = e.usedChild[:0]
	e.instSlab = nil
	e.childSlab = nil
}

func (p *Parser) release(e *engine) {
	e.forgetInstances()
	p.pool.Put(e)
}

// ctxCheckEvery is how many constraint evaluations run between context
// checks inside a fix-point round. Round boundaries always check; the
// in-round checkpoint bounds how long one pathological round (a quadratic
// join over a hostile token set) can outlive its deadline.
const ctxCheckEvery = 4096

// cancelled reports whether the parse's context has ended, latching the
// verdict so later checks are branch-only.
func (e *engine) cancelled() bool {
	if e.interrupted {
		return true
	}
	if e.ctx != nil && e.ctx.Err() != nil {
		e.interrupted = true
	}
	return e.interrupted
}

// begin readies the engine for one parse over `universe` tokens.
func (e *engine) begin(ctx context.Context, pl *plan, opt Options, universe int) {
	e.pl = pl
	e.opt = opt
	e.ctx = ctx
	e.evalsUntilCheck = ctxCheckEvery
	e.interrupted = false
	ns := len(pl.syms)
	if cap(e.bySym) < ns {
		e.bySym = make([][]*grammar.Instance, ns)
	}
	e.bySym = e.bySym[:ns]
	if cap(e.joinCands) < ns {
		e.joinCands = make([][]*grammar.Instance, ns)
		e.candBuf = make([][]*grammar.Instance, ns)
		e.candActive = make([]bool, ns)
		e.candAliased = make([]bool, ns)
		e.deadBySym = make([]int32, ns)
		e.winIdx = make([]winIndex, ns*int(numWinKeys))
	}
	e.joinCands = e.joinCands[:ns]
	e.candBuf = e.candBuf[:ns]
	e.candActive = e.candActive[:ns]
	e.candAliased = e.candAliased[:ns]
	e.deadBySym = e.deadBySym[:ns]
	clear(e.deadBySym)
	e.marks = resizeInts(e.marks, ns)
	e.snap = resizeInts(e.snap, ns)
	if cap(e.children) < pl.maxArity {
		e.children = make([]*grammar.Instance, pl.maxArity)
		e.joinLists = make([][]*grammar.Instance, pl.maxArity)
		e.joinOld = make([]int, pl.maxArity)
		e.joinCover = make([]bitset.Set, pl.maxArity)
		e.winHits = make([][]uint64, pl.maxArity)
	}
	for i := range e.joinCover {
		e.joinCover[i].Reset(universe)
	}
	e.parHead = e.parHead[:0]
	e.parEdges = e.parEdges[:0]
	e.sizes = e.sizes[:0]
	e.dedup.reset()
	e.nextID = 0
	e.stats = Stats{}
	e.arena.Reset(universe)
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// newInstance carves a zeroed instance from the engine's slab, reusing a
// cleared chunk from the free list when one is available. Chunks are
// all-zero whenever they are (re)issued — fresh ones by allocation, free-
// listed ones because forgetInstances clears exactly the prefix each parse
// wrote — so extending the length alone yields a zeroed instance without
// the zero-struct copy (and its write barriers) an append would do.
func (e *engine) newInstance() *grammar.Instance {
	if len(e.instSlab) == cap(e.instSlab) {
		if n := len(e.freeInst); n > 0 {
			e.instSlab = e.freeInst[n-1][:0]
			e.freeInst = e.freeInst[:n-1]
		} else {
			e.instSlab = make([]grammar.Instance, 0, instSlabSize)
		}
		e.usedInst = append(e.usedInst, nil)
	}
	n := len(e.instSlab)
	e.instSlab = e.instSlab[:n+1]
	e.usedInst[len(e.usedInst)-1] = e.instSlab
	return &e.instSlab[n]
}

// copyChildren copies a component assignment into the child-pointer slab
// (instances need their own children slice; the join buffer is reused).
func (e *engine) copyChildren(cs []*grammar.Instance) []*grammar.Instance {
	if len(e.childSlab)+len(cs) > cap(e.childSlab) {
		if n := len(e.freeChild); n > 0 && len(cs) <= cap(e.freeChild[n-1]) {
			e.childSlab = e.freeChild[n-1][:0]
			e.freeChild = e.freeChild[:n-1]
		} else {
			n := childSlabSize
			if len(cs) > n {
				n = len(cs)
			}
			e.childSlab = make([]*grammar.Instance, 0, n)
		}
		e.usedChild = append(e.usedChild, nil)
	}
	start := len(e.childSlab)
	e.childSlab = append(e.childSlab, cs...)
	e.usedChild[len(e.usedChild)-1] = e.childSlab
	return e.childSlab[start:len(e.childSlab):len(e.childSlab)]
}

// addParent links child→parent in the index-form parent graph: edges are
// prepended to the child's list in two flat int32-indexed arrays that
// recycle across parses. These links used to be per-Instance []*Instance
// slices carved from the child-pointer slab; keeping them engine-owned
// shrinks the Instance struct, stops frozen Results from retaining rollback
// edges into the parse's dead-instance majority, and makes parent storage
// allocation-free at steady state.
//
// Each (parent, child) edge is recorded exactly once per parse: the dedup
// table admits each parent derivation once, and cover disjointness keeps one
// child instance from filling two slots of the same parent (a non-empty
// cover always intersects itself) — TestParentEdgesUnique pins this.
func (e *engine) addParent(child int, parent int32) {
	e.parEdges = append(e.parEdges, parEdge{parent: parent, next: e.parHead[child]})
	e.parHead[child] = int32(len(e.parEdges) - 1)
}

// terminal builds and tracks the terminal instance of one token.
func (e *engine) terminal(t *token.Token) {
	in := e.newInstance()
	in.ID = e.nextID
	e.nextID++
	in.Sym = string(t.Type)
	in.Token = t
	in.Pos = t.Pos
	cover := e.arena.New()
	cover.Add(t.ID)
	in.Cover = cover
	sid, ok := e.pl.symID[in.Sym]
	if !ok {
		sid = -1
	}
	e.track(in, sid, 1)
	e.stats.Terminals++
}

// track registers a freshly built instance of symbol sid with the given
// subtree size in the engine's indexes. Symbols outside the grammar (token
// types no production mentions, sid -1) skip the bySym table — nothing can
// join over them — but still appear in e.all, and so count as alive.
// Instances are tracked in ID order, so the ID-indexed parent-graph heads
// and sizes grow in lockstep (parHead[in.ID] is this append).
func (e *engine) track(in *grammar.Instance, sid int, size int32) {
	if sid >= 0 {
		e.bySym[sid] = append(e.bySym[sid], in)
		if e.candActive[sid] {
			if e.candAliased[sid] {
				e.joinCands[sid] = e.bySym[sid] // re-alias: one append, two views
			} else {
				e.joinCands[sid] = append(e.joinCands[sid], in)
			}
		}
	}
	e.parHead = append(e.parHead, -1)
	e.sizes = append(e.sizes, size)
	e.all = append(e.all, in)
	e.stats.TotalCreated++
}

// fixpoint instantiates the productions of one schedule group together: it
// repeatedly applies them until no new instance appears (procedure
// instantiate of Figure 11). The iteration is semi-naive: a component
// assignment is joined only in the first round where all its instances
// exist — at least one component must be "new" (created since the previous
// round), so recursive symbols pay per new instance instead of
// re-evaluating the whole cross product every round.
func (e *engine) fixpoint(sp *obs.Span, prods, syms []int) {
	// Compact the candidate lists once per fix point: kills only happen
	// between fix points, so liveness is frozen while this one runs and
	// dead instances can be filtered out up front instead of per join
	// visit. candActive routes instances created mid-fix-point into the
	// compacted lists (track), and marks/snap index them, not bySym. A new
	// epoch retires every join-window index built over the previous lists.
	e.winEpoch++
	for _, sid := range syms {
		if e.deadBySym[sid] == 0 {
			e.joinCands[sid] = e.bySym[sid]
			e.candAliased[sid] = true
		} else {
			cands := e.candBuf[sid][:0]
			for _, in := range e.bySym[sid] {
				if !in.Dead {
					cands = append(cands, in)
				}
			}
			e.candBuf[sid] = cands
			e.joinCands[sid] = cands
			e.candAliased[sid] = false
		}
		e.candActive[sid] = true
	}
	e.runFixpoint(sp, prods, syms)
	// Deactivate and release the lists: between fix points they must hold
	// no instance pointers of their own (the Result owns the instances once
	// the parse returns). Aliased lists are bySym's storage — drop the
	// header only; owned lists are zeroed in place (each only grew since
	// the clear above, so the backing array ends fully zeroed) and kept in
	// candBuf for reuse.
	for _, sid := range syms {
		e.candActive[sid] = false
		if !e.candAliased[sid] {
			// joinCands, not candBuf: track() may have grown (and even
			// reallocated) the list since compaction.
			clear(e.joinCands[sid])
			e.candBuf[sid] = e.joinCands[sid][:0]
		}
		e.joinCands[sid] = nil
	}
}

func (e *engine) runFixpoint(sp *obs.Span, prods, syms []int) {
	// marks[sym] = how many instances of sym existed before the current
	// round; indices at or beyond the mark are this round's frontier.
	// Zero at round 1: everything inherited from earlier groups is new
	// to this group. Only the symbols this group's productions join over
	// (syms, precomputed in the plan) need bookkeeping — nothing else is
	// read through marks or snap while this group runs.
	for _, sid := range syms {
		e.marks[sid] = 0
	}
	for {
		// The round boundary is the primary cancellation checkpoint
		// (rounds are the unit of fix-point progress); emit checks again
		// every few thousand constraint evaluations so one pathological
		// round cannot outlive its deadline unboundedly.
		if e.cancelled() {
			return
		}
		e.stats.FixpointIters++
		for _, sid := range syms {
			e.snap[sid] = len(e.joinCands[sid])
		}
		added := 0
		for _, pi := range prods {
			added += e.applyProd(&e.pl.prods[pi])
			if e.stats.Truncated {
				sp.Event("truncated", obs.Int("instances", int64(e.stats.TotalCreated)))
				return
			}
			if e.interrupted {
				return
			}
		}
		if added == 0 {
			return
		}
		for _, sid := range syms {
			e.marks[sid] = e.snap[sid]
		}
	}
}

// applyProd enumerates component assignments for one production, checks
// cover disjointness and the spatial constraint, and creates the new head
// instances. Assignments whose components all predate the round's frontier
// (per marks) were already joined in an earlier round and are skipped.
// Returns the number of instances added.
func (e *engine) applyProd(pp *prodPlan) int {
	k := len(pp.compSyms)
	for i, sid := range pp.compSyms {
		l := e.joinCands[sid]
		if len(l) == 0 {
			return 0
		}
		e.joinLists[i] = l
		e.joinOld[i] = e.marks[sid]
	}
	// One frame bind covers the whole enumeration: slots fill left to right
	// and every factor is evaluated only once its slots are bound (evalTier)
	// or the assignment is complete (emit), so no evaluation ever reads a
	// slot the current prefix has not overwritten. Binding here instead of
	// per evaluation keeps a pointer store (and its write barrier) out of
	// the join's inner loops.
	e.frame.Bind(e.children[:k])
	return e.joinSlot(pp, 0, false)
}

// joinSlot recursively fills component slot `slot` of the production and
// returns how many instances the completed assignments added. It is a
// method, not a closure, so the recursion costs no per-production
// allocation.
//
// A slot with a join window (window.go) visits only the candidates whose
// coordinate lies in the window its anchor slot's chosen instance opens,
// in ascending list position; every other candidate would fail the
// constraint's adjacency factor. A NaN bound or key scans the whole list.
func (e *engine) joinSlot(pp *prodPlan, slot int, hasNew bool) int {
	k := len(pp.compSyms)
	if slot == k {
		if !hasNew {
			return 0
		}
		return e.emit(pp)
	}
	list := e.joinLists[slot]
	// Prune early: if no new component has been chosen yet and no later
	// slot can supply one, only this slot's frontier can make the
	// assignment new, so the scan starts there. (Candidate lists are
	// alive-compacted per fix point, so no liveness check runs here.)
	from := 0
	if !hasNew {
		from = e.joinOld[slot]
		for j := slot + 1; j < k; j++ {
			if len(e.joinLists[j]) > e.joinOld[j] {
				from = 0
				break
			}
		}
	}
	var hits []uint64
	if pp.win != nil && pp.win[slot].on {
		hits = e.windowHits(&pp.win[slot], pp.compSyms[slot], slot, from, list)
	}
	added := 0
	next, wi, word := from, -1, uint64(0)
	for {
		var idx int
		if hits != nil {
			for word == 0 {
				if wi++; wi >= len(hits) {
					return added
				}
				word = hits[wi]
			}
			idx = wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
		} else {
			if next >= len(list) {
				return added
			}
			idx = next
			next++
		}
		cand := list[idx]
		// Components must not compete for tokens within one instance: slot 1
		// tests pairwise, deeper slots against the running cover union of
		// the chosen prefix (joinCover[s] = cover of children[0..s-1]).
		if slot == 1 {
			if e.children[0].Cover.Intersects(cand.Cover) {
				continue
			}
		} else if slot >= 2 {
			if e.joinCover[slot].Intersects(cand.Cover) {
				continue
			}
		}
		e.children[slot] = cand
		// Predicate pushdown: evaluate every constraint factor that becomes
		// fully bound at this slot, before enumerating anything deeper. A
		// rejection here prunes the entire subtree of candidate combinations
		// this prefix would have rooted.
		if pp.conj != nil && !e.evalTier(pp, slot) {
			if e.stats.Truncated || e.interrupted {
				return added
			}
			continue
		}
		if nxt := slot + 1; nxt >= 2 && nxt < k {
			u := e.joinCover[nxt]
			if nxt == 2 {
				u.CopyFrom(e.children[0].Cover)
			} else {
				u.CopyFrom(e.joinCover[slot])
			}
			u.UnionWith(cand.Cover)
		}
		added += e.joinSlot(pp, slot+1, hasNew || idx >= e.joinOld[slot])
		if e.stats.Truncated || e.interrupted {
			return added
		}
	}
}

// emit evaluates the production constraint over the completed assignment
// and, if it holds and the derivation is new, builds the head instance.
// Decomposed constraints (pp.conj non-nil) were already fully checked tier
// by tier inside joinSlot — every factor's tier is at most the last slot —
// so emit goes straight to dedup for them.
func (e *engine) emit(pp *prodPlan) int {
	k := len(pp.compSyms)
	children := e.children[:k]
	if pp.conj == nil {
		e.stats.ConstraintEvals++
		e.evalsUntilCheck--
		if e.evalsUntilCheck <= 0 {
			e.evalsUntilCheck = ctxCheckEvery
			if e.cancelled() {
				return 0
			}
		}
		if e.opt.Interpreted {
			// The oracle path. Bind is cleared first so entries from other
			// productions (or preference evaluations) cannot leak into this
			// constraint's environment when variable names are reused.
			clear(e.evalCtx.Bind)
			for i, c := range pp.p.Components {
				e.evalCtx.Bind[c.Var] = children[i]
			}
			if !grammar.EvalBool(pp.p.Constraint, e.evalCtx) {
				return 0
			}
		} else if !pp.constraint.EvalBool(e.frame) {
			// applyProd bound the frame to the children scratch already.
			return 0
		}
	}
	// Structural identity: a derivation is identified by its head symbol
	// and component instances. Distinct derivations of the same token set
	// stay distinct — that is exactly the ambiguity the preferences (not
	// the dedup) must resolve, and what the brute-force ablation must be
	// able to count.
	e.keyBuf = append(e.keyBuf[:0], int32(pp.headID))
	for _, c := range children {
		e.keyBuf = append(e.keyBuf, int32(c.ID))
	}
	if !e.dedup.insert(e.keyBuf) {
		return 0
	}
	inst := e.newInstance()
	inst.ID = e.nextID
	e.nextID++
	inst.Sym = pp.p.Head
	inst.Prod = pp.p
	inst.Children = e.copyChildren(children)
	// The universal constructor, against slab storage: pos is the
	// components' bounding box, cover the union of their covers (the same
	// computation as grammar.Build).
	cover := e.arena.New()
	cover.CopyFrom(children[0].Cover)
	inst.Pos = children[0].Pos
	for _, c := range children[1:] {
		cover.UnionWith(c.Cover)
		inst.Pos = inst.Pos.Union(c.Pos)
	}
	inst.Cover = cover
	pid := int32(inst.ID)
	size := int32(1)
	for _, c := range inst.Children {
		e.addParent(c.ID, pid)
		size += e.sizes[c.ID]
	}
	e.track(inst, pp.headID, size)
	if e.stats.TotalCreated >= e.opt.MaxInstances {
		e.stats.Truncated = true
	}
	return 1
}

// evalTier evaluates the constraint factors that become fully bound when
// join slot `slot` is filled — segment slot of the production's conjunct
// schedule — short-circuiting on the first rejecting factor. The order
// within a tier is observationally pure — under EvalBool semantics the
// ∧-factors commute (see grammar.CompiledProd) — so any order gives the
// original constraint's verdict; the schedule only decides how little work
// a rejection costs and how much of the enumeration it prunes.
//
// Both evaluation modes run the same tiers over the same prefixes: the
// compiled path evaluates each factor's unboxed form against the frame,
// the interpreted oracle evaluates the identical source factor through the
// tree-walking interpreter with exactly the bound prefix in scope — so a
// compiled-vs-interpreted divergence on any factor still splits the two
// modes' instance sets and trips parity.
func (e *engine) evalTier(pp *prodPlan, slot int) bool {
	co := &pp.order
	lo, hi := co.tier[slot], co.tier[slot+1]
	if lo == hi {
		return true
	}
	e.stats.ConstraintEvals++
	e.evalsUntilCheck--
	if e.evalsUntilCheck <= 0 {
		e.evalsUntilCheck = ctxCheckEvery
		if e.cancelled() {
			return false
		}
	}
	if e.opt.Interpreted {
		clear(e.evalCtx.Bind)
		for i := 0; i <= slot; i++ {
			e.evalCtx.Bind[pp.p.Components[i].Var] = e.children[i]
		}
		for _, ci := range co.ord[lo:hi] {
			if !grammar.EvalBool(pp.conj[ci].Src, e.evalCtx) {
				return false
			}
		}
		return true
	}
	for _, ci := range co.ord[lo:hi] {
		if !pp.conj[ci].Expr.EvalBool(e.frame) {
			return false
		}
	}
	return true
}

// enforce applies one preference (procedure enforce of Figure 11): for
// every alive loser instance, if some alive winner instance conflicts with
// it under U and satisfies the winning criteria W, the loser is invalidated
// and its ancestors rolled back. Returns the number of direct kills.
//
// When the preference uses the default conflicting condition (cover
// intersection), losers are prefiltered against the union of the winners'
// covers: a loser disjoint from every winner cannot be killed, and the
// one-bitset test skips the whole winner scan for it. The prefilter is
// conservative — winners that die mid-enforcement stay in the union — so
// the alive checks in the inner loop still decide every kill.
func (e *engine) enforce(sp *obs.Span, pi int) int {
	if e.cancelled() {
		return 0
	}
	pp := &e.pl.prefs[pi]
	losers := e.bySym[pp.loserID]
	winners := e.bySym[pp.winnerID]
	if len(losers) == 0 || len(winners) == 0 {
		return 0
	}
	defaultCond := pp.p.Cond == nil
	if defaultCond {
		e.coverUnion.Reset(e.stats.Tokens)
		live := false
		for _, w := range winners {
			if !w.Dead {
				e.coverUnion.UnionWith(w.Cover)
				live = true
			}
		}
		if !live {
			return 0
		}
	}
	rolled0 := e.stats.RolledBack
	kills := 0
	e.spareFor = nil
	for _, l := range losers {
		if l.Dead {
			continue
		}
		if defaultCond && !l.Cover.Intersects(e.coverUnion) {
			continue
		}
		for _, w := range winners {
			if w.Dead || w == l {
				continue
			}
			if !e.prefHolds(pp, w, l) {
				continue
			}
			// See the kill comment for why the winner's own subtree is
			// spared from rollback. The spare set is memoized: consecutive
			// losers usually fall to the same winner.
			if e.spareFor != w {
				e.spare.Reset(e.nextID)
				markSubtree(w, e.spare)
				e.spareFor = w
			}
			e.kill(l, e.spare, true)
			kills++
			break
		}
	}
	if kills > 0 && sp != nil {
		sp.Event("prune", obs.Str("pref", pp.p.Name),
			obs.Int("killed", int64(kills)),
			obs.Int("rolledBack", int64(e.stats.RolledBack-rolled0)))
	}
	return kills
}

// prefHolds evaluates one preference over a winner/loser pair: the
// conflicting condition U (cover intersection by default), then the winning
// criteria W.
func (e *engine) prefHolds(pp *prefPlan, w, l *grammar.Instance) bool {
	if e.opt.Interpreted {
		clear(e.evalCtx.Bind)
		e.evalCtx.Bind[pp.p.WinnerVar] = w
		e.evalCtx.Bind[pp.p.LoserVar] = l
		if pp.p.Cond == nil {
			if !w.Cover.Intersects(l.Cover) {
				return false
			}
		} else if !grammar.EvalBool(pp.p.Cond, e.evalCtx) {
			return false
		}
		return pp.p.Win == nil || grammar.EvalBool(pp.p.Win, e.evalCtx)
	}
	e.pair[0], e.pair[1] = w, l
	e.frame.Bind(e.pair[:])
	if pp.p.Cond == nil {
		if !w.Cover.Intersects(l.Cover) {
			return false
		}
	} else if !pp.cond.EvalBool(e.frame) {
		return false
	}
	return pp.p.Win == nil || pp.win.EvalBool(e.frame)
}

// markSubtree adds the IDs of every node of in's subtree to the set.
func markSubtree(in *grammar.Instance, s bitset.Set) {
	s.Add(in.ID)
	for _, c := range in.Children {
		markSubtree(c, s)
	}
}

// kill invalidates an instance and rolls back every alive ancestor built on
// top of it (procedure Rollback of Figure 11) — false instances may have
// participated in further instantiations, producing false parents that must
// be erased too.
//
// A subtlety the subsume-type preferences (the paper's R2: the longer list
// wins) force on rollback: the winner is often BUILT FROM the loser — the
// length-2 radio list is a subtree of the length-3 winner. Naive ancestor
// rollback from the loser would destroy the winner's own derivation. The
// kill therefore spares ancestors that are nodes of the winner's subtree:
// the loser dies as a standalone interpretation (it can no longer feed new
// instantiations or stand as a parse tree) while the winner's derivation
// through it stays intact. Parents outside the winner's subtree — e.g. an
// EnumRB reading of the short list — are rolled back as usual.
func (e *engine) kill(in *grammar.Instance, spare bitset.Set, direct bool) {
	if in.Dead {
		return
	}
	in.Dead = true
	if direct {
		e.stats.Pruned++
	} else {
		e.stats.RolledBack++
	}
	if sid, ok := e.pl.symID[in.Sym]; ok {
		e.deadBySym[sid]++
	}
	for ei := e.parHead[in.ID]; ei >= 0; {
		edge := e.parEdges[ei]
		ei = edge.next
		if spare.Has(int(edge.parent)) {
			continue
		}
		e.kill(e.all[edge.parent], spare, false)
	}
}

// compact copies the subgraph the roots reach — the roots and every
// instance their subtrees run through — into exact-size Result-owned
// storage, in creation (ID) order, and rewrites roots in place to point at
// the copies. Three blocks hold it all: the instance structs, the child
// pointers and the cover words. The production path passes the maximal
// trees, the only instances a Result exposes. Reachability must be
// computed, not equated with liveness: winner-subtree sparing (see kill)
// deliberately leaves a dead loser as a child inside its winner's alive
// derivation, so alive trees can contain dead nodes. The payoff is at
// release: every instance, child and cover slab goes back to the engine
// instead of being pinned by the Result, so steady-state parsing allocates
// storage proportional to the trees rather than to everything the join
// ever built.
func (e *engine) compact(roots []*grammar.Instance) {
	if cap(e.reach) < len(e.all) {
		e.reach = make([]bool, len(e.all))
	}
	e.reach = e.reach[:len(e.all)]
	clear(e.reach)
	for _, in := range roots {
		e.markReach(in)
	}
	nReach, nKids, nWords := 0, 0, 0
	for _, in := range e.all {
		if e.reach[in.ID] {
			nReach++
			nKids += len(in.Children)
			nWords += in.Cover.Words()
		}
	}
	dst := make([]grammar.Instance, nReach)
	kids := make([]*grammar.Instance, nKids)
	words := make([]uint64, nWords)
	if cap(e.remap) < len(e.all) {
		e.remap = make([]*grammar.Instance, len(e.all))
	}
	remap := e.remap[:len(e.all)]
	idx := 0
	for _, in := range e.all {
		if !e.reach[in.ID] {
			remap[in.ID] = nil
			continue
		}
		dst[idx] = *in
		dst[idx].Cover = in.Cover.CloneInto(words)
		words = words[in.Cover.Words():]
		remap[in.ID] = &dst[idx]
		idx++
	}
	kidx := 0
	for i := range dst {
		cs := dst[i].Children
		if len(cs) == 0 {
			continue
		}
		out := kids[kidx : kidx : kidx+len(cs)]
		for _, c := range cs {
			out = append(out, remap[c.ID])
		}
		kidx += len(cs)
		dst[i].Children = out
	}
	for i, r := range roots {
		roots[i] = remap[r.ID]
	}
}

// markReach marks in's subtree reachable (compaction scratch).
func (e *engine) markReach(in *grammar.Instance) {
	if e.reach[in.ID] {
		return
	}
	e.reach[in.ID] = true
	for _, c := range in.Children {
		e.markReach(c)
	}
}

// maxKey is the precomputed per-candidate sort key of maximize: the cover
// popcount and the subtree node count.
type maxKey struct{ count, size int32 }

// maximize implements partial-tree maximization (Section 5.3): the parse
// trees kept are alive nonterminal instances whose covers are maximal under
// subsumption. Roots (instances with no alive parent) are the only
// candidates — an instance with an alive parent is subsumed by that
// parent's tree. Among equal covers the instance closest to the start
// symbol (then the larger, then the earlier) represents the interpretation.
//
// One sort orders candidates by descending cover size, then member order,
// then representative quality; equal covers are then adjacent (first is the
// representative) and every proper subsumer of a candidate precedes it, so
// a single sweep against the kept maximal set finishes the job.
func (e *engine) maximize(startSym string) []*grammar.Instance {
	cands := e.maxCands[:0]
	for _, in := range e.all {
		if in.Dead || in.IsTerminal() {
			continue
		}
		hasLiveParent := false
		for ei := e.parHead[in.ID]; ei >= 0; ei = e.parEdges[ei].next {
			if !e.all[e.parEdges[ei].parent].Dead {
				hasLiveParent = true
				break
			}
		}
		if !hasLiveParent {
			cands = append(cands, in)
		}
	}
	// Precompute the sort keys the comparator would otherwise recompute per
	// comparison: cover popcount and subtree size, ID-indexed (IDs index
	// e.all, so candidate IDs are in range). Sizes were recorded at
	// creation, so no subtree is walked here.
	if cap(e.maxKeys) < len(e.all) {
		e.maxKeys = make([]maxKey, len(e.all))
	}
	keys := e.maxKeys[:len(e.all)]
	for _, in := range cands {
		keys[in.ID] = maxKey{count: int32(in.Cover.Count()), size: e.sizes[in.ID]}
	}
	// The order is total (IDs break every tie), so the sort algorithm
	// cannot change the result.
	slices.SortFunc(cands, func(a, b *grammar.Instance) int {
		ka, kb := keys[a.ID], keys[b.ID]
		if ka.count != kb.count {
			return int(kb.count - ka.count)
		}
		if c := a.Cover.Compare(b.Cover); c != 0 {
			return c
		}
		// Equal covers: the better representative first.
		if as, bs := a.Sym == startSym, b.Sym == startSym; as != bs {
			if as {
				return -1
			}
			return 1
		}
		if ka.size != kb.size {
			return int(kb.size - ka.size)
		}
		return a.ID - b.ID
	})
	e.maxCands = cands // keep grown capacity for the next parse
	// The sweep tests each candidate only against the kept trees that
	// cover its rarest token: a tree lacking any member of c cannot
	// properly subsume it, so the verdicts are those of a test against
	// every kept tree. maxPost[t] lists, in keep order, the kept trees
	// covering token t. (Nonterminal covers are never empty, so every
	// candidate has a rarest token.) Without the posting lists the sweep
	// is quadratic in the kept trees, which a truncated pathological
	// parse can make tens of thousands.
	post := e.maxPost
	if cap(post) < e.stats.Tokens {
		post = make([][]int32, e.stats.Tokens)
	}
	post = post[:e.stats.Tokens]
	for t := range post {
		post[t] = post[t][:0]
	}
	e.maxPost = post
	var maximal []*grammar.Instance
	for i, c := range cands {
		if i > 0 && c.Cover.Equal(cands[i-1].Cover) {
			continue // duplicate cover; the representative came first
		}
		e.maxMembers = c.Cover.AppendMembers(e.maxMembers[:0])
		var rarest []int32
		for j, t := range e.maxMembers {
			if j == 0 || len(post[t]) < len(rarest) {
				rarest = post[t]
			}
		}
		subsumed := false
		for _, mi := range rarest {
			if c.Cover.ProperSubsetOf(maximal[mi].Cover) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			for _, t := range e.maxMembers {
				post[t] = append(post[t], int32(len(maximal)))
			}
			maximal = append(maximal, c)
		}
	}
	return maximal
}
