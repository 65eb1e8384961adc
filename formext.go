// Package formext extracts the semantic model of Web query interfaces —
// the query conditions [attribute; operators; domain] an HTML form
// supports — by best-effort parsing against a hidden-syntax 2P grammar.
//
// It is a from-scratch implementation of Zhang, He & Chang, "Understanding
// Web Query Interfaces: Best-Effort Parsing with Hidden Syntax" (SIGMOD
// 2004): query interfaces are treated as sentences of a visual language
// whose non-prescribed grammar is derived from cross-site presentation
// conventions; understanding a form is parsing it.
//
// The pipeline (Figure 2 of the paper) is:
//
//	HTML  →  layout engine  →  tokenizer  →  best-effort parser  →  merger
//	                                          (2P grammar)
//
// Basic use:
//
//	ex, err := formext.New()
//	res, err := ex.ExtractHTML(htmlSource)
//	for _, c := range res.Model.Conditions { fmt.Println(c) }
package formext

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"formext/internal/core"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/merger"
	"formext/internal/model"
	"formext/internal/obs"
	"formext/internal/submit"
	"formext/internal/token"
)

// Re-exported model types, so callers outside this module can name every
// type that appears in the public API.
type (
	// Condition is one query condition [attribute; operators; domain].
	Condition = model.Condition
	// Domain describes a condition's allowed values.
	Domain = model.Domain
	// DomainKind classifies domains (text, enum, bool, range, date).
	DomainKind = model.DomainKind
	// SemanticModel is the extracted capability description of a form.
	SemanticModel = model.SemanticModel
	// Conflict reports a token claimed by two conditions.
	Conflict = model.Conflict
	// Constraint is a user-formulated instance of a condition.
	Constraint = model.Constraint
	// Token is an atomic visual element of the rendered form.
	Token = token.Token
	// Grammar is a 2P grammar ⟨Σ, N, s, Pd, Pf⟩.
	Grammar = grammar.Grammar
	// Instance is a (partial) parse tree node.
	Instance = grammar.Instance
	// ParseStats reports the parser's internal work: instances created,
	// prunes, rollbacks, fix-point rounds, parse trees.
	ParseStats = core.Stats
	// FormInfo is the submission envelope (action, method, hidden fields).
	FormInfo = submit.FormInfo
	// Query accumulates bound constraints for submission.
	Query = submit.Query

	// Tracer hands out per-extraction traces; attach one with
	// Options.Tracer. Nil means tracing off at zero cost.
	Tracer = obs.Tracer
	// Trace is one traced extraction: a span tree rooted at "extract".
	Trace = obs.Trace
	// Span is one timed region of a trace (a pipeline stage, a fix-point
	// group).
	Span = obs.Span
	// TraceSink receives completed traces (ring buffer, JSON lines, ...).
	TraceSink = obs.Sink
	// RingSink is the in-memory flight recorder sink.
	RingSink = obs.RingSink
	// JSONLSink writes each completed trace as one JSON line.
	JSONLSink = obs.JSONLSink
	// StageTimings records per-stage wall time for one extraction.
	StageTimings = obs.StageTimings
	// Histogram is the fixed-bucket latency histogram formserve publishes.
	Histogram = obs.Histogram
)

// NewTracer returns a tracer delivering completed traces to sink; a nil
// sink yields a disabled tracer (Start allocates nothing).
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewRingSink returns an in-memory sink keeping the last capacity traces.
func NewRingSink(capacity int) *RingSink { return obs.NewRingSink(capacity) }

// NewJSONLSink returns a sink writing each completed trace as one JSON
// line to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewHistogram returns a fixed-bucket histogram over the given ascending
// upper bounds (a 100µs–10s latency layout when none are given). It
// implements expvar.Var, so servers publish it directly on /metrics.
func NewHistogram(bounds ...int64) *Histogram { return obs.NewHistogram(bounds...) }

// MergeStats counts the merger's output and its two error classes
// (Section 3.4): conflicts and missing elements. The counts equal the
// lengths of the corresponding SemanticModel slices by construction.
type MergeStats struct {
	Conditions int
	Conflicts  int
	Missing    int
}

// Stats is the per-Result observability snapshot: the parser's internal
// counters (embedded, so res.Stats.TotalCreated and friends read as
// before), per-stage wall times, the merge report, and the trace ID when a
// tracer was attached. Stage timings are recorded on every extraction —
// they cost ten clock reads — while spans and events exist only under a
// tracer.
type Stats struct {
	ParseStats
	// Stages holds per-stage wall time (htmlparse, layout, tokenize,
	// parse, merge).
	Stages StageTimings
	// Merge counts conditions, conflicts and missing elements.
	Merge MergeStats
	// TraceID identifies this extraction's trace, when a tracer was
	// attached ("" otherwise).
	TraceID string `json:",omitempty"`
	// CacheHit marks a result served from Options.Cache: no pipeline stage
	// ran, so Stages is zeroed (the populating extraction's timings are
	// not replayed), while the counter stats still describe the shared
	// frozen artifacts.
	CacheHit bool `json:",omitempty"`
	// Coalesced marks a result obtained by waiting on an identical
	// in-flight extraction (a cache singleflight, or a byte-identical page
	// deduplicated within one ExtractAll batch) instead of running one.
	Coalesced bool `json:",omitempty"`
	// Degraded lists, in pipeline order, every way this extraction was cut
	// short by an input budget, the parse budget, or cancellation: depth
	// caps, token caps, interrupted stages, instance truncation. Empty means
	// the page was processed in full. A degraded extraction is still a
	// successful one — the result holds the best partial interpretation, per
	// the paper's best-effort contract.
	Degraded []string `json:",omitempty"`
}

// Default input budgets. They bound work on hostile pages while staying far
// above anything a real query interface needs; see Options.MaxDepth and
// Options.MaxTokens for the degradation semantics.
const (
	// DefaultMaxDepth is the default HTML element nesting cap.
	DefaultMaxDepth = htmlparse.DefaultMaxDepth
	// DefaultMaxTokens is the default cap on tokens fed to the parser.
	DefaultMaxTokens = 20000
)

// PanicError reports a panic recovered during extraction. The extraction
// that panicked is lost, but the process is not: serving layers map it to
// an internal error response and every other extraction proceeds. Stats
// snapshots the counters accumulated before the failure, and Stack is the
// panicking goroutine's stack for diagnosis.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
	// Stats are the per-extraction statistics up to the point of failure.
	Stats Stats
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("formext: extraction panicked: %v", e.Value)
}

// Domain kind constants, re-exported.
const (
	TextDomain  = model.TextDomain
	EnumDomain  = model.EnumDomain
	BoolDomain  = model.BoolDomain
	RangeDomain = model.RangeDomain
	DateDomain  = model.DateDomain
)

// Result is everything one extraction produces: the semantic model plus the
// intermediate artifacts (tokens, maximal parse trees, parser statistics)
// for clients that want to inspect or post-process them.
//
// Ownership rule: a Result returned by an uncached extraction is owned by
// its caller — it holds the per-parse slabs the instances were carved from,
// and its parse trees memoize text lazily, so it must be confined to one
// goroutine unless frozen first. A Result served from a Cache (or a
// deduplicated ExtractAll page) is a caller-owned Result struct over shared
// frozen artifacts: Model, Tokens, Trees and Form are immutable and safe
// for any number of concurrent readers, and must not be mutated. Freeze
// converts the former into the latter.
type Result struct {
	// Model is the extracted semantic model: conditions, conflicts,
	// missing elements.
	Model *SemanticModel
	// Tokens is the tokenized form, in render order.
	Tokens []*Token
	// Trees holds the maximal partial parse trees, largest cover first.
	Trees []*Instance
	// Stats reports the parser's work.
	Stats Stats
	// Form is the submission envelope of the extracted form (zero when
	// extraction started from tokens rather than HTML).
	Form FormInfo

	// frozen marks a result whose lazy state has been materialized by
	// Freeze; cost is its approximate byte footprint, for cache accounting.
	frozen bool
	cost   int64
	// arenaBytes is what the front end handed over when its arenas were
	// released: the DOM, render-text and token slabs the result retains,
	// plus the source buffer the tree aliases. Freeze folds it into cost,
	// replacing the page-size proxy the cache used before arenas made the
	// figure exact.
	arenaBytes int64
}

// NewQuery starts a submittable query over the extracted form; bind
// constraints with Query.Apply and render with Query.URL or Query.Encode.
func (r *Result) NewQuery() *Query { return submit.NewQuery(r.Form) }

// Explain describes how one token was interpreted: the derivation chain
// from the maximal parse tree's root down to the token, one line per
// level with the production that built it. Tokens no tree covers are
// reported as such. The output is a human-readable diagnostic, not a
// stable format.
func (r *Result) Explain(tokenID int) string {
	if tokenID < 0 || tokenID >= len(r.Tokens) {
		return fmt.Sprintf("token %d out of range [0, %d)", tokenID, len(r.Tokens))
	}
	for _, tree := range r.Trees {
		if !tree.Cover.Has(tokenID) {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "token %s\n", r.Tokens[tokenID])
		depth := 0
		node := tree
		for node != nil {
			indent := strings.Repeat("  ", depth)
			if node.Token != nil {
				fmt.Fprintf(&sb, "%s%s (terminal)\n", indent, node.Sym)
				break
			}
			fmt.Fprintf(&sb, "%s%s (via %s, covers %d tokens)\n",
				indent, node.Sym, node.Prod.Name, node.Cover.Count())
			var next *Instance
			for _, c := range node.Children {
				if c.Cover.Has(tokenID) {
					next = c
					break
				}
			}
			node = next
			depth++
		}
		return sb.String()
	}
	return fmt.Sprintf("token %s is not covered by any parse tree", r.Tokens[tokenID])
}

// Options configures an Extractor.
type Options struct {
	// GrammarSource is 2P-grammar DSL text; empty means the embedded
	// derived global grammar (grammar.DefaultSource).
	GrammarSource string
	// Viewport is the layout width in pixels (default 800).
	Viewport float64
	// Thresholds overrides the spatial-relation thresholds; the zero value
	// means geom.DefaultThresholds.
	Thresholds geom.Thresholds
	// DisablePreferences turns off all ambiguity pruning (the brute-force
	// ablation of Section 4.2.1).
	DisablePreferences bool
	// DisableScheduling replaces the 2P schedule with one global fix point
	// and end-of-parse (late) pruning.
	DisableScheduling bool
	// MaxInstances caps instance creation (0 = core.DefaultMaxInstances).
	MaxInstances int
	// MaxDepth caps HTML element nesting: elements opened beyond the cap
	// are flattened onto the capped level instead of deepening the tree, so
	// adversarially nested pages cannot exhaust the stack. 0 means
	// DefaultMaxDepth; negative means unlimited. A capped parse records a
	// Stats.Degraded entry.
	MaxDepth int
	// MaxTokens caps how many tokens the tokenizer hands to the parser; the
	// surplus (in render order, so the page tail) is dropped and recorded in
	// Stats.Degraded. 0 means DefaultMaxTokens; negative means unlimited.
	MaxTokens int
	// ParseBudget bounds one extraction's wall time. When it expires the
	// pipeline stops where it is and returns the partial result with
	// Stats.Degraded entries — no error, because a degraded result is the
	// best-effort answer, not a failure. 0 means no budget. Cancellation of
	// the caller's context, by contrast, is an error: the caller asked the
	// work to stop, so nobody is waiting for the partial answer.
	ParseBudget time.Duration
	// InterpretedEval evaluates grammar expressions by walking their ASTs
	// instead of through the compiled per-grammar evaluation plan. The two
	// modes produce identical results; the interpreter survives as the
	// semantic reference (and differential-test oracle) for the compiler.
	InterpretedEval bool
	// Tracer, when non-nil and enabled, records a Trace per extraction:
	// per-stage spans with structured events (fix-point groups, prunes,
	// merge conflicts) delivered to the tracer's sink, plus pprof stage
	// labels. Nil (the default) keeps the pipeline on the untraced path,
	// whose only added cost is the per-stage wall clock reads.
	Tracer *Tracer
	// Cache, when non-nil, is consulted by every HTML extraction —
	// ExtractHTML, ExtractHTMLContext, ExtractBytes, and the ExtractAll and
	// ExtractStream workers when the options flow through them: results are
	// addressed by the content hash of the page bytes plus the grammar and
	// options fingerprints, a hit skips the whole pipeline, and concurrent
	// identical requests coalesce into a single extraction. Cached results
	// are frozen and shared — see the Result ownership rule. One Cache may
	// back any number of extractors with different options. ExtractTokens
	// is never cached (there are no raw page bytes to address it by).
	Cache *Cache
}

// Extractor is the form extractor of Figure 2. It holds only immutable
// configuration — the compiled grammar and 2P schedule, the layout and
// tokenizer settings, the cache-key prefix — so one Extractor is safe for
// concurrent use by any number of goroutines and is meant to be shared:
// the parser pools its own per-parse engines, the front-end arenas are
// pooled process-wide, and all other per-parse state is allocated per
// call. Servers build one Extractor at startup and serve every request
// through it; ExtractAll and ExtractStream share one across their workers.
//
// The one caveat: the Grammar returned by Grammar() is shared (for the
// default options it is shared process-wide) and must not be mutated.
type Extractor struct {
	opts      Options
	grammar   *grammar.Grammar
	parser    *core.Parser
	merger    *merger.Merger
	layout    *layout.Engine
	tokenizer *token.Tokenizer
	maxTokens int      // resolved: 0 means unlimited
	keyPrefix [32]byte // grammar + options fingerprint (always set; keys route with or without a cache)
}

// New builds an extractor. With no options it uses the embedded derived
// global grammar, an 800px viewport and default thresholds.
//
// The default grammar is compiled exactly once per process and shared by
// every extractor (as is its 2P schedule), so constructing extractors is
// cheap; a custom GrammarSource is parsed on every call. The returned
// grammar is shared and must be treated as read-only.
func New(opts ...Options) (*Extractor, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("formext: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	g := grammar.Default()
	if o.GrammarSource != "" {
		var err error
		if g, err = grammar.ParseDSL(o.GrammarSource); err != nil {
			return nil, fmt.Errorf("formext: %w", err)
		}
	}
	parser, err := core.NewParser(g, core.Options{
		Thresholds:         o.Thresholds,
		DisablePreferences: o.DisablePreferences,
		DisableScheduling:  o.DisableScheduling,
		MaxInstances:       o.MaxInstances,
		Interpreted:        o.InterpretedEval,
	})
	if err != nil {
		return nil, fmt.Errorf("formext: %w", err)
	}
	eng := layout.New()
	if o.Viewport > 0 {
		eng.Viewport = o.Viewport
	}
	maxTokens := o.MaxTokens
	if maxTokens == 0 {
		maxTokens = DefaultMaxTokens
	} else if maxTokens < 0 {
		maxTokens = 0 // unlimited
	}
	e := &Extractor{
		opts:      o,
		grammar:   g,
		parser:    parser,
		merger:    merger.New(g),
		layout:    eng,
		tokenizer: token.NewTokenizer(),
		maxTokens: maxTokens,
	}
	// The key prefix is computed unconditionally — one hash at construction —
	// because keys are the coordination currency beyond caching: the cluster
	// tier routes by them (ExtractKey) whether or not a local cache exists.
	e.keyPrefix = cachePrefix(g, o, eng.Viewport, maxTokens, o.ParseBudget > 0)
	return e, nil
}

// Grammar returns the grammar the extractor parses against.
func (e *Extractor) Grammar() *Grammar { return e.grammar }

// Options returns the options the extractor was built with.
func (e *Extractor) Options() Options { return e.opts }

// ExtractHTML runs the full pipeline on HTML source.
func (e *Extractor) ExtractHTML(src string) (*Result, error) {
	return e.ExtractHTMLContext(context.Background(), src)
}

// ExtractHTMLContext is ExtractHTML under caller cancellation. The context
// is checked at coarse checkpoints throughout every stage; when it ends,
// the pipeline stops where it is and returns the partial Result it
// accumulated — tokens, trees, stats, Stats.Degraded — together with an
// error wrapping the context's. The Result is non-nil even on error, so
// servers can log where a cancelled page's time went. (One exception: with
// a cache attached, a request whose context ends while waiting on another
// request's identical in-flight extraction returns a nil Result — it never
// started a pipeline of its own.)
//
// Options.ParseBudget composes with ctx (whichever ends first wins), but a
// budget expiry is not an error: the partial result is returned with nil
// error and Stats.Degraded populated.
//
// With Options.Cache set, the raw page bytes are hashed first: a hit
// returns a shared frozen result without running any stage, and concurrent
// identical misses coalesce into one extraction.
func (e *Extractor) ExtractHTMLContext(ctx context.Context, src string) (*Result, error) {
	return e.ExtractBytes(ctx, viewBytes(src))
}

// ExtractBytes is ExtractHTMLContext over a byte buffer. The whole front
// end — cache-key hashing, lexing, the DOM — reads src in place, and the
// resulting tree and tokens alias it wherever the syntax allows, so src
// must not be modified for as long as the Result (or any cache holding it)
// is alive. Callers that reuse their buffer must copy first; callers
// serving pages already held as []byte (formserve request bodies, crawler
// fetches) skip the page-sized string conversion the string API forces.
func (e *Extractor) ExtractBytes(ctx context.Context, src []byte) (*Result, error) {
	if e.opts.Cache != nil {
		return e.cachedExtract(ctx, src)
	}
	return e.extractBytesEvent(ctx, src, "")
}

// extractBytesEvent is the uncached pipeline with the cache outcome
// recorded on the trace: a non-empty cacheEvent (obs.EventCacheMiss on a
// flight leader) becomes a cache span ahead of the pipeline stages, so
// /traces shows why this request ran the pipeline at all. The returned
// Result is always non-nil, carrying the tokens and stage timings
// accumulated up to the point of failure, and panics anywhere in the
// pipeline are recovered into a *PanicError carrying the pre-failure stats.
//
// The front half runs on a pooled arena bundle: DOM nodes, layout boxes and
// tokens are carved from slabs instead of allocated one by one. The
// deferred release hands the retained blocks to the Result (recording their
// size for cache accounting) and returns the emptied bundle to the pool —
// on every exit path, panics included, so a torn extraction can never leak
// a half-filled arena back into circulation.
func (e *Extractor) extractBytesEvent(ctx context.Context, src []byte, cacheEvent string) (res *Result, err error) {
	budgetCtx, cancel := e.budgetContext(ctx)
	defer cancel()
	tr := e.opts.Tracer.Start("extract")
	defer tr.End()
	if cacheEvent != "" {
		csp := tr.Span(obs.StageCache)
		csp.Event(cacheEvent)
		csp.End()
	}
	res = &Result{Stats: Stats{TraceID: tr.TraceID()}}
	defer e.contain(tr, res, &err)
	fa := frontArenas.Get().(*frontArena)
	defer func() {
		// The tree aliases src zero-copy, so the source buffer itself is
		// part of what the result keeps resident.
		res.arenaBytes = fa.release() + int64(len(src))
		frontArenas.Put(fa)
	}()

	var doc *htmlparse.Node
	var trunc htmlparse.Trunc
	runStage(tr, obs.StageHTMLParse, &res.Stats.Stages.HTMLParse, func(sp *Span) {
		doc, trunc = htmlparse.ParseBytes(budgetCtx, src, htmlparse.Limits{MaxDepth: e.opts.MaxDepth}, &fa.dom)
		if sp != nil {
			ds := htmlparse.StatsOf(doc)
			sp.SetInt("bytes", int64(len(src)))
			sp.SetInt("elements", int64(ds.Elements))
			sp.SetInt("texts", int64(ds.Texts))
			sp.SetInt("maxDepth", int64(ds.MaxDepth))
		}
	})
	// The submission envelope comes from the document, which exists from
	// here on — fill it now so even cut-short extractions report it. On
	// multi-form pages this first pick is provisional: once the model
	// exists, the envelope is re-picked to the form whose controls the
	// extraction actually described (a nav keyword box often precedes the
	// real query form).
	formInfos := submit.FormInfosOf(doc)
	res.Form = submit.BestForm(formInfos, nil)
	if trunc.DepthCapped {
		e.degrade(tr, res, "htmlparse: nesting depth capped")
	}
	if trunc.Err != nil {
		if cerr := ctx.Err(); cerr != nil {
			e.degrade(tr, res, "htmlparse: cancelled")
			return res, fmt.Errorf("formext: html parse interrupted: %w", cerr)
		}
		e.degrade(tr, res, "htmlparse: parse budget exhausted")
	}

	var boxes *layout.Box
	var lerr error
	runStage(tr, obs.StageLayout, &res.Stats.Stages.Layout, func(sp *Span) {
		boxes, lerr = e.layout.LayoutArena(budgetCtx, doc, &fa.lay)
		if sp != nil {
			bs := layout.StatsOf(boxes)
			sp.SetInt("boxes", int64(bs.Total()))
			sp.SetInt("textBoxes", int64(bs.Texts))
			sp.SetInt("widgetBoxes", int64(bs.Widgets))
			sp.SetInt("pageHeight", int64(bs.Height))
		}
	})
	if lerr != nil {
		if cerr := ctx.Err(); cerr != nil {
			e.degrade(tr, res, "layout: cancelled")
			return res, fmt.Errorf("formext: layout interrupted: %w", cerr)
		}
		e.degrade(tr, res, "layout: parse budget exhausted")
	}

	runStage(tr, obs.StageTokenize, &res.Stats.Stages.Tokenize, func(sp *Span) {
		res.Tokens = e.tokenizer.TokenizeArena(boxes, &fa.tok)
		if sp != nil {
			ts := token.StatsOf(res.Tokens)
			sp.SetInt("tokens", int64(ts.Total))
			sp.SetInt("texts", int64(ts.Texts))
			sp.SetInt("widgets", int64(ts.Widgets))
		}
	})
	if e.maxTokens > 0 && len(res.Tokens) > e.maxTokens {
		// Tokens are ID-dense in render order; keeping the prefix preserves
		// density, so the parser sees a well-formed (smaller) sentence.
		res.Tokens = res.Tokens[:e.maxTokens]
		e.degrade(tr, res, fmt.Sprintf("tokenize: token count capped at %d", e.maxTokens))
	}

	res, err = e.finish(ctx, budgetCtx, tr, res)
	if res != nil && res.Model != nil && len(formInfos) > 1 {
		res.Form = submit.BestForm(formInfos, res.Model.Conditions)
	}
	return res, err
}

// ExtractTokens runs parsing and merging over an already-tokenized form.
// Token IDs must be dense and in render order; malformed token sets
// (nil entries, sparse, duplicated or out-of-range IDs) are rejected up
// front with a descriptive error rather than crashing the parse.
func (e *Extractor) ExtractTokens(toks []*Token) (*Result, error) {
	return e.ExtractTokensContext(context.Background(), toks)
}

// ExtractTokensContext is ExtractTokens under caller cancellation, with the
// same partial-result and budget semantics as ExtractHTMLContext.
func (e *Extractor) ExtractTokensContext(ctx context.Context, toks []*Token) (res *Result, err error) {
	if verr := core.ValidateTokens(toks); verr != nil {
		return nil, fmt.Errorf("formext: %w", verr)
	}
	budgetCtx, cancel := e.budgetContext(ctx)
	defer cancel()
	tr := e.opts.Tracer.Start("extract-tokens")
	defer tr.End()
	res = &Result{Tokens: toks, Stats: Stats{TraceID: tr.TraceID()}}
	defer e.contain(tr, res, &err)
	return e.finish(ctx, budgetCtx, tr, res)
}

// finish runs the back half of the pipeline over res.Tokens and classifies
// any interruption: caller cancellation surfaces as an error alongside the
// partial result, budget expiry degrades silently.
func (e *Extractor) finish(ctx, budgetCtx context.Context, tr *Trace, res *Result) (*Result, error) {
	merr := e.parseAndMerge(budgetCtx, tr, res)
	if res.Stats.Truncated {
		e.degrade(tr, res, "parse: instance budget exhausted")
	}
	if merr == nil {
		return res, nil
	}
	if !errors.Is(merr, context.Canceled) && !errors.Is(merr, context.DeadlineExceeded) {
		tr.Root().SetStr("error", merr.Error())
		return res, merr
	}
	if cerr := ctx.Err(); cerr != nil {
		e.degrade(tr, res, "parse: cancelled")
		return res, fmt.Errorf("formext: parse interrupted: %w", cerr)
	}
	e.degrade(tr, res, "parse: parse budget exhausted")
	return res, nil
}

// budgetContext derives the deadline context the pipeline stages run under:
// the caller's ctx, tightened by Options.ParseBudget when one is set.
func (e *Extractor) budgetContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.opts.ParseBudget > 0 {
		return context.WithTimeout(ctx, e.opts.ParseBudget)
	}
	return ctx, func() {}
}

// degrade records one way the extraction was cut short, in the stats and as
// a trace event.
func (e *Extractor) degrade(tr *Trace, res *Result, reason string) {
	res.Stats.Degraded = append(res.Stats.Degraded, reason)
	tr.Root().Event(obs.EventDegraded, obs.Str("reason", reason))
}

// contain is the facade's panic boundary, installed by the deferred frames
// of both extraction entry points. A recovered panic becomes a *PanicError
// snapshotting the stats accumulated before the failure; the partial Result
// stays non-nil so serving layers can report where the page got to.
func (e *Extractor) contain(tr *Trace, res *Result, errp *error) {
	if r := recover(); r != nil {
		pe := &PanicError{Value: r, Stack: debug.Stack(), Stats: res.Stats}
		tr.Root().Event(obs.EventPanic, obs.Str("value", fmt.Sprint(r)))
		tr.Root().SetStr("error", pe.Error())
		*errp = pe
	}
}

// parseAndMerge runs the back half of the pipeline (best-effort parse,
// then merge) over res.Tokens, filling the result's trees, model and
// statistics. A parse cut short by ctx still merges — the partial instance
// population yields a partial model — and the context's error is returned
// for the caller to classify.
func (e *Extractor) parseAndMerge(ctx context.Context, tr *Trace, res *Result) error {
	var pres *core.Result
	var perr error
	runStage(tr, obs.StageParse, &res.Stats.Stages.Parse, func(sp *Span) {
		pres, perr = e.parser.ParseContext(ctx, res.Tokens, sp)
	})
	if pres == nil {
		return fmt.Errorf("formext: %w", perr)
	}
	res.Trees = pres.Maximal
	res.Stats.ParseStats = pres.Stats

	runStage(tr, obs.StageMerge, &res.Stats.Stages.Merge, func(sp *Span) {
		res.Model = e.merger.MergeSpan(pres, sp)
	})
	res.Stats.Merge = MergeStats{
		Conditions: len(res.Model.Conditions),
		Conflicts:  len(res.Model.Conflicts),
		Missing:    len(res.Model.Missing),
	}
	return perr
}

// stageHook, when non-nil, runs at the start of every pipeline stage. It is
// a fault-injection seam for containment tests (injected panics and stalls)
// and is never set outside tests.
var stageHook func(stage string)

// runStage runs one pipeline stage, always measuring its wall time into
// *d. Under an enabled trace the stage additionally gets a span (passed to
// f for stage-specific attributes) and a pprof label, so CPU profiles
// taken during traced extractions attribute samples per stage.
func runStage(tr *Trace, name string, d *time.Duration, f func(sp *Span)) {
	if stageHook != nil {
		stageHook(name)
	}
	sp := tr.Span(name)
	start := time.Now()
	if sp != nil {
		obs.Labeled(name, func() { f(sp) })
	} else {
		f(nil)
	}
	*d = time.Since(start)
	sp.End()
}

// Tokenize exposes the front half of the pipeline: HTML → layout → tokens,
// under the same MaxDepth and MaxTokens budgets as ExtractHTML, so
// ExtractTokens(Tokenize(src)) parses exactly the sentence ExtractHTML
// would.
func (e *Extractor) Tokenize(src string) []*Token {
	doc, _ := htmlparse.ParseContext(context.Background(), src, htmlparse.Limits{MaxDepth: e.opts.MaxDepth})
	toks := e.tokenizer.Tokenize(e.layout.Layout(doc))
	if e.maxTokens > 0 && len(toks) > e.maxTokens {
		toks = toks[:e.maxTokens]
	}
	return toks
}

// DefaultGrammarSource returns the DSL source of the embedded derived
// global grammar.
func DefaultGrammarSource() string { return grammar.DefaultSource() }
