package formext

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"
	"unsafe"

	"formext/internal/cache"
	"formext/internal/core"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/obs"
)

// CacheConfig sizes an extraction Cache.
type CacheConfig struct {
	// MaxBytes is the total budget, in approximate bytes of frozen results
	// (the cost model counts tokens, parse-tree instances, memoized texts,
	// the semantic model, and a DOM-size proxy). Must be positive — "no
	// cache" is expressed by leaving Options.Cache nil.
	MaxBytes int64
	// TTL bounds entry lifetime; 0 means entries live until evicted by
	// byte pressure.
	TTL time.Duration
	// Shards is the shard count (rounded up to a power of two, default 16).
	Shards int
}

// CacheStats is a point-in-time snapshot of a Cache's counters: hits,
// misses, coalesced requests, evictions, resident bytes and entries.
type CacheStats = cache.Stats

// Cache is a content-addressed extraction-result cache. The pipeline is
// deterministic for a fixed page, grammar and options, so results are
// addressed by content: the SHA-256 of the raw page bytes combined with the
// grammar's fingerprint and a canonical encoding of the extraction-relevant
// options. A hit skips the entire pipeline — HTML parsing included — and a
// stampede of identical requests is coalesced into one extraction whose
// frozen result fans out to every caller (see Options.Cache for the
// sharing rules).
//
// A Cache is safe for concurrent use and may be shared by any number of
// extractors and batches; results cached under different grammars or
// options never collide because both are part of the key.
type Cache struct {
	c *cache.Cache
}

// NewCache builds an extraction cache with the given budget.
func NewCache(cfg CacheConfig) (*Cache, error) {
	c, err := cache.New(cache.Config{MaxBytes: cfg.MaxBytes, TTL: cfg.TTL, Shards: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("formext: %w", err)
	}
	return &Cache{c: c}, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// CacheKey is the content address of one extraction: SHA-256 over the page
// bytes, the grammar fingerprint and the canonical extraction-relevant
// options. Two processes built from the same source derive byte-identical
// keys for the same (page, grammar, options) — the property consistent-hash
// sharding stands on (a golden-key test pins it against drift).
type CacheKey = cache.Key

// ExtractKey returns the content-addressed key an extraction of src would
// be cached under. It is derived without running any pipeline stage (two
// SHA-256 passes over the page bytes), so serving layers can route a
// request — to a cache shard, to a cluster peer — before doing any work.
func (e *Extractor) ExtractKey(src string) CacheKey {
	return pageKey(e.keyPrefix, viewBytes(src))
}

// ExtractKeyBytes is ExtractKey over a byte buffer, sharing it with the
// extraction instead of forcing a string conversion first.
func (e *Extractor) ExtractKeyBytes(src []byte) CacheKey {
	return pageKey(e.keyPrefix, src)
}

// cachePrefix derives the per-extractor half of the cache key: a hash over
// the grammar fingerprint and a canonical rendering of every option that
// can change an extraction's outcome. Defaulted and explicit spellings of
// the same configuration (MaxTokens 0 vs DefaultMaxTokens, zero vs default
// thresholds) hash identically because the resolved values are encoded.
// ParseBudget participates only as a budgeted-or-not bit: results that were
// actually cut short by the budget are never cached (see cacheable), so two
// budgeted configurations that both ran to completion are interchangeable.
// The Tracer is deliberately excluded — observability does not change the
// result.
func cachePrefix(g *grammar.Grammar, o Options, viewport float64, maxTokens int, budgeted bool) [32]byte {
	th := o.Thresholds
	if th == (geom.Thresholds{}) {
		th = geom.DefaultThresholds
	}
	maxInst := o.MaxInstances
	if maxInst <= 0 {
		maxInst = core.DefaultMaxInstances
	}
	maxDepth := o.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	} else if maxDepth < 0 {
		maxDepth = -1
	}
	h := sha256.New()
	fmt.Fprintf(h, "formext/key/v1\n%s\nviewport=%g thresholds=%+v noprefs=%t nosched=%t maxinst=%d maxdepth=%d maxtokens=%d interp=%t budgeted=%t",
		g.Fingerprint(), viewport, th, o.DisablePreferences, o.DisableScheduling,
		maxInst, maxDepth, maxTokens, o.InterpretedEval, budgeted)
	var p [32]byte
	h.Sum(p[:0])
	return p
}

// pageKey completes a cache key: the SHA-256 of the raw page bytes, hashed
// together with the extractor's prefix. The page is hashed before any HTML
// parsing, so a hit costs two block hashes and a map lookup — no pipeline
// work and no heap allocation (the buffer is read in place, shared with the
// lexer; the hash never retains it).
func pageKey(prefix [32]byte, src []byte) cache.Key {
	page := sha256.Sum256(src)
	var buf [64]byte
	copy(buf[:32], prefix[:])
	copy(buf[32:], page[:])
	return cache.Key(sha256.Sum256(buf[:]))
}

// Freeze makes the result safe for any number of concurrent readers and
// returns it. It pre-materializes every lazily memoized text cache in the
// parse-tree graph (the only mutable state a completed Result retains),
// severs the parser's rollback edges (Instance.Parents — only the parse
// itself needs them, and they lead into the dead-instance majority no
// reader should traverse), and records the result's approximate byte
// footprint for cache accounting.
//
// Freeze is idempotent but not itself concurrency-safe: exactly one
// goroutine must freeze the result, with a happens-before edge to every
// reader — the cache provides that edge for cached results, and ExtractAll
// provides it for deduplicated batch pages. After Freeze the result and
// everything reachable from it must be treated as read-only.
func (r *Result) Freeze() *Result {
	if r.frozen {
		return r
	}
	seen := make(map[*grammar.Instance]bool, 64)
	cost := int64(unsafe.Sizeof(Result{}))
	for _, tr := range r.Trees {
		cost += tr.FreezeMemos(seen)
	}
	// Every instance the parse created stays resident through the
	// Result-owned slabs (an interior pointer keeps its whole slab alive),
	// so the dead majority counts too: struct plus cover words per created
	// instance, not just the tree-reachable minority FreezeMemos visited.
	perInst := int64(unsafe.Sizeof(grammar.Instance{})) + int64(len(r.Tokens)/8+16)
	cost += int64(r.Stats.TotalCreated) * perInst
	for _, t := range r.Tokens {
		cost += tokenCost(t)
	}
	cost += modelCost(r.Model)
	// What the front-end arenas handed over (DOM slabs, render text, token
	// slabs, the aliased source buffer). Token and node string fields were
	// already counted above, but they alias slab or source memory rather
	// than own it, so the sum does not double-count by much — and cache
	// accounting prefers a slight overestimate.
	cost += r.arenaBytes
	r.cost = cost
	r.frozen = true
	return r
}

// share returns a caller-owned view of a frozen result: a fresh Result
// struct (so the caller may inspect or even reassign its Stats without
// racing other holders) whose Model, Tokens, Trees and Form are the shared
// immutable ones. The hit/coalesced markers and, when the serving layer
// recorded a cache-span trace, the per-request trace ID are stamped on the
// copy only.
//
// A hit view gets zeroed StageTimings: no pipeline stage ran for THIS
// request, and handing back the canonical extraction's timings made hits
// look as slow as the miss that populated them (latency dashboards fed by
// Result.Stats double-counted the original parse on every hit). The
// counter-like fields (ParseStats, Merge) still describe the shared
// artifacts and are kept. Coalesced views keep their timings: the waiter's
// wall clock really did cover that pipeline run.
func (r *Result) share(hit, coalesced bool, traceID string) *Result {
	cp := *r
	cp.Stats.CacheHit = hit
	cp.Stats.Coalesced = coalesced
	if hit {
		cp.Stats.Stages = StageTimings{}
	}
	if traceID != "" {
		cp.Stats.TraceID = traceID
	}
	return &cp
}

// cacheable reports whether the result is valid for every future identical
// request. Deterministic degradations (depth cap, token cap, instance cap)
// reproduce on re-extraction and are cacheable; timing-dependent ones — a
// parse-budget expiry, a cancellation — describe this request's luck, not
// the page, and must not be served to callers with more time.
func (r *Result) cacheable() bool {
	if r.Stats.Interrupted {
		return false
	}
	for _, d := range r.Stats.Degraded {
		if strings.HasSuffix(d, "cancelled") || strings.HasSuffix(d, "parse budget exhausted") {
			return false
		}
	}
	return true
}

// tokenCost approximates one token's resident bytes.
func tokenCost(t *Token) int64 {
	c := int64(unsafe.Sizeof(Token{})) + 16
	c += int64(len(t.SVal) + len(t.Name) + len(t.Value) + len(t.ForID) + len(t.ElemID))
	for _, o := range t.Options {
		c += int64(len(o)) + 16
	}
	for _, o := range t.OptionValues {
		c += int64(len(o)) + 16
	}
	return c
}

// modelCost approximates the semantic model's resident bytes.
func modelCost(m *SemanticModel) int64 {
	if m == nil {
		return 0
	}
	c := int64(64)
	for i := range m.Conditions {
		cond := &m.Conditions[i]
		c += int64(unsafe.Sizeof(Condition{})) + int64(len(cond.Attribute)+len(cond.OperatorField))
		for _, s := range cond.Operators {
			c += int64(len(s)) + 16
		}
		for _, s := range cond.Fields {
			c += int64(len(s)) + 16
		}
		for _, s := range cond.Domain.Values {
			c += int64(len(s)) + 16
		}
		for _, s := range cond.SubmitValues {
			c += int64(len(s)) + 16
		}
		for _, s := range cond.OperatorValues {
			c += int64(len(s)) + 16
		}
		c += int64(8 * len(cond.TokenIDs))
	}
	c += int64(24 * (len(m.Conflicts) + len(m.Missing)))
	return c
}

// cachedExtract serves one extraction through the cache: a content-hash
// lookup first (a hit costs no pipeline work), then a per-key singleflight
// so concurrent identical requests run one extraction. Only complete,
// deterministic results are frozen and cached; errors, panics and
// budget-cut results belong to the request that suffered them and never
// poison the key. Waiters whose flight resolves without a shareable result
// start over under their own context.
func (e *Extractor) cachedExtract(ctx context.Context, src []byte) (*Result, error) {
	c, tracer := e.opts.Cache, e.opts.Tracer
	key := pageKey(e.keyPrefix, src)
	if v, ok := c.c.Lookup(key); ok {
		return v.(*Result).share(true, false, cacheTrace(tracer, obs.EventCacheHit)), nil
	}
	v, out, err := c.c.Do(ctx, key, func() (any, int64, bool, error) {
		res, rerr := e.extractBytesEvent(ctx, src, obs.EventCacheMiss)
		if rerr != nil || res == nil || !res.cacheable() {
			return res, 0, false, rerr
		}
		// Freeze folds in arenaBytes — the exact size of the DOM, text and
		// token slabs the result retains plus the source buffer it aliases —
		// which replaced the 2x-page-bytes proxy this charge used to add.
		res.Freeze()
		return res, res.cost, true, nil
	})
	res, _ := v.(*Result)
	switch out {
	case cache.OutcomeHit:
		return res.share(true, false, cacheTrace(tracer, obs.EventCacheHit)), nil
	case cache.OutcomeCoalesced:
		if err != nil {
			// The caller's own context ended while waiting on the flight.
			return nil, fmt.Errorf("formext: extraction coalesced wait interrupted: %w", err)
		}
		return res.share(false, true, cacheTrace(tracer, obs.EventCacheCoalesced)), nil
	}
	// Flight leader: the result is the leader's own. When it was frozen
	// and cached, hand back a caller-owned view of the shared instance.
	if err == nil && res != nil && res.frozen {
		return res.share(false, false, ""), nil
	}
	return res, err
}

// cacheTrace records the trace of a request answered by the cache layer
// alone — a single cache span carrying the hit or coalesced event — and
// returns its ID ("" when tracing is off). Pipeline-running requests record
// their cache event inside the extraction trace instead.
func cacheTrace(tracer *Tracer, event string) string {
	if !tracer.Enabled() {
		return ""
	}
	tr := tracer.Start("extract")
	sp := tr.Span(obs.StageCache)
	sp.Event(event)
	sp.End()
	tr.End()
	return tr.TraceID()
}
