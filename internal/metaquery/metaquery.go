// Package metaquery is the MetaQuerier serving layer: it closes the
// deep-web loop the paper motivates (Section 1: model Web databases by
// their interfaces, match them, build unified interfaces — then query
// through them). Given registered sources (extracted semantic model +
// submission envelope + endpoint), an Engine answers unified-interface
// queries end to end:
//
//	route      — match each constraint to a unified attribute (mediate)
//	translate  — rebind routable constraints onto each source's native
//	             conditions and fill its form (submit)
//	fan out    — execute the submissions concurrently, bounded by a
//	             semaphore, under per-source deadlines
//	unify      — post-filter, rename to unified attributes, merge
//	             duplicates across sources, rank by support
//
// The contract throughout is best-effort degradation, mirroring the
// extraction pipeline's: a dead endpoint, an unroutable constraint or an
// untranslatable value degrades the answer (and says so in Answer.Degraded
// and the per-source reports) but never errors the query. The only query
// error is a malformed query string.
package metaquery

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"formext/internal/mediate"
	"formext/internal/model"
	"formext/internal/obs"
	"formext/internal/repair"
	"formext/internal/submit"
)

// Span names the engine traces under, alongside the pipeline stages in
// internal/obs.
const (
	SpanQuery     = "metaquery"
	SpanRoute     = "route"
	SpanTranslate = "translate"
	SpanFanout    = "fanout"
	SpanUnify     = "unify"
)

// minRouteSimilarity gates query-attribute → unified-attribute routing,
// matching the mediator's own attribute-mapping threshold.
const minRouteSimilarity = 0.55

// maxResponseBytes bounds how much of a source's response the engine will
// read — a misbehaving source must not balloon the answer.
const maxResponseBytes = 4 << 20

// Source is one registered member database.
type Source struct {
	// ID names the source in reports and attributions.
	ID string
	// Endpoint is the base URL the form action resolves beneath (the
	// "directory" the interface page lives in).
	Endpoint string
	// Model is the extracted query capability model.
	Model *model.SemanticModel
	// Form is the submission envelope (action, method, hidden fields).
	Form submit.FormInfo
}

// Config tunes an Engine. The zero value is usable: 2-source unification,
// fan-out 8, 10s per-source timeout, http.DefaultClient, no tracing.
type Config struct {
	// MinSources is the number of member sources an attribute must appear
	// in to make the unified interface (internal/unify semantics).
	MinSources int
	// MaxFanout bounds concurrent source submissions across all queries.
	MaxFanout int
	// Timeout is the per-source submission deadline.
	Timeout time.Duration
	// Client executes submissions; nil means http.DefaultClient.
	Client *http.Client
	// Tracer records route/translate/fanout/unify spans; nil disables.
	Tracer *obs.Tracer
}

// view is an immutable snapshot of the registered sources and the mediator
// built over them; queries load it once and never see a half-rebuilt state.
type view struct {
	sources []Source
	med     *mediate.Mediator
}

// Engine answers unified queries over the registered sources. Reads
// (Query/Execute/Sources/Unified) are lock-free against the current view;
// registration rebuilds the mediator and swaps the view atomically.
type Engine struct {
	cfg  Config
	sem  chan struct{}
	mu   sync.Mutex // serializes view rebuilds
	view atomic.Pointer[view]
}

// New builds an engine with no sources registered.
func New(cfg Config) *Engine {
	if cfg.MinSources <= 0 {
		cfg.MinSources = 2
	}
	if cfg.MaxFanout <= 0 {
		cfg.MaxFanout = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	e := &Engine{cfg: cfg, sem: make(chan struct{}, cfg.MaxFanout)}
	e.view.Store(&view{})
	return e
}

// SetSources replaces the whole registration set.
func (e *Engine) SetSources(sources []Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuild(append([]Source(nil), sources...))
}

// AddSource registers a source, replacing any existing one with the same
// ID (upsert semantics — re-registering a moved endpoint is not an error).
func (e *Engine) AddSource(s Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.view.Load().sources
	next := make([]Source, 0, len(cur)+1)
	replaced := false
	for _, old := range cur {
		if old.ID == s.ID {
			next = append(next, s)
			replaced = true
		} else {
			next = append(next, old)
		}
	}
	if !replaced {
		next = append(next, s)
	}
	e.rebuild(next)
}

// RemoveSource drops a source by ID, reporting whether it was registered.
func (e *Engine) RemoveSource(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.view.Load().sources
	next := make([]Source, 0, len(cur))
	for _, old := range cur {
		if old.ID != id {
			next = append(next, old)
		}
	}
	if len(next) == len(cur) {
		return false
	}
	e.rebuild(next)
	return true
}

// rebuild constructs the mediator for sources and swaps the view. Caller
// holds e.mu.
func (e *Engine) rebuild(sources []Source) {
	v := &view{sources: sources}
	if len(sources) > 0 {
		ms := make([]mediate.Source, len(sources))
		for i, s := range sources {
			ms[i] = mediate.Source{ID: s.ID, Model: s.Model, Form: s.Form}
		}
		// A lone source still deserves a unified interface to query
		// through; don't let MinSources erase it.
		min := e.cfg.MinSources
		if min > len(sources) {
			min = len(sources)
		}
		v.med = mediate.New(ms, min)
	}
	e.view.Store(v)
}

// Sources returns the registered sources in registration order.
func (e *Engine) Sources() []Source {
	return e.view.Load().sources
}

// Unified returns the current unified interface (nil with no sources).
func (e *Engine) Unified() []model.Condition {
	v := e.view.Load()
	if v.med == nil {
		return nil
	}
	return v.med.Unified()
}

// Record is one unified answer record: renamed fields, which sources
// contributed it, and their native record IDs.
type Record struct {
	Fields  map[string]string `json:"fields"`
	Sources []string          `json:"sources"`
	IDs     []string          `json:"ids,omitempty"`
	Support int               `json:"support"`
}

// SourceReport is the per-source outcome of one query.
type SourceReport struct {
	ID string `json:"id"`
	// Eligible: every routed constraint had a native counterpart here, so
	// the source was queried.
	Eligible bool `json:"eligible"`
	// Applied lists unified attributes filled into the native form;
	// Skipped maps the ones that were not onto the reason (the engine
	// still enforces those on the returned records).
	Applied []string          `json:"applied,omitempty"`
	Skipped map[string]string `json:"skipped,omitempty"`
	// Returned/Kept count records before and after post-filtering.
	Returned  int     `json:"returned"`
	Kept      int     `json:"kept"`
	Err       string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Answer is the unified result of one query.
type Answer struct {
	Query string `json:"query"`
	// Routed lists the unified attributes the constraints resolved to;
	// Unrouted the constraint terms that matched nothing. PostFiltered
	// lists constraints no source form can express natively (ordered
	// operators on text/enum, strict bounds) — they are enforced by the
	// engine on the returned records instead.
	Routed       []string       `json:"routed,omitempty"`
	Unrouted     []string       `json:"unrouted,omitempty"`
	PostFiltered []string       `json:"post_filtered,omitempty"`
	Records      []Record       `json:"records"`
	Sources      []SourceReport `json:"sources,omitempty"`
	// Degraded explains every way the answer is less than complete —
	// dead sources, unroutable constraints, empty registrations. A
	// degraded answer is still an answer; it is never an error.
	Degraded  []string `json:"degraded,omitempty"`
	Fanout    int      `json:"fanout"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

// Query parses and executes a unified query string. The only error is a
// malformed query; everything downstream degrades into the Answer.
func (e *Engine) Query(ctx context.Context, q string) (*Answer, error) {
	cons, err := ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, cons), nil
}

// routedConstraint is a constraint bound to its unified condition.
type routedConstraint struct {
	c    Constraint
	ui   int
	attr string
	kind model.DomainKind
}

// Execute answers a parsed constraint set against the current view.
func (e *Engine) Execute(ctx context.Context, cons []Constraint) *Answer {
	start := time.Now()
	ans := &Answer{Query: FormatQuery(cons), Records: []Record{}}
	tr := e.cfg.Tracer.Start(SpanQuery)
	defer func() {
		ans.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
		tr.Root().SetInt("records", int64(len(ans.Records)))
		tr.Root().SetInt("degraded", int64(len(ans.Degraded)))
		tr.End()
	}()

	v := e.view.Load()
	if v.med == nil || len(v.sources) == 0 {
		ans.Degraded = append(ans.Degraded, "no sources registered")
		return ans
	}
	unified := v.med.Unified()

	// Route: each constraint to its most similar unified attribute.
	sp := tr.Span(SpanRoute)
	var routed []routedConstraint
	for _, c := range cons {
		ui := bestUnified(unified, c.Attr)
		if ui < 0 {
			ans.Unrouted = append(ans.Unrouted, c.String())
			ans.Degraded = append(ans.Degraded,
				fmt.Sprintf("constraint %q matched no unified attribute", c.String()))
			continue
		}
		routed = append(routed, routedConstraint{
			c: c, ui: ui, attr: unified[ui].Attribute, kind: unified[ui].Domain.Kind,
		})
		ans.Routed = append(ans.Routed, unified[ui].Attribute)
	}
	sp.SetInt("routed", int64(len(routed)))
	sp.End()
	if len(routed) == 0 {
		ans.Degraded = append(ans.Degraded, "no constraint routed; nothing to query")
		return ans
	}

	// Translate: rebind natively-expressible constraints over the unified
	// interface; the rest are enforced by post-filter only.
	sp = tr.Span(SpanTranslate)
	var native []model.Constraint
	for _, r := range routed {
		if val, ok := nativeValue(r.kind, r.c); ok {
			native = append(native, model.Constraint{Condition: &unified[r.ui], Value: val})
		} else {
			ans.PostFiltered = append(ans.PostFiltered, r.c.String())
		}
	}
	byID := map[string]mediate.SourceQuery{}
	if len(native) > 0 {
		sqs, err := v.med.Translate(native)
		if err != nil {
			// Unreachable by construction (constraints point into
			// Unified()), but the degradation contract holds regardless.
			ans.Degraded = append(ans.Degraded, "translate: "+err.Error())
		}
		for _, sq := range sqs {
			byID[sq.SourceID] = sq
		}
	}
	sp.SetInt("native", int64(len(native)))
	sp.End()

	// Eligibility: a source is queried iff every routed constraint has a
	// native counterpart there — otherwise its records could not be
	// checked against the missing attribute and the answer would silently
	// widen. Ineligibility is reported, not fatal.
	reports := make([]SourceReport, len(v.sources))
	var eligible []int
	for si, s := range v.sources {
		rep := SourceReport{ID: s.ID, Skipped: map[string]string{}}
		ok := true
		for _, r := range routed {
			if v.med.RouteOf(si, r.ui) < 0 {
				rep.Skipped[r.attr] = "source has no matching condition"
				ok = false
			}
		}
		rep.Eligible = ok
		if sq, found := byID[s.ID]; found && ok {
			rep.Applied = sq.Applied
			for attr, why := range sq.Skipped {
				rep.Skipped[attr] = why
			}
		}
		reports[si] = rep
		if ok {
			eligible = append(eligible, si)
		}
	}
	if len(eligible) == 0 {
		ans.Degraded = append(ans.Degraded, "no source supports all routed constraints")
		ans.Sources = reports
		return ans
	}
	// An unrouted constraint cannot be checked, so answering the routed rest
	// would silently widen the answer: report the routes, return no records.
	if len(ans.Unrouted) > 0 {
		ans.Degraded = append(ans.Degraded, "unrouted constraints; no records returned")
		ans.Sources = reports
		return ans
	}

	// Fan out, bounded by the engine-wide semaphore.
	sp = tr.Span(SpanFanout)
	type fetched struct {
		si      int
		records []map[string]string
		err     error
		elapsed time.Duration
	}
	results := make([]fetched, len(eligible))
	var wg sync.WaitGroup
	for i, si := range eligible {
		q := submitQueryFor(v, si, byID)
		wg.Add(1)
		go func(slot, si int, q *submit.Query) {
			defer wg.Done()
			t0 := time.Now()
			select {
			case e.sem <- struct{}{}:
				defer func() { <-e.sem }()
			case <-ctx.Done():
				results[slot] = fetched{si: si, err: ctx.Err(), elapsed: time.Since(t0)}
				return
			}
			recs, err := e.submitOne(ctx, v.sources[si], q)
			results[slot] = fetched{si: si, records: recs, err: err, elapsed: time.Since(t0)}
		}(i, si, q)
	}
	wg.Wait()
	ans.Fanout = len(eligible)
	sp.SetInt("sources", int64(len(eligible)))
	sp.End()

	// Unify: post-filter, rename to unified attributes, merge, rank.
	sp = tr.Span(SpanUnify)
	merged := map[string]*Record{}
	var order []string
	for _, f := range results {
		rep := &reports[f.si]
		rep.ElapsedMs = float64(f.elapsed.Microseconds()) / 1000
		if f.err != nil {
			rep.Err = f.err.Error()
			ans.Degraded = append(ans.Degraded,
				fmt.Sprintf("source %s: %v", v.sources[f.si].ID, f.err))
			sp.Event("source-error", obs.Str("source", v.sources[f.si].ID))
			continue
		}
		rep.Returned = len(f.records)
		rename := renameMap(v, f.si, routed, unified)
		for _, raw := range f.records {
			rec, id, ok := keepRecord(raw, rename, routed)
			if !ok {
				continue
			}
			rep.Kept++
			fp := fingerprint(rec)
			m, seen := merged[fp]
			if !seen {
				m = &Record{Fields: rec}
				merged[fp] = m
				order = append(order, fp)
			}
			m.Sources = appendUnique(m.Sources, v.sources[f.si].ID)
			if id != "" {
				m.IDs = appendUnique(m.IDs, id)
			}
			m.Support = len(m.Sources)
		}
	}
	// Rank: cross-source support first (corroborated records lead), then
	// fingerprint for a deterministic order.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := merged[order[i]], merged[order[j]]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return order[i] < order[j]
	})
	for _, fp := range order {
		ans.Records = append(ans.Records, *merged[fp])
	}
	ans.Sources = reports
	sp.SetInt("merged", int64(len(ans.Records)))
	sp.End()
	return ans
}

// bestUnified finds the unified condition most similar to the queried
// attribute name, or -1 below the routing threshold. Ties keep the first
// (the unified interface is deterministically ordered).
func bestUnified(unified []model.Condition, attr string) int {
	best, bestScore := -1, minRouteSimilarity
	for ui := range unified {
		if s := repair.TextSimilarity(attr, unified[ui].Attribute); s > bestScore {
			best, bestScore = ui, s
		}
	}
	return best
}

// nativeValue renders a constraint's value in the form submit.Query.Apply
// expects for the unified kind, or reports that the constraint cannot be
// expressed through a form at all (ordered operators on text/enum/date).
// Range operators widen to inclusive endpoint fills; the post-filter
// re-applies the exact operator, so a strict bound never over-matches.
func nativeValue(kind model.DomainKind, c Constraint) (string, bool) {
	switch kind {
	case model.RangeDomain:
		switch c.Op {
		case OpEq:
			return c.Value + ".." + c.Value, true
		case OpLt, OpLe:
			return ".." + c.Value, true
		case OpGt, OpGe:
			return c.Value + "..", true
		}
		return "", false
	case model.DateDomain:
		if c.Op != OpEq {
			return "", false
		}
		return FormatDateParts(c.Value)
	default: // text, enum, bool
		if c.Op != OpEq {
			return "", false
		}
		return c.Value, true
	}
}

// submitQueryFor picks the translated query for a source, or a bare
// envelope submission when no constraint translated natively (the source
// is still queried; every constraint is enforced by post-filter).
func submitQueryFor(v *view, si int, byID map[string]mediate.SourceQuery) *submit.Query {
	if sq, ok := byID[v.sources[si].ID]; ok {
		return sq.Query
	}
	return submit.NewQuery(v.sources[si].Form)
}

// renameMap maps a source's record keys (normalized native attribute
// labels) onto unified attribute names, via the mediator's routes.
func renameMap(v *view, si int, routed []routedConstraint, unified []model.Condition) map[string]string {
	out := make(map[string]string, len(routed))
	for _, r := range routed {
		ci := v.med.RouteOf(si, r.ui)
		if ci < 0 {
			continue
		}
		native := v.sources[si].Model.Conditions[ci].Attribute
		out[model.NormalizeLabel(native)] = unified[r.ui].Attribute
	}
	return out
}

// keepRecord renames a raw record's fields and applies every routed
// constraint. Records missing a constrained attribute are dropped: the
// engine cannot vouch for them, and a unified answer that silently widens
// is worse than a smaller one.
func keepRecord(raw map[string]string, rename map[string]string, routed []routedConstraint) (map[string]string, string, bool) {
	rec := make(map[string]string, len(raw))
	id := ""
	for k, val := range raw {
		if k == "_id" {
			id = val
			continue
		}
		if u, ok := rename[k]; ok {
			k = u
		}
		rec[k] = val
	}
	for _, r := range routed {
		val, ok := rec[r.attr]
		if !ok || !MatchValue(r.kind, val, r.c.Op, r.c.Value) {
			return nil, "", false
		}
	}
	return rec, id, true
}

// fingerprint canonicalizes a record for cross-source deduplication.
func fingerprint(rec map[string]string) string {
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(model.NormalizeLabel(rec[k]))
		b.WriteByte('|')
	}
	return b.String()
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// sourceResponse is the wire shape simulated (and real adapter) sources
// answer with.
type sourceResponse struct {
	Source  string              `json:"source"`
	Total   int                 `json:"total"`
	Records []map[string]string `json:"records"`
}

// submitOne executes one native submission against a source endpoint.
func (e *Engine) submitOne(ctx context.Context, src Source, q *submit.Query) ([]map[string]string, error) {
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	target := joinEndpoint(src.Endpoint, q.Action())
	var req *http.Request
	var err error
	if q.Method() == "post" {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, target,
			strings.NewReader(q.Encode()))
		if req != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		sep := "?"
		if strings.Contains(target, "?") {
			sep = "&"
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, target+sep+q.Encode(), nil)
	}
	if err != nil {
		return nil, err
	}
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
		return nil, fmt.Errorf("endpoint returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	var sr sourceResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("undecodable response: %v", err)
	}
	return sr.Records, nil
}

// joinEndpoint resolves a form action beneath a source's endpoint base.
// The endpoint names the directory the interface lives in (many sources
// may be mounted under one host, "http://h/src/books-1"), so an absolute
// action path appends under it instead of replacing the path.
func joinEndpoint(endpoint, action string) string {
	if action == "" {
		return endpoint
	}
	if strings.Contains(action, "://") {
		return action
	}
	return strings.TrimRight(endpoint, "/") + "/" + strings.TrimLeft(action, "/")
}
