// Package obs is the observability core of the extraction pipeline: a
// zero-dependency, allocation-conscious tracing layer (Tracer/Trace/Span),
// pluggable trace sinks (ring buffer, JSON lines), a fixed-bucket latency
// histogram fit for expvar publication, and pprof stage labels.
//
// The design contract is that observability must be effectively free when
// nobody asked for it. Every entry point is nil-safe: a nil *Tracer starts
// nil *Trace values, a nil *Trace starts nil *Span values, and every method
// of a nil receiver returns immediately — so instrumented code calls
// span.SetInt(...) unconditionally and the disabled path pays only a
// nil check. No span, event or attribute is allocated unless a Tracer with
// a sink is attached.
//
// A Trace and its Spans are confined to the goroutine that runs the
// extraction; the Tracer itself and all sinks in this package are safe for
// concurrent use, so one Tracer can serve every request of a server.
package obs

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Canonical stage names: the span names, pprof label values and JSON keys
// the pipeline instruments under. A full extraction's root span has one
// child per stage, in this order.
const (
	StageHTMLParse = "htmlparse"
	StageLayout    = "layout"
	StageTokenize  = "tokenize"
	StageParse     = "parse"
	StageMerge     = "merge"
)

// StageCache is the span recorded by the extraction cache in front of the
// pipeline. It is not part of Stages: a cache hit's trace holds only this
// span, while a miss's trace leads with it (carrying the miss event) before
// the pipeline stages.
const StageCache = "cache"

// Cache span event names: how the extraction cache answered a request.
const (
	// EventCacheHit: the frozen result was already cached; no pipeline ran.
	EventCacheHit = "hit"
	// EventCacheMiss: this request ran the pipeline (and, when the result
	// was cacheable, populated the cache for later requests).
	EventCacheMiss = "miss"
	// EventCacheCoalesced: the request waited on an identical in-flight
	// extraction and shares its result; no pipeline ran.
	EventCacheCoalesced = "coalesced"
)

// Stages lists the pipeline stage names in execution order.
var Stages = []string{StageHTMLParse, StageLayout, StageTokenize, StageParse, StageMerge}

// Canonical event names for failure-containment outcomes. Degraded events
// record an input budget or deadline cutting a stage short (one event per
// Stats.Degraded entry); panic events record a recovered extraction panic.
const (
	EventDegraded = "degraded"
	EventPanic    = "panic"
)

// StageTimings records per-stage wall time for one extraction. It is
// populated on every extraction — tracer or not — because reading the
// clock ten times is noise next to a parse, and batch diagnostics need the
// numbers even when no tracer was attached.
type StageTimings struct {
	HTMLParse time.Duration `json:"htmlparse"`
	Layout    time.Duration `json:"layout"`
	Tokenize  time.Duration `json:"tokenize"`
	Parse     time.Duration `json:"parse"`
	Merge     time.Duration `json:"merge"`
}

// Total sums the stage times.
func (st StageTimings) Total() time.Duration {
	return st.HTMLParse + st.Layout + st.Tokenize + st.Parse + st.Merge
}

func (st StageTimings) String() string {
	return fmt.Sprintf("htmlparse=%v layout=%v tokenize=%v parse=%v merge=%v",
		st.HTMLParse, st.Layout, st.Tokenize, st.Parse, st.Merge)
}

// Tracer hands out Traces and delivers completed ones to its sink. The zero
// cost guarantee is structural: a nil Tracer (or one constructed without a
// sink) never allocates a Trace, so every downstream Span call no-ops on a
// nil receiver.
type Tracer struct {
	sink  Sink
	epoch int64         // tracer creation time, the ID namespace
	seq   atomic.Uint64 // per-tracer trace counter
}

// NewTracer returns a tracer delivering completed traces to sink. A nil
// sink yields a disabled tracer: Start returns nil and no tracing state is
// ever allocated (use NopSink to build spans and discard them — that is
// the "measure the instrumentation" configuration, not the disabled one).
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return &Tracer{}
	}
	return &Tracer{sink: sink, epoch: time.Now().UnixNano()}
}

// Enabled reports whether Start will produce a live trace.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Start begins a new trace with a fresh ID, or returns nil when the tracer
// is disabled. End the trace to deliver it to the sink.
func (t *Tracer) Start(name string) *Trace {
	if !t.Enabled() {
		return nil
	}
	n := t.seq.Add(1)
	tr := &Trace{
		tracer: t,
		ID:     fmt.Sprintf("%08x-%06x", uint32(t.epoch>>10), n&0xffffff),
		Name:   name,
	}
	tr.root = newSpan(tr, name)
	return tr
}

// Trace is one traced operation: a tree of spans under a root span named
// after the operation. Nil-safe throughout.
type Trace struct {
	ID     string
	Name   string
	tracer *Tracer
	root   *Span
}

// TraceID returns the trace's ID, or "" for a nil trace.
func (tr *Trace) TraceID() string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// Root returns the root span (nil for a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Span starts a child of the root span.
func (tr *Trace) Span(name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.root.Span(name)
}

// End closes the root span and delivers the trace to the tracer's sink.
// Ending a nil trace is a no-op; ending twice delivers once.
func (tr *Trace) End() {
	if tr == nil || tr.root.ended {
		return
	}
	tr.root.End()
	tr.tracer.sink.Emit(tr)
}

// Attr is one structured key/value on a span or event. Exactly one of Str
// and Int is meaningful; IsStr discriminates (so the zero int is a valid
// value).
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// Event is a point-in-time record inside a span, offset from the span
// start.
type Event struct {
	Name  string
	At    time.Duration
	Attrs []Attr
}

// Span is one timed region of a trace. All methods are nil-safe so
// instrumented code never guards its calls.
type Span struct {
	trace    *Trace
	Name     string
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr
	Events   []Event
	Children []*Span
	ended    bool

	// attrs backs Attrs for the first spanInlineAttrs attributes, so a
	// span's SetInt/SetStr calls ride on the span's own allocation instead
	// of growing a slice one append at a time; a seventh spills to the
	// heap as usual.
	attrs [spanInlineAttrs]Attr
}

// spanInlineAttrs is how many attributes a span holds without a further
// allocation: the parse span sets six, and most spans fewer.
const spanInlineAttrs = 6

// newSpan allocates a started span of trace tr with its inline attribute
// storage in place.
func newSpan(tr *Trace, name string) *Span {
	s := &Span{trace: tr, Name: name, Start: time.Now()}
	s.Attrs = s.attrs[:0]
	return s
}

// Span starts a child span.
func (s *Span) Span(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(s.trace, name)
	s.Children = append(s.Children, c)
	return c
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Int(key, v))
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Str(key, v))
}

// Event records a structured event at the current offset into the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Name: name, At: time.Since(s.Start), Attrs: attrs})
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration; ending nil is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = time.Since(s.Start)
}

// ---- JSON rendering ----
//
// Traces marshal to a stable JSON shape consumed by `formext -trace` and
// formserve's /traces endpoint:
//
//	{"traceId": "...", "name": "extract", "start": "...", "durUs": 1234,
//	 "root": {"name": "extract", "startUs": 0, "durUs": 1234,
//	          "attrs": {...}, "events": [...], "children": [...]}}
//
// Offsets are microseconds relative to the trace start, which keeps the
// numbers human-sized and the output diff-friendly.

type spanJSON struct {
	Name     string         `json:"name"`
	StartUs  int64          `json:"startUs"`
	DurUs    int64          `json:"durUs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []eventJSON    `json:"events,omitempty"`
	Children []spanJSON     `json:"children,omitempty"`
}

type eventJSON struct {
	Name  string         `json:"name"`
	AtUs  int64          `json:"atUs"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

func (s *Span) toJSON(t0 time.Time) spanJSON {
	out := spanJSON{
		Name:    s.Name,
		StartUs: s.Start.Sub(t0).Microseconds(),
		DurUs:   s.Dur.Microseconds(),
		Attrs:   attrMap(s.Attrs),
	}
	for _, ev := range s.Events {
		out.Events = append(out.Events, eventJSON{
			Name:  ev.Name,
			AtUs:  (s.Start.Add(ev.At).Sub(t0)).Microseconds(),
			Attrs: attrMap(ev.Attrs),
		})
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.toJSON(t0))
	}
	return out
}

// MarshalJSON renders the whole span tree; see the package-level format
// note. Safe on completed traces only (sinks receive completed traces).
func (tr *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		TraceID string    `json:"traceId"`
		Name    string    `json:"name"`
		Start   time.Time `json:"start"`
		DurUs   int64     `json:"durUs"`
		Root    spanJSON  `json:"root"`
	}{
		TraceID: tr.ID,
		Name:    tr.Name,
		Start:   tr.root.Start,
		DurUs:   tr.root.Dur.Microseconds(),
		Root:    tr.root.toJSON(tr.root.Start),
	})
}

// FindSpan returns the first span named name in a depth-first walk of the
// trace, or nil. A diagnostic helper for tests and trace consumers.
func (tr *Trace) FindSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	var find func(s *Span) *Span
	find = func(s *Span) *Span {
		if s.Name == name {
			return s
		}
		for _, c := range s.Children {
			if hit := find(c); hit != nil {
				return hit
			}
		}
		return nil
	}
	return find(tr.root)
}
