// Command formserve runs the form extractor as an HTTP service — the shape
// of the online demo the paper hosted on the MetaQuerier site. POST HTML to
// /extract and receive the semantic model as JSON; GET / serves a minimal
// page for pasting a form by hand.
//
// Usage:
//
//	formserve [-addr :8080] [-trace-buffer 64] [-parse-budget 0] [-extract-timeout 30s]
//	          [-cache-bytes 0] [-cache-ttl 0]
//	          [-self URL] [-peers URL,URL,...] [-peers-file PATH]
//
// Endpoints:
//
//	POST /extract            body: HTML    → JSON semantic model
//	POST /extract?trees=1    also include rendered parse trees
//	POST /query              body: [attr=v; attr<v; ...] → unified deep-web answer
//	GET  /sources            registered deep-web sources + unified interface size
//	POST /sources            register sources ({id, endpoint, html|htmlFile}, upsert)
//	DELETE /sources/<id>     deregister a source
//	POST /cluster/fetch      peer-internal: always-local extraction
//	GET  /grammar            the derived 2P grammar (DSL text)
//	GET  /healthz            liveness probe (is the process alive?)
//	GET  /readyz             readiness probe (should peers route here?)
//	GET  /metrics            this server's counters, parser totals, latency histogram
//	GET  /traces             recent extraction traces (?id=... for one)
//	GET  /                   paste-a-form demo page
//
// Query mediation (/query with sources from /sources or -sources-file)
// turns the server into a MetaQuerier front end: each registered source's
// interface is extracted by the shared extractor, the sources unify into one
// interface, and a constraint query fans out (bounded by -query-fanout) as
// native form submissions whose results come back unified with per-source
// attribution. Dead or unroutable sources degrade the answer — reported in
// its degradation list — but never error the request; only a malformed
// query string answers 400. Counters and a latency histogram appear on
// /metrics under formserve_query*.
//
// The server reads and writes with timeouts, drains in-flight requests on
// SIGINT/SIGTERM (flipping /readyz to 503 first, so cluster peers stop
// routing here before the listener closes), and serves every extraction
// through one shared extractor over the parse-once default grammar.
//
// Cluster mode (-self plus -peers or -peers-file) turns N formserve
// processes into one sharded service: every request's content-addressed
// cache key is mapped through a consistent-hash ring to its owning peer.
// The owner serves locally — its cache and singleflight collapse a
// fleet-wide stampede on one key into one extraction — and non-owners
// forward the page to the owner's /cluster/fetch, relaying the response
// (and keeping a bounded hot copy, -peer-hot-bytes, so hot keys stop
// costing a round trip; responses are content-addressed and immutable, so
// hot copies cannot be stale). A peer that stops answering is ejected from
// the ring after consecutive fetch failures and its keys re-map to the
// survivors; requests that lose their peer mid-flight fall back to local
// extraction — degraded locality, never an error. Ejected peers are probed
// on /readyz and rejoin when they answer. The peer list reloads from
// -peers-file on SIGHUP. /metrics exposes ring membership and per-peer
// counters under formserve_cluster.
//
// Every /extract response for a fully-processed page carries an ETag
// derived from the content-addressed key, and an If-None-Match that covers
// it is answered 304 before any extraction work — the same content-hash
// revalidation machinery the static endpoints use.
//
// With -cache-bytes > 0 the server keeps a content-addressed cache of frozen
// extraction results: byte-identical pages are answered without re-running
// the pipeline, a stampede of identical requests coalesces into one
// extraction, and -cache-ttl bounds entry lifetime (0 = until evicted by
// byte pressure). /metrics exposes the cache counters under formserve_cache
// (cache_hits, cache_misses, cache_evictions, cache_bytes, coalesced). The
// static endpoints (/ and /grammar) carry a content-hash ETag and answer
// If-None-Match revalidations with 304.
//
// Every extraction is traced into an in-memory ring buffer (-trace-buffer
// traces, 0 disables tracing): the response carries the trace ID in its
// body and the X-Trace-Id header, and GET /traces?id=<id> replays the full
// span tree — per-stage timings, fix-point groups, prune and merge-conflict
// events — of that exact request.
//
// Every metric belongs to the server that serves it: /metrics renders that
// server's own counters and views, never a process-wide registry (only
// expvar's cmdline and memstats are process-wide by nature).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"formext"
	"formext/internal/cluster"
	"formext/internal/metaquery"
)

// maxBody bounds the request body of /extract.
const maxBody = 1 << 20

// pageBuf is one recyclable request-body buffer of the extraction routes.
type pageBuf struct{ b []byte }

// pageBufs recycles the body buffers of /extract and /cluster/fetch: a
// fresh 30-60 KB page slice per request was most of what the server
// allocated. maxPooledBody caps the buffers kept, so a rare near-limit body
// is not pinned in the pool.
var pageBufs = sync.Pool{New: func() any { return new(pageBuf) }}

const maxPooledBody = 256 << 10

// recyclePage returns a body buffer to pageBufs; a package variable so
// tests can scribble over recycled buffers and see which paths recycle.
var recyclePage = func(pb *pageBuf) {
	if cap(pb.b) <= maxPooledBody {
		pageBufs.Put(pb)
	}
}

// metrics is one server's serving counters, rendered by its own /metrics.
// Each server owns its set, so servers built in one process never share a
// counter or a cache view.
type metrics struct {
	// requests counts requests per endpoint.
	requests expvar.Map
	// extractions counts successful extractions.
	extractions expvar.Int
	// extractErrors counts failed extractions (bad bodies excluded).
	extractErrors expvar.Int
	// latencyNs accumulates extraction wall time in nanoseconds; divide by
	// formserve_extractions_total for the mean. Kept for scrapers that
	// already track it; latency is the interpretable view.
	latencyNs expvar.Int
	// latency is the extraction latency histogram: count, sum, min, max and
	// cumulative fixed buckets (100µs–10s), so one scrape of /metrics is
	// readable without computing deltas.
	latency *formext.Histogram
	// tokens accumulates tokens seen across extractions.
	tokens expvar.Int
	// instances accumulates parser instances created across extractions.
	instances expvar.Int
	// prunes and rollbacks accumulate the parser's preference-pruning work:
	// instances killed directly and killed transitively.
	prunes, rollbacks expvar.Int
	// fixpoint accumulates fix-point rounds across all schedule groups.
	fixpoint expvar.Int
	// conflicts and missing accumulate the merger's two error classes.
	conflicts, missing expvar.Int
	// panics counts extractions that panicked and were contained; each one
	// is a bug worth a bug report, but none of them is an outage.
	panics expvar.Int
	// deadline counts extractions cut off by the -extract-timeout deadline
	// (answered 503 + Retry-After).
	deadline expvar.Int
	// clientGone counts extractions abandoned because the client hung up;
	// they are neither successes nor extraction errors.
	clientGone expvar.Int
	// degraded counts successful extractions that were degraded by an input
	// budget (depth cap, token cap, instance cap, parse budget).
	degraded expvar.Int
	// forwarded counts requests answered by forwarding to the key's owning
	// peer (hot-copy answers included); the owner's own counters record the
	// extraction work.
	forwarded expvar.Int
	// peerFallback counts requests whose owning peer could not be reached
	// and were served by local extraction instead — the graceful-degradation
	// path. Nonzero here with zero request errors is the cluster working as
	// designed around a dead peer.
	peerFallback expvar.Int
	// notModified counts /extract requests answered 304 from the
	// content-hash ETag before any extraction work ran.
	notModified expvar.Int

	// queries counts /query requests that reached the engine.
	queries expvar.Int
	// queryParseErrors counts malformed query strings (the only /query input
	// the engine rejects outright).
	queryParseErrors expvar.Int
	// queryDegraded counts answers that came back degraded — an unroutable
	// constraint or an unreachable source. The query still answered.
	queryDegraded expvar.Int
	// queryRecords accumulates unified records returned across answers.
	queryRecords expvar.Int
	// queryFanout accumulates sources actually queried, for mean fan-out.
	queryFanout expvar.Int
	// queryLatency is the end-to-end mediation latency histogram (route +
	// translate + fan-out + unify).
	queryLatency *formext.Histogram
	// sourceRegs and sourceDels count source registry mutations.
	sourceRegs, sourceDels expvar.Int

	// all is the /metrics body: every var above under its metric name, the
	// cache, in-flight and cluster views, and the process-wide cmdline and
	// memstats. Never published, so it belongs to this server alone.
	all expvar.Map
}

// registerMetrics names the server's metrics for /metrics.
func (s *server) registerMetrics() {
	m := &s.m
	m.latency = formext.NewHistogram()
	m.queryLatency = formext.NewHistogram()
	for name, v := range map[string]expvar.Var{
		"formserve_requests_total":                   &m.requests,
		"formserve_extractions_total":                &m.extractions,
		"formserve_extract_errors_total":             &m.extractErrors,
		"formserve_extract_latency_ns_total":         &m.latencyNs,
		"formserve_extract_latency_ns":               m.latency,
		"formserve_tokens_total":                     &m.tokens,
		"formserve_instances_total":                  &m.instances,
		"formserve_prunes_total":                     &m.prunes,
		"formserve_rollbacks_total":                  &m.rollbacks,
		"formserve_fixpoint_iters_total":             &m.fixpoint,
		"formserve_merge_conflicts_total":            &m.conflicts,
		"formserve_merge_missing_total":              &m.missing,
		"formserve_panics_total":                     &m.panics,
		"formserve_deadline_total":                   &m.deadline,
		"formserve_client_gone_total":                &m.clientGone,
		"formserve_degraded_total":                   &m.degraded,
		"formserve_forwarded_total":                  &m.forwarded,
		"formserve_peer_fallback_total":              &m.peerFallback,
		"formserve_not_modified_total":               &m.notModified,
		"formserve_query_total":                      &m.queries,
		"formserve_query_parse_errors_total":         &m.queryParseErrors,
		"formserve_query_degraded_total":             &m.queryDegraded,
		"formserve_query_records_total":              &m.queryRecords,
		"formserve_query_fanout_total":               &m.queryFanout,
		"formserve_query_latency_ns":                 m.queryLatency,
		"formserve_query_source_registrations_total": &m.sourceRegs,
		"formserve_query_source_deletions_total":     &m.sourceDels,
		"formserve_cache":                            expvar.Func(s.cacheView),
		"formserve_inflight":                         expvar.Func(s.inflightView),
		"formserve_cluster":                          expvar.Func(s.clusterView),
		"cmdline":                                    expvar.Get("cmdline"),
		"memstats":                                   expvar.Get("memstats"),
	} {
		m.all.Set(name, v)
	}
}

// cacheView is formserve_cache: the extraction cache's counters, or null
// when the cache is off.
func (s *server) cacheView() any {
	c := s.ex.Options().Cache
	if c == nil {
		return nil
	}
	st := c.Stats()
	return map[string]int64{
		"cache_hits":      int64(st.Hits),
		"cache_misses":    int64(st.Misses),
		"cache_evictions": int64(st.Evictions),
		"cache_bytes":     st.Bytes,
		"cache_entries":   int64(st.Entries),
		"coalesced":       int64(st.Coalesced),
	}
}

// inflightView is formserve_inflight: extractions (local and forwarded)
// currently in flight, and the high-water mark.
func (s *server) inflightView() any {
	return map[string]int64{"live": s.inflight.InFlight(), "peak": s.inflight.Peak()}
}

// clusterView is formserve_cluster: ring membership, fetch and hot-copy
// counters in aggregate and per peer, or null outside cluster mode.
func (s *server) clusterView() any {
	if s.cluster == nil {
		return nil
	}
	st := s.cluster.Stats()
	hot := s.cluster.HotStats()
	return map[string]any{
		"self":         st.Self,
		"live_peers":   st.LivePeers,
		"total_peers":  st.TotalPeers,
		"fetches":      st.Fetches,
		"fetch_errors": st.FetchErrors,
		"hot_hits":     st.HotHits,
		"hot_bytes":    hot.Bytes,
		"hot_entries":  hot.Entries,
		"ejections":    st.Ejections,
		"revivals":     st.Revivals,
		"peers":        st.Peers,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	traceBuf := flag.Int("trace-buffer", 64, "recent traces kept for /traces (0 disables tracing)")
	budget := flag.Duration("parse-budget", 0,
		"per-extraction wall-clock budget; expiry degrades to a partial result (0 disables)")
	timeout := flag.Duration("extract-timeout", 30*time.Second,
		"hard per-request extraction deadline; exceeding it answers 503 (0 disables)")
	cacheBytes := flag.Int64("cache-bytes", 0,
		"byte budget for the content-addressed extraction-result cache (0 disables)")
	cacheTTL := flag.Duration("cache-ttl", 0,
		"lifetime bound for cached extraction results (0 = until evicted)")
	retryAfter := flag.Int("retry-after", 1,
		"Retry-After seconds advertised on 503 deadline responses")
	self := flag.String("self", "",
		"this peer's advertised base URL (e.g. http://10.0.0.1:8080); enables cluster mode")
	peersFlag := flag.String("peers", "",
		"comma-separated peer base URLs, self included (cluster mode)")
	peersFile := flag.String("peers-file", "",
		"file of peer base URLs, one per line; reloaded on SIGHUP")
	peerTimeout := flag.Duration("peer-timeout", cluster.DefaultFetchTimeout,
		"per-attempt deadline for peer fetches")
	sourcesFile := flag.String("sources-file", "",
		"JSON array of deep-web sources ({id, endpoint, html|htmlFile}) registered at startup")
	queryFanout := flag.Int("query-fanout", 8,
		"bound on concurrent per-source submissions of one /query")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second,
		"end-to-end deadline for /query mediation (0 disables)")
	hotBytes := flag.Int64("peer-hot-bytes", 32<<20,
		"byte budget for the local cache of peer-fetched responses (0 disables)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond,
		"cluster mode: pause between flipping /readyz and closing the listener, so peers stop routing here")
	flag.Parse()

	peers, err := resolvePeers(*peersFlag, *peersFile)
	if err != nil {
		log.Fatal(err)
	}
	s, err := newHandler(config{
		traceBuffer:    *traceBuf,
		parseBudget:    *budget,
		extractTimeout: *timeout,
		cacheBytes:     *cacheBytes,
		cacheTTL:       *cacheTTL,
		retryAfter:     *retryAfter,
		self:           *self,
		peers:          peers,
		peerTimeout:    *peerTimeout,
		peerHotBytes:   *hotBytes,
		sourcesFile:    *sourcesFile,
		queryFanout:    *queryFanout,
		queryTimeout:   *queryTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if s.cluster != nil && *peersFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				data, err := os.ReadFile(*peersFile)
				if err != nil {
					log.Printf("formserve: reloading %s: %v", *peersFile, err)
					continue
				}
				ps := cluster.ParsePeersFile(data)
				s.cluster.SetPeers(ps)
				log.Printf("formserve: reloaded %d peers from %s", len(ps), *peersFile)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("formserve listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Print("formserve: signal received, draining")
		// Flip readiness first: peers probing /readyz (and load balancers)
		// stop routing here while in-flight requests finish. The grace pause
		// gives them a window to notice before the listener closes.
		s.SetReady(false)
		if s.cluster != nil && *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("formserve: shutdown: %v", err)
		}
	}
}

// resolvePeers merges the -peers flag and -peers-file into one list.
func resolvePeers(flagVal, file string) ([]string, error) {
	var peers []string
	for _, p := range strings.Split(flagVal, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("formserve: peers file: %w", err)
		}
		peers = append(peers, cluster.ParsePeersFile(data)...)
	}
	return peers, nil
}

// config is the service configuration newHandler builds from.
type config struct {
	// traceBuffer sizes the ring of recent traces behind /traces; 0 serves
	// untraced (stage timings and counters still flow — only span trees are
	// skipped).
	traceBuffer int
	// parseBudget is Options.ParseBudget: expiry degrades the extraction to
	// a partial result. 0 disables.
	parseBudget time.Duration
	// extractTimeout is the hard per-request deadline; exceeding it answers
	// 503 with Retry-After. 0 disables.
	extractTimeout time.Duration
	// cacheBytes is the byte budget of the extraction-result cache; 0 serves
	// every request through the full pipeline.
	cacheBytes int64
	// cacheTTL bounds cached-result lifetime; 0 means until evicted.
	cacheTTL time.Duration
	// retryAfter is the Retry-After value (in seconds) advertised on 503
	// deadline responses, steering client backoff to the server's actual
	// recovery horizon. Values below 1 (the zero value included) fall back
	// to 1 second, the historical behavior.
	retryAfter int
	// self is this peer's advertised base URL; non-empty enables cluster
	// mode (peers may be empty: a single-node cluster owns every key).
	self string
	// peers is the fleet membership, self included or not (self is always
	// added). Requires self.
	peers []string
	// peerTimeout bounds each peer-fetch attempt (0 = cluster default).
	peerTimeout time.Duration
	// peerHotBytes budgets the local cache of peer-fetched responses.
	peerHotBytes int64
	// clusterConfig, when non-nil, overrides the derived cluster.Config
	// wholesale (tests tighten timeouts and probe intervals through it).
	clusterConfig *cluster.Config
	// sourcesFile, when non-empty, registers deep-web sources at startup (a
	// JSON array of {id, endpoint, html|htmlFile}); any bad entry fails
	// startup.
	sourcesFile string
	// queryFanout bounds concurrent per-source submissions of one /query
	// (0 = engine default).
	queryFanout int
	// queryTimeout is the end-to-end /query mediation deadline; 0 disables.
	queryTimeout time.Duration
}

// server is the service state: one extractor shared by all requests, the
// flight-recorder sink its tracer feeds, and (in cluster mode) this peer's
// view of the fleet.
type server struct {
	ex             *formext.Extractor
	sink           *formext.RingSink    // nil when tracing is disabled
	cluster        *cluster.Cluster     // nil outside cluster mode
	engine         *metaquery.Engine    // deep-web query mediation (/query, /sources)
	inflight       *formext.StreamGauge // live/peak extraction concurrency
	ready          atomic.Bool          // readiness: flipped false during drain
	m              metrics              // this server's /metrics
	*http.ServeMux                      // serves every route through handle, in newHandler
	extractTimeout time.Duration
	queryTimeout   time.Duration
	retryAfter     string // preformatted seconds for the Retry-After header
	grammarETag    string
	indexETag      string
}

// SetReady flips the readiness probe. The drain path sets it false before
// the listener closes, so peers and load balancers stop routing here while
// in-flight requests finish.
func (s *server) SetReady(ready bool) { s.ready.Store(ready) }

// Close releases the server's background resources (the cluster prober).
func (s *server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// newHandler builds the service. Every extraction is served by one shared
// extractor over the parse-once grammar; building it also validates the
// configuration once at startup. The returned server is an
// http.Handler; callers that enable cluster mode must Close it.
func newHandler(cfg config) (*server, error) {
	opts := formext.Options{ParseBudget: cfg.parseBudget}
	var sink *formext.RingSink
	if cfg.traceBuffer > 0 {
		sink = formext.NewRingSink(cfg.traceBuffer)
		opts.Tracer = formext.NewTracer(sink)
	}
	if cfg.cacheBytes > 0 {
		cache, err := formext.NewCache(formext.CacheConfig{
			MaxBytes: cfg.cacheBytes,
			TTL:      cfg.cacheTTL,
		})
		if err != nil {
			return nil, err
		}
		opts.Cache = cache
	}
	ex, err := formext.New(opts)
	if err != nil {
		return nil, err
	}
	retryAfter := cfg.retryAfter
	if retryAfter < 1 {
		retryAfter = 1
	}
	s := &server{
		ex:             ex,
		sink:           sink,
		inflight:       &formext.StreamGauge{},
		ServeMux:       http.NewServeMux(),
		extractTimeout: cfg.extractTimeout,
		queryTimeout:   cfg.queryTimeout,
		retryAfter:     strconv.Itoa(retryAfter),
		grammarETag:    etagFor(formext.DefaultGrammarSource()),
		indexETag:      etagFor(indexPage),
	}
	s.ready.Store(true)
	switch {
	case cfg.clusterConfig != nil:
		cl, err := cluster.New(*cfg.clusterConfig)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	case cfg.self != "":
		cl, err := cluster.New(cluster.Config{
			Self:         cfg.self,
			Peers:        cfg.peers,
			FetchTimeout: cfg.peerTimeout,
			HotBytes:     cfg.peerHotBytes,
			HotTTL:       cfg.cacheTTL,
		})
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	case len(cfg.peers) > 0:
		return nil, errors.New("formserve: -peers requires -self")
	}
	s.registerMetrics()
	// The mediation engine shares the extractor's tracer so /query spans land in
	// the same flight recorder as extraction spans.
	s.engine = metaquery.New(metaquery.Config{
		MaxFanout: cfg.queryFanout,
		Timeout:   cfg.queryTimeout,
		Tracer:    opts.Tracer,
	})
	if cfg.sourcesFile != "" {
		if err := s.loadSourcesFile(cfg.sourcesFile); err != nil {
			s.Close()
			return nil, err
		}
	}
	// handle registers h, counting each request it serves under its pattern
	// (/sources/<id> under /sources). Paths no other pattern claims fall to
	// "/" and count as "other".
	handle := func(pattern string, h http.HandlerFunc) {
		key := path.Clean(pattern)
		s.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if key == "/" && r.URL.Path != "/" {
				s.m.requests.Add("other", 1)
			} else {
				s.m.requests.Add(key, 1)
			}
			h(w, r)
		})
	}
	handle("/extract", func(w http.ResponseWriter, r *http.Request) { s.serveExtract(w, r, true) })
	handle("/query", s.handleQuery)
	handle("/sources", s.handleSources)
	handle("/sources/", s.handleSourceID)
	handle(cluster.FetchPath, func(w http.ResponseWriter, r *http.Request) { s.serveExtract(w, r, false) })
	handle("/grammar", s.handleGrammar)
	handle("/healthz", s.handleHealthz)
	handle(cluster.ReadyPath, s.handleReadyz)
	handle("/metrics", s.handleMetrics)
	handle("/traces", s.handleTraces)
	handle("/", s.handleIndex)
	return s, nil
}

// extractResponse is the JSON envelope of /extract.
type extractResponse struct {
	Model   *formext.SemanticModel `json:"model"`
	Tokens  int                    `json:"tokens"`
	TraceID string                 `json:"traceId,omitempty"`
	Stats   struct {
		InstancesCreated int                  `json:"instancesCreated"`
		Pruned           int                  `json:"pruned"`
		RolledBack       int                  `json:"rolledBack"`
		FixpointIters    int                  `json:"fixpointIters"`
		CompleteParses   int                  `json:"completeParses"`
		MaximalTrees     int                  `json:"maximalTrees"`
		Conflicts        int                  `json:"conflicts"`
		Missing          int                  `json:"missing"`
		Duration         string               `json:"duration"`
		Stages           formext.StageTimings `json:"stages"`
		// CacheHit and Coalesced report how the extraction cache answered
		// this request; both false means the pipeline ran for it alone.
		CacheHit  bool `json:"cacheHit,omitempty"`
		Coalesced bool `json:"coalesced,omitempty"`
	} `json:"stats"`
	Trees []string `json:"trees,omitempty"`
	// Degraded lists how the extraction was cut short by input budgets, if
	// at all; clients distinguishing "this form has two conditions" from
	// "this form has two conditions we got to" need it.
	Degraded []string `json:"degraded,omitempty"`
}

// extract is the extraction the handler runs; a package variable so tests
// can inject panics and stalls behind the serving boundary.
var extract = func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
	return ex.ExtractBytes(ctx, src)
}

// safeExtract is the handler's own panic boundary, behind the library's:
// even a panic escaping the library's containment (or injected by a test)
// is contained to the request that caused it.
func (s *server) safeExtract(ctx context.Context, src []byte) (res *formext.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &formext.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return extract(ctx, s.ex, src)
}

// serveExtract serves both extraction endpoints: content-hash revalidation
// first (an If-None-Match covering the page's key answers 304 with zero
// work), then — with route set, in cluster mode — consistent-hash routing to
// the key's owner, then local extraction (as the owner, as a single node, or
// as the fallback for an unreachable owner). /extract routes; the
// peer-internal /cluster/fetch, the owner-side landing of a forwarded miss,
// does not — so forwarding cannot loop — and exists only in cluster mode.
func (s *server) serveExtract(w http.ResponseWriter, r *http.Request, route bool) {
	if !route && s.cluster == nil {
		http.Error(w, "not in cluster mode", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST HTML to "+r.URL.Path, http.StatusMethodNotAllowed)
		return
	}
	// The body goes into a pooled buffer, returned once the response is
	// written: nothing the handler hands on keeps the page (a Result owns
	// its strings, and the cache key is a hash). The one exception is a page
	// sent to a peer, which the buffer's owner can no longer vouch for.
	pb := pageBufs.Get().(*pageBuf)
	src, ok := readPage(w, r, pb.b[:0])
	if cap(src) > cap(pb.b) {
		pb.b = src[:0]
	}
	recycle := true
	defer func() {
		if recycle {
			recyclePage(pb)
		}
	}()
	if !ok {
		return
	}
	s.inflight.Inc()
	defer s.inflight.Dec()
	key := s.ex.ExtractKeyBytes(src)
	etag := extractETag(key, r.URL.Query().Get("trees") != "")
	if s.revalidate(w, r, etag) {
		return
	}
	if route && s.cluster != nil {
		owner, self := s.cluster.Owner(key)
		if !self {
			served, hot := s.relayPeer(w, r, owner, key, src)
			// A page that went out on a peer fetch is never recycled:
			// http.Transport may still read a request body after RoundTrip
			// returns on an error path. A hot-copy answer sent nothing.
			recycle = hot
			if served {
				return
			}
			// The owner is unreachable: serve this request ourselves. The
			// key's locality degrades (survivors may each extract it once)
			// but the request never errors.
			s.m.peerFallback.Add(1)
			w.Header().Set("X-Cluster-Source", "local-fallback")
		} else {
			w.Header().Set("X-Cluster-Source", "local")
		}
	}
	s.extractLocal(w, r, src, etag)
}

// readPage reads the request body under the size cap, answering the error
// itself when it fails. A declared Content-Length sizes the read exactly —
// into buf's storage when it has room, else into one fresh slice, with no
// garbage from growing a small start through a 30-60 KB page — and one
// over the cap is refused before anything is read; chunked bodies of
// unknown length are read through the cap as they come, into a fresh
// slice.
//
// The extraction routes pass a pooled buffer and recycle it once the
// response is written (serveExtract), except after an outgoing peer fetch
// sent it: the transport may still be reading it. /query and /sources pass
// nil and keep a plain allocation.
func readPage(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	var src []byte
	var err error
	switch {
	case r.ContentLength > maxBody:
		err = &http.MaxBytesError{Limit: maxBody}
	case r.ContentLength > 0:
		if int64(cap(buf)) >= r.ContentLength {
			src = buf[:r.ContentLength]
		} else {
			src = make([]byte, r.ContentLength)
		}
		_, err = io.ReadFull(r.Body, src)
	default:
		src, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	}
	if err != nil {
		// 413 is only for bodies over the limit; everything else — client
		// disconnects, short bodies, malformed transfer encodings — is a bad
		// request.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return src, true
}

// revalidate answers 304 when the client's If-None-Match covers the page's
// content-derived ETag — before any extraction, forwarding or cache work,
// because the key alone determines the answer.
func (s *server) revalidate(w http.ResponseWriter, r *http.Request, etag string) bool {
	if !etagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("ETag", etag)
	s.m.notModified.Add(1)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// relayPeer forwards the page to its owning peer and relays the response
// verbatim (plus attribution headers). served false means the peer could
// not be reached — the caller extracts locally; any answer the owner gave,
// error responses included, is authoritative and relayed. hot reports an
// answer from the hot copy, which sent no request and so never read src.
func (s *server) relayPeer(w http.ResponseWriter, r *http.Request, owner string, key formext.CacheKey, src []byte) (served, hot bool) {
	ctx := r.Context()
	if s.extractTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.extractTimeout)
		defer cancel()
	}
	query := ""
	if r.URL.Query().Get("trees") != "" {
		query = "trees=1"
	}
	fr, err := s.cluster.Fetch(ctx, owner, key, src, query)
	if err != nil {
		return false, false
	}
	s.m.forwarded.Add(1)
	h := w.Header()
	h.Set("X-Cluster-Owner", owner)
	if fr.Hot {
		h.Set("X-Cluster-Source", "peer-hot")
	} else {
		h.Set("X-Cluster-Source", "peer")
	}
	if fr.ETag != "" {
		h.Set("ETag", fr.ETag)
	}
	if fr.ContentType != "" {
		h.Set("Content-Type", fr.ContentType)
	}
	w.WriteHeader(fr.Status)
	if _, werr := w.Write(fr.Body); werr != nil {
		log.Printf("formserve: relaying peer response: %v", werr)
	}
	return true, fr.Hot
}

// extractLocal runs the extraction on this process and writes the JSON
// envelope — the single-node serving path, shared by the owner side of
// /cluster/fetch and the fallback for unreachable peers.
func (s *server) extractLocal(w http.ResponseWriter, r *http.Request, src []byte, etag string) {
	// The extraction runs under the request context — a client that hangs
	// up stops burning CPU at the next pipeline checkpoint — tightened by
	// the configured hard deadline.
	ctx := r.Context()
	if s.extractTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.extractTimeout)
		defer cancel()
	}
	start := time.Now()
	res, err := s.safeExtract(ctx, src)
	if err != nil {
		var pe *formext.PanicError
		switch {
		case errors.As(err, &pe):
			s.m.extractErrors.Add(1)
			s.m.panics.Add(1)
			log.Printf("formserve: contained extraction panic: %v\n%s", pe.Value, pe.Stack)
			http.Error(w, "extraction failed", http.StatusInternalServerError)
		case r.Context().Err() != nil:
			// The client is gone; nobody will read an answer. Not a success,
			// not an extraction error.
			s.m.clientGone.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.m.extractErrors.Add(1)
			s.m.deadline.Add(1)
			w.Header().Set("Retry-After", s.retryAfter)
			http.Error(w, "extraction exceeded the server deadline", http.StatusServiceUnavailable)
		default:
			s.m.extractErrors.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.m.extractions.Add(1)
	if len(res.Stats.Degraded) > 0 {
		s.m.degraded.Add(1)
	}
	lat := time.Since(start).Nanoseconds()
	s.m.latencyNs.Add(lat)
	s.m.latency.Observe(lat)
	// Parser-work totals accumulate once per extraction, not once per
	// request: a cached or coalesced answer carries the original run's
	// Stats, and re-adding them would inflate the totals with work that
	// never happened.
	if !res.Stats.CacheHit && !res.Stats.Coalesced {
		s.m.tokens.Add(int64(len(res.Tokens)))
		s.m.instances.Add(int64(res.Stats.TotalCreated))
		s.m.prunes.Add(int64(res.Stats.Pruned))
		s.m.rollbacks.Add(int64(res.Stats.RolledBack))
		s.m.fixpoint.Add(int64(res.Stats.FixpointIters))
		s.m.conflicts.Add(int64(res.Stats.Merge.Conflicts))
		s.m.missing.Add(int64(res.Stats.Merge.Missing))
	}

	var resp extractResponse
	resp.Model = res.Model
	resp.Tokens = len(res.Tokens)
	resp.TraceID = res.Stats.TraceID
	resp.Stats.InstancesCreated = res.Stats.TotalCreated
	resp.Stats.Pruned = res.Stats.Pruned
	resp.Stats.RolledBack = res.Stats.RolledBack
	resp.Stats.FixpointIters = res.Stats.FixpointIters
	resp.Stats.CompleteParses = res.Stats.CompleteParses
	resp.Stats.MaximalTrees = len(res.Trees)
	resp.Stats.Conflicts = res.Stats.Merge.Conflicts
	resp.Stats.Missing = res.Stats.Merge.Missing
	resp.Stats.Duration = res.Stats.Duration.String()
	resp.Stats.Stages = res.Stats.Stages
	resp.Stats.CacheHit = res.Stats.CacheHit
	resp.Stats.Coalesced = res.Stats.Coalesced
	if resp.TraceID != "" {
		w.Header().Set("X-Trace-Id", resp.TraceID)
	}
	if r.URL.Query().Get("trees") != "" {
		for _, tr := range res.Trees {
			resp.Trees = append(resp.Trees, tr.Dump())
		}
	}
	resp.Degraded = res.Stats.Degraded
	// A fully-processed page's model is a pure function of its bytes (and
	// the grammar and options baked into the key), so the content-derived
	// ETag lets any client — or any peer's hot cache — revalidate it against
	// any fleet member. Degraded results are this request's circumstances,
	// not the page's identity, and carry no validator.
	if len(res.Stats.Degraded) == 0 {
		w.Header().Set("ETag", etag)
	}
	writeJSON(w, resp)
}

// extractETag derives the /extract validator from the content-addressed
// key (plus a marker for the trees=1 response shape, which changes the
// body). Every fleet member derives the same validator for the same page —
// the golden-key test pins this.
func extractETag(key formext.CacheKey, trees bool) string {
	if trees {
		return `"` + hex.EncodeToString(key[:16]) + `-t"`
	}
	return `"` + hex.EncodeToString(key[:16]) + `"`
}

// tracesResponse is the JSON envelope of GET /traces (without ?id=).
type tracesResponse struct {
	Count   int              `json:"count"`
	Dropped uint64           `json:"dropped"`
	Traces  []*formext.Trace `json:"traces"`
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET /traces", http.StatusMethodNotAllowed)
		return
	}
	if s.sink == nil {
		http.Error(w, "tracing disabled (-trace-buffer 0)", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr := s.sink.Find(id)
		if tr == nil {
			http.Error(w, "no buffered trace "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, tr)
		return
	}
	writeJSON(w, tracesResponse{
		Count:   s.sink.Len(),
		Dropped: s.sink.Dropped(),
		Traces:  s.sink.Traces(),
	})
}

// handleMetrics renders this server's metrics as one JSON object, one
// metric a line, in the layout of expvar.Handler.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	sep := "{\n"
	s.m.all.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%s%q: %s", sep, kv.Key, kv.Value)
		sep = ",\n"
	})
	fmt.Fprint(w, "\n}\n")
}

func (s *server) handleGrammar(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "GET /grammar", http.StatusMethodNotAllowed)
		return
	}
	serveStatic(w, r, s.grammarETag, "text/plain; charset=utf-8", formext.DefaultGrammarSource())
}

// etagFor derives a strong content-hash ETag: identical bytes revalidate
// against any formserve instance or restart, because nothing but the content
// is hashed.
func etagFor(body string) string {
	sum := sha256.Sum256([]byte(body))
	return fmt.Sprintf(`"%x"`, sum[:16])
}

// serveStatic answers a static endpoint with conditional-GET support: the
// content-hash ETag always goes out, and an If-None-Match that covers it is
// answered 304 without a body, so clients stop re-downloading bytes they
// already hold.
func serveStatic(w http.ResponseWriter, r *http.Request, etag, contentType, body string) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=300, must-revalidate")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", contentType)
	if r.Method == http.MethodHead {
		return
	}
	fmt.Fprint(w, body)
}

// etagMatches implements the If-None-Match comparison (RFC 9110 §13.1.2):
// "*" matches anything, otherwise the comma-separated candidate list is
// compared weakly — a W/ prefix on either side is ignored, since a 304
// carries no body for strength to matter.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// handleHealthz is the liveness probe: it answers ok for as long as the
// process can serve HTTP at all. Orchestrators restart on liveness
// failure, so it must NOT flip during a graceful drain.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: should traffic be routed here?
// True from construction until the drain begins; cluster peers probe it to
// decide when an ejected peer may rejoin the ring, and to avoid routing to
// a peer that is shutting down.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

const indexPage = `<!doctype html><title>formext</title>
<h2>formext — Web query interface extractor</h2>
<p>Paste an HTML query form; the semantic model (the query conditions
[attribute; operators; domain]) comes back as JSON.</p>
<textarea rows="14" cols="90"></textarea><br>
<button onclick="fetch('/extract',{method:'POST',body:document.querySelector('textarea').value}).then(r=>r.text()).then(t=>document.querySelector('pre').textContent=t)">Extract</button>
<pre></pre>
<p><a href="/grammar">The derived 2P grammar</a></p>`

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	serveStatic(w, r, s.indexETag, "text/html; charset=utf-8", indexPage)
}

// writeJSON marshals v in full before touching the ResponseWriter, so a
// marshalling failure can still answer 500: encoding straight into w commits
// the 200 status on the first byte, after which an error response would be
// appended to a half-written body.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(buf, '\n')); err != nil {
		// The response is already committed; the write error (a gone client,
		// usually) can only be logged.
		log.Printf("formserve: writing response: %v", err)
	}
}
