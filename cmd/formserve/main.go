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
//	GET  /metrics            expvar counters, parser totals, latency histogram
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
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"formext"
	"formext/internal/cluster"
	"formext/internal/metaquery"
)

// maxBody bounds the request body of /extract.
const maxBody = 1 << 20

// Serving metrics, published through expvar and exposed at /metrics.
// Declared at package level so they are registered exactly once no matter
// how many handlers tests construct.
var (
	// mRequests counts requests per endpoint.
	mRequests = expvar.NewMap("formserve_requests_total")
	// mExtractions counts successful extractions.
	mExtractions = expvar.NewInt("formserve_extractions_total")
	// mExtractErrors counts failed extractions (bad bodies excluded).
	mExtractErrors = expvar.NewInt("formserve_extract_errors_total")
	// mLatencyNs accumulates extraction wall time in nanoseconds; divide by
	// formserve_extractions_total for the mean. Kept for scrapers that
	// already track it; mLatency is the interpretable view.
	mLatencyNs = expvar.NewInt("formserve_extract_latency_ns_total")
	// mLatency is the extraction latency histogram: count, sum, min, max
	// and cumulative fixed buckets (100µs–10s), so one scrape of /metrics
	// is readable without computing deltas.
	mLatency = formext.NewHistogram()
	// mTokens accumulates tokens seen across extractions.
	mTokens = expvar.NewInt("formserve_tokens_total")
	// mInstances accumulates parser instances created across extractions.
	mInstances = expvar.NewInt("formserve_instances_total")
	// mPrunes and mRollbacks accumulate the parser's preference-pruning
	// work: instances killed directly and killed transitively.
	mPrunes    = expvar.NewInt("formserve_prunes_total")
	mRollbacks = expvar.NewInt("formserve_rollbacks_total")
	// mFixpoint accumulates fix-point rounds across all schedule groups.
	mFixpoint = expvar.NewInt("formserve_fixpoint_iters_total")
	// mConflicts and mMissing accumulate the merger's two error classes.
	mConflicts = expvar.NewInt("formserve_merge_conflicts_total")
	mMissing   = expvar.NewInt("formserve_merge_missing_total")
	// mPanics counts extractions that panicked and were contained; each one
	// is a bug worth a bug report, but none of them is an outage.
	mPanics = expvar.NewInt("formserve_panics_total")
	// mDeadline counts extractions cut off by the -extract-timeout deadline
	// (answered 503 + Retry-After).
	mDeadline = expvar.NewInt("formserve_deadline_total")
	// mClientGone counts extractions abandoned because the client hung up;
	// they are neither successes nor extraction errors.
	mClientGone = expvar.NewInt("formserve_client_gone_total")
	// mDegraded counts successful extractions that were degraded by an input
	// budget (depth cap, token cap, instance cap, parse budget).
	mDegraded = expvar.NewInt("formserve_degraded_total")
	// mForwarded counts requests answered by forwarding to the key's owning
	// peer (hot-copy answers included); the owner's own counters record the
	// extraction work.
	mForwarded = expvar.NewInt("formserve_forwarded_total")
	// mPeerFallback counts requests whose owning peer could not be reached
	// and were served by local extraction instead — the graceful-degradation
	// path. Nonzero here with zero request errors is the cluster working as
	// designed around a dead peer.
	mPeerFallback = expvar.NewInt("formserve_peer_fallback_total")
	// mNotModified counts /extract requests answered 304 from the
	// content-hash ETag before any extraction work ran.
	mNotModified = expvar.NewInt("formserve_not_modified_total")
)

// activeCache, activeCluster and activeGauge hold the handler's extraction
// cache, cluster view and in-flight gauge for the expvars below. Atomic
// pointers (rather than fields read by closures created in newHandler)
// because expvar registration is process-global and must happen exactly
// once, while tests construct many handlers.
var (
	activeCache   atomic.Pointer[formext.Cache]
	activeCluster atomic.Pointer[cluster.Cluster]
	activeGauge   atomic.Pointer[formext.StreamGauge]
)

func init() {
	expvar.Publish("formserve_extract_latency_ns", mLatency)
	expvar.Publish("formserve_cache", expvar.Func(func() any {
		c := activeCache.Load()
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
	}))
	// formserve_inflight is the serving-side StreamGauge: extractions (local
	// and forwarded) currently in flight, and the high-water mark.
	expvar.Publish("formserve_inflight", expvar.Func(func() any {
		g := activeGauge.Load()
		if g == nil {
			return nil
		}
		return map[string]int64{"live": g.InFlight(), "peak": g.Peak()}
	}))
	// formserve_cluster is the cluster tier's view: ring membership, fetch
	// and hot-copy counters in aggregate and per peer.
	expvar.Publish("formserve_cluster", expvar.Func(func() any {
		cl := activeCluster.Load()
		if cl == nil {
			return nil
		}
		st := cl.Stats()
		hot := cl.HotStats()
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
	}))
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
	mux            *http.ServeMux
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
		activeCache.Store(cache)
	} else {
		activeCache.Store(nil)
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
		mux:            http.NewServeMux(),
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
	activeCluster.Store(s.cluster)
	activeGauge.Store(s.inflight)
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
	s.mux.HandleFunc("/extract", s.handleExtract)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/sources", s.handleSources)
	s.mux.HandleFunc("/sources/", s.handleSourceID)
	s.mux.HandleFunc("/cluster/fetch", s.handleClusterFetch)
	s.mux.HandleFunc("/grammar", s.handleGrammar)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", expvar.Handler())
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/", s.handleIndex)
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if strings.HasPrefix(path, "/sources/") {
		path = "/sources" // per-id routes count under the collection
	}
	switch path {
	case "/extract", "/cluster/fetch", "/grammar", "/healthz", "/readyz", "/metrics", "/traces", "/",
		"/query", "/sources":
		mRequests.Add(path, 1)
	default:
		mRequests.Add("other", 1)
	}
	s.mux.ServeHTTP(w, r)
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

// handleExtract is the public extraction endpoint: content-hash
// revalidation first (an If-None-Match covering the page's key answers 304
// with zero work), then — in cluster mode — consistent-hash routing to the
// key's owner, then local extraction (as the owner, as a single node, or
// as the fallback for an unreachable owner).
func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST HTML to /extract", http.StatusMethodNotAllowed)
		return
	}
	src, ok := readPage(w, r)
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
	if s.cluster != nil {
		owner, self := s.cluster.Owner(key)
		if !self {
			if s.relayPeer(w, r, owner, key, src) {
				return
			}
			// The owner is unreachable: serve this request ourselves. The
			// key's locality degrades (survivors may each extract it once)
			// but the request never errors.
			mPeerFallback.Add(1)
			w.Header().Set("X-Cluster-Source", "local-fallback")
		} else {
			w.Header().Set("X-Cluster-Source", "local")
		}
	}
	s.extractLocal(w, r, src, etag)
}

// handleClusterFetch is the peer-internal endpoint: the owner-side landing
// of a forwarded miss. It is handleExtract with routing removed — always
// local, so forwarding cannot loop — and exists only in cluster mode.
func (s *server) handleClusterFetch(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		http.Error(w, "not in cluster mode", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST HTML to /cluster/fetch", http.StatusMethodNotAllowed)
		return
	}
	src, ok := readPage(w, r)
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
	s.extractLocal(w, r, src, etag)
}

// readPage reads the request body under the size cap, answering the error
// itself when it fails.
func readPage(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		// 413 is only for bodies over the limit; everything else — client
		// disconnects, malformed transfer encodings — is a bad request.
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
	mNotModified.Add(1)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// relayPeer forwards the page to its owning peer and relays the response
// verbatim (plus attribution headers). False means the peer could not be
// reached — the caller extracts locally; any answer the owner gave, error
// responses included, is authoritative and relayed.
func (s *server) relayPeer(w http.ResponseWriter, r *http.Request, owner string, key formext.CacheKey, src []byte) bool {
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
		return false
	}
	mForwarded.Add(1)
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
	return true
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
			mExtractErrors.Add(1)
			mPanics.Add(1)
			log.Printf("formserve: contained extraction panic: %v\n%s", pe.Value, pe.Stack)
			http.Error(w, "extraction failed", http.StatusInternalServerError)
		case r.Context().Err() != nil:
			// The client is gone; nobody will read an answer. Not a success,
			// not an extraction error.
			mClientGone.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			mExtractErrors.Add(1)
			mDeadline.Add(1)
			w.Header().Set("Retry-After", s.retryAfter)
			http.Error(w, "extraction exceeded the server deadline", http.StatusServiceUnavailable)
		default:
			mExtractErrors.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	mExtractions.Add(1)
	if len(res.Stats.Degraded) > 0 {
		mDegraded.Add(1)
	}
	lat := time.Since(start).Nanoseconds()
	mLatencyNs.Add(lat)
	mLatency.Observe(lat)
	// Parser-work totals accumulate once per extraction, not once per
	// request: a cached or coalesced answer carries the original run's
	// Stats, and re-adding them would inflate the totals with work that
	// never happened.
	if !res.Stats.CacheHit && !res.Stats.Coalesced {
		mTokens.Add(int64(len(res.Tokens)))
		mInstances.Add(int64(res.Stats.TotalCreated))
		mPrunes.Add(int64(res.Stats.Pruned))
		mRollbacks.Add(int64(res.Stats.RolledBack))
		mFixpoint.Add(int64(res.Stats.FixpointIters))
		mConflicts.Add(int64(res.Stats.Merge.Conflicts))
		mMissing.Add(int64(res.Stats.Merge.Missing))
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
