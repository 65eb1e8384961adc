package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"formext/internal/cache"
)

// Defaults for the tunables a Config leaves zero. They are sized for peers
// on one box or one rack: a peer that cannot answer a forwarded extraction
// in a couple of seconds is slower than extracting locally, so the caller
// should stop waiting and do exactly that.
const (
	DefaultFetchTimeout  = 2 * time.Second
	DefaultRetries       = 2
	DefaultBackoff       = 25 * time.Millisecond
	DefaultFailThreshold = 3
	DefaultProbeInterval = time.Second
	DefaultMaxBody       = 8 << 20
)

// FetchPath is the owner-side endpoint peer fetches POST to, and ReadyPath
// the readiness endpoint revival probes GET: formserve's routes.
const (
	FetchPath = "/cluster/fetch"
	ReadyPath = "/readyz"
)

// Config describes one peer's view of the fleet.
type Config struct {
	// Self is this process's own advertised base URL (e.g.
	// "http://127.0.0.1:9301"). Keys the ring assigns to Self are served
	// locally; Self is always live (a process cannot observe itself dead)
	// and is added to Peers if absent.
	Self string
	// Peers is every fleet member's base URL, Self included. All peers must
	// build their rings over the same list (modulo ordering — the ring
	// sorts) or they will disagree about ownership; disagreement is safe
	// but wastes work.
	Peers []string
	// FetchTimeout bounds each peer-fetch attempt (0 = DefaultFetchTimeout).
	FetchTimeout time.Duration
	// Retries is how many times a failed fetch attempt is retried with
	// doubling backoff before the fetch fails (<0 = none, 0 = DefaultRetries).
	Retries int
	// Backoff is the first retry's delay (0 = DefaultBackoff).
	Backoff time.Duration
	// FailThreshold is the consecutive-fetch-failure count that ejects a
	// peer from the ring (0 = DefaultFailThreshold).
	FailThreshold int
	// ProbeInterval is how often ejected peers are probed for revival
	// (0 = DefaultProbeInterval, <0 disables probing).
	ProbeInterval time.Duration
	// HotBytes, when positive, keeps a local cache of peer-fetched
	// responses so a hot key owned elsewhere stops costing a network round
	// trip. Responses are content-addressed and immutable, so hot copies
	// can never be stale.
	HotBytes int64
	// HotTTL bounds hot-copy lifetime (0 = until evicted).
	HotTTL time.Duration
}

// Stats is a point-in-time snapshot of the cluster tier.
type Stats struct {
	// Self is this peer's own address.
	Self string
	// LivePeers and TotalPeers count ring membership: live peers carry
	// keys, ejected ones are waiting on a revival probe.
	LivePeers  int
	TotalPeers int
	// Fetches counts peer fetches attempted (hot hits excluded),
	// FetchErrors the ones that exhausted their retries, HotHits the
	// fetches answered from the local hot-copy cache.
	Fetches     uint64
	FetchErrors uint64
	HotHits     uint64
	// Ejections and Revivals count ring membership transitions.
	Ejections uint64
	Revivals  uint64
	// Peers is the per-peer detail, sorted by address.
	Peers []PeerStats
}

// PeerStats is one peer's counters.
type PeerStats struct {
	Addr        string `json:"addr"`
	Self        bool   `json:"self,omitempty"`
	Live        bool   `json:"live"`
	Fetches     uint64 `json:"fetches"`
	FetchErrors uint64 `json:"fetchErrors"`
	Ejections   uint64 `json:"ejections"`
	Revivals    uint64 `json:"revivals"`
}

// FetchResult is one peer-fetched response: the owner's status and body,
// relayed verbatim, plus the validators the serving layer passes through.
type FetchResult struct {
	Status      int
	ETag        string
	ContentType string
	Body        []byte
	// Hot marks a result served from the local hot-copy cache; no HTTP
	// round trip happened.
	Hot bool
}

// peerState is one peer's health record. All fields the request path reads
// or bumps are atomics, so the common case — a healthy peer answering a
// fetch — touches no lock; liveness *transitions* happen under Cluster.mu
// because they rebuild the ring.
type peerState struct {
	addr        string
	self        bool
	live        atomic.Bool
	consecFails atomic.Int32
	fetches     atomic.Uint64
	fetchErrs   atomic.Uint64
	ejections   atomic.Uint64
	revivals    atomic.Uint64
}

// Cluster is one peer's view of the sharded fleet: the live consistent-hash
// ring, per-peer health, the peer-fetch client and the hot-copy cache. Safe
// for concurrent use.
type Cluster struct {
	cfg    Config
	client *http.Client
	hot    *cache.Cache // nil: hot copies disabled

	mu    sync.RWMutex
	peers map[string]*peerState
	live  *ring // built from live peers only; swapped under mu

	hotHits   atomic.Uint64
	fetches   atomic.Uint64
	fetchErrs atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// New builds a cluster view and starts the revival prober. Close must be
// called to stop it.
func New(cfg Config) (*Cluster, error) {
	self, err := NormalizeAddr(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	cfg.Self = self
	peers := make([]string, 0, len(cfg.Peers)+1)
	for _, p := range cfg.Peers {
		n, err := NormalizeAddr(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		peers = append(peers, n)
	}
	cfg.Peers = peers
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	c := &Cluster{
		cfg: cfg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		peers: make(map[string]*peerState),
		stop:  make(chan struct{}),
	}
	if cfg.HotBytes > 0 {
		hc, err := cache.New(cache.Config{MaxBytes: cfg.HotBytes, TTL: cfg.HotTTL})
		if err != nil {
			return nil, fmt.Errorf("cluster: hot cache: %w", err)
		}
		c.hot = hc
	}
	c.SetPeers(append([]string{cfg.Self}, cfg.Peers...))
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the revival prober. Idempotent.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
}

// Self returns this peer's own normalized address.
func (c *Cluster) Self() string { return c.cfg.Self }

// NormalizeAddr canonicalizes a peer address: scheme defaulted to http,
// trailing slashes trimmed, host required. Every process must normalize
// identically or rings diverge, so the serving layer and the bench harness
// both go through this.
func NormalizeAddr(addr string) (string, error) {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return "", errors.New("empty address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("no host in %q", addr)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery = ""
	u.Fragment = ""
	return u.String(), nil
}

// SetPeers replaces the fleet membership (the SIGHUP-reload path). Known
// peers keep their health state and counters; new peers join live; removed
// peers are dropped. Self is always a member and always live.
func (c *Cluster) SetPeers(peers []string) {
	want := make(map[string]bool, len(peers)+1)
	want[c.cfg.Self] = true
	for _, p := range peers {
		if n, err := NormalizeAddr(p); err == nil {
			want[n] = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr := range c.peers {
		if !want[addr] {
			delete(c.peers, addr)
		}
	}
	for addr := range want {
		if _, ok := c.peers[addr]; !ok {
			ps := &peerState{addr: addr, self: addr == c.cfg.Self}
			ps.live.Store(true)
			c.peers[addr] = ps
		}
	}
	c.rebuildLocked()
}

// rebuildLocked swaps in a ring over the currently-live peers. Caller holds
// c.mu.
func (c *Cluster) rebuildLocked() {
	live := make([]string, 0, len(c.peers))
	for addr, ps := range c.peers {
		if ps.live.Load() {
			live = append(live, addr)
		}
	}
	c.live = buildRing(live)
}

// Owner maps a key to its owning peer. self reports whether this process
// owns the key — because the ring says so, or because the ring has degraded
// to self alone (every other peer ejected). The caller serves self-owned
// keys locally and forwards the rest.
func (c *Cluster) Owner(k cache.Key) (addr string, self bool) {
	c.mu.RLock()
	addr = c.live.owner(k)
	c.mu.RUnlock()
	if addr == "" || addr == c.cfg.Self {
		return c.cfg.Self, true
	}
	return addr, false
}

// Fetch asks owner to serve the extraction for key: POST body to the
// owner's fetch endpoint (query, when non-empty, is appended verbatim so
// serving-layer options like trees=1 pass through). Attempts are bounded by
// the configured timeout and retried with doubling backoff; a fetch that
// exhausts its retries records a failure against the peer — enough
// consecutive failures eject it from the ring — and returns an error, which
// the caller treats as "extract locally", never as a request failure.
//
// Any HTTP response from the owner, success or not, is authoritative and
// returned for relay: the owner is reachable, and whatever it said about
// the page (including an extraction error) is what this peer would have
// said. The exception is 503 — the owner is draining or overloaded — which
// counts as a health failure like a transport error.
//
// With a hot-copy cache configured, 200-responses are remembered locally
// (keyed by key+query) and repeat fetches are answered without any HTTP.
func (c *Cluster) Fetch(ctx context.Context, owner string, key cache.Key, body []byte, query string) (*FetchResult, error) {
	hk := hotKey(key, query)
	if c.hot != nil {
		if v, ok := c.hot.Lookup(hk); ok {
			c.hotHits.Add(1)
			r := v.(*FetchResult)
			return &FetchResult{Status: r.Status, ETag: r.ETag, ContentType: r.ContentType, Body: r.Body, Hot: true}, nil
		}
	}
	ps := c.peer(owner)
	c.fetches.Add(1)
	if ps != nil {
		ps.fetches.Add(1)
	}
	u := owner + FetchPath
	if query != "" {
		u += "?" + query
	}
	var lastErr error
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				// The caller's deadline, not the peer's health: don't eject.
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		res, err := c.fetchOnce(ctx, u, body)
		if err == nil {
			c.recordSuccess(ps)
			if c.hot != nil && res.Status == http.StatusOK {
				c.hot.Do(ctx, hk, func() (any, int64, bool, error) {
					return res, int64(len(res.Body)) + 256, true, nil
				})
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	c.fetchErrs.Add(1)
	if ps != nil {
		ps.fetchErrs.Add(1)
		c.recordFailure(ps)
	}
	return nil, fmt.Errorf("cluster: fetch from %s: %w", owner, lastErr)
}

// fetchOnce is one bounded fetch attempt.
func (c *Cluster) fetchOnce(ctx context.Context, u string, body []byte) (*FetchResult, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/html")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("peer answered 503 (draining or overloaded)")
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBody+1))
	if err != nil {
		return nil, err
	}
	if len(b) > DefaultMaxBody {
		return nil, fmt.Errorf("peer response exceeds %d bytes", DefaultMaxBody)
	}
	return &FetchResult{
		Status:      resp.StatusCode,
		ETag:        resp.Header.Get("ETag"),
		ContentType: resp.Header.Get("Content-Type"),
		Body:        b,
	}, nil
}

// hotKey addresses one hot copy: the cache key itself for plain fetches,
// re-hashed with the query string when one rode along (the same page with
// trees=1 is a different response body).
func hotKey(key cache.Key, query string) cache.Key {
	if query == "" {
		return key
	}
	h := sha256.New()
	h.Write(key[:])
	h.Write([]byte{0})
	h.Write([]byte(query))
	var out cache.Key
	h.Sum(out[:0])
	return out
}

// peer returns owner's health record, nil when it left the fleet.
func (c *Cluster) peer(addr string) *peerState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.peers[addr]
}

// recordSuccess clears a peer's failure streak, reviving it if a successful
// fetch somehow reached an ejected peer before the prober did. The healthy
// common case is a pair of atomic loads — no lock.
func (c *Cluster) recordSuccess(ps *peerState) {
	if ps == nil || (ps.consecFails.Load() == 0 && ps.live.Load()) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ps.consecFails.Store(0)
	if !ps.live.Load() {
		ps.live.Store(true)
		ps.revivals.Add(1)
		c.rebuildLocked()
	}
}

// recordFailure advances a peer's failure streak and ejects it from the
// ring at the threshold. Its keys re-map to the survivors; the prober takes
// over watching for its return.
func (c *Cluster) recordFailure(ps *peerState) {
	if ps == nil || ps.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ps.consecFails.Add(1) >= int32(c.cfg.FailThreshold) && ps.live.Load() {
		ps.live.Store(false)
		ps.ejections.Add(1)
		c.rebuildLocked()
	}
}

// probeLoop periodically probes ejected peers' readiness endpoints and
// revives the ones that answer 200. Ready, not merely alive: a draining
// peer reports live on /healthz but not ready on /readyz, and routing to it
// would race its shutdown.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeDead()
		}
	}
}

// probeDead probes every currently-ejected peer once.
func (c *Cluster) probeDead() {
	c.mu.RLock()
	var dead []*peerState
	for _, ps := range c.peers {
		if !ps.live.Load() {
			dead = append(dead, ps)
		}
	}
	c.mu.RUnlock()
	for _, ps := range dead {
		if c.probeReady(ps.addr) {
			c.mu.Lock()
			if !ps.live.Load() {
				ps.live.Store(true)
				ps.consecFails.Store(0)
				ps.revivals.Add(1)
				c.rebuildLocked()
			}
			c.mu.Unlock()
		}
	}
}

// probeReady reports whether addr answers 200 on the readiness endpoint.
func (c *Cluster) probeReady(addr string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+ReadyPath, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Stats snapshots the tier's counters and ring membership.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Self:        c.cfg.Self,
		Fetches:     c.fetches.Load(),
		FetchErrors: c.fetchErrs.Load(),
		HotHits:     c.hotHits.Load(),
	}
	c.mu.RLock()
	for _, ps := range c.peers {
		p := PeerStats{
			Addr:        ps.addr,
			Self:        ps.self,
			Live:        ps.live.Load(),
			Fetches:     ps.fetches.Load(),
			FetchErrors: ps.fetchErrs.Load(),
			Ejections:   ps.ejections.Load(),
			Revivals:    ps.revivals.Load(),
		}
		s.TotalPeers++
		if p.Live {
			s.LivePeers++
		}
		s.Ejections += p.Ejections
		s.Revivals += p.Revivals
		s.Peers = append(s.Peers, p)
	}
	c.mu.RUnlock()
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr < s.Peers[j].Addr })
	return s
}

// HotStats snapshots the hot-copy cache counters; zero when disabled.
func (c *Cluster) HotStats() cache.Stats {
	if c.hot == nil {
		return cache.Stats{}
	}
	return c.hot.Stats()
}

// ParsePeersFile parses a static peers file: one address per line, blank
// lines and #-comments ignored. The SIGHUP-reload path re-reads the file
// through this.
func ParsePeersFile(data []byte) []string {
	var peers []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		peers = append(peers, line)
	}
	return peers
}
