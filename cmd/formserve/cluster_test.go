package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"formext/internal/cluster"
)

// lateHandler lets an httptest server start before the *server it will host
// exists: fleet URLs have to be known to build each peer's cluster.Config,
// but the URLs only exist once the listeners do.
type lateHandler struct{ h atomic.Pointer[server] }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := l.h.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// newFleet builds an n-peer in-process formserve fleet over httptest
// listeners, every peer configured with the same membership list.
func newFleet(t *testing.T, n int, mutate func(*cluster.Config)) ([]*server, []*httptest.Server) {
	t.Helper()
	late := make([]*lateHandler, n)
	hts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range late {
		late[i] = &lateHandler{}
		hts[i] = httptest.NewServer(late[i])
		t.Cleanup(hts[i].Close)
		urls[i] = hts[i].URL
	}
	servers := make([]*server, n)
	for i := range servers {
		cc := &cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			FetchTimeout:  2 * time.Second,
			Backoff:       time.Millisecond,
			ProbeInterval: -1,
		}
		if mutate != nil {
			mutate(cc)
		}
		s, err := newHandler(config{cacheBytes: 16 << 20, clusterConfig: cc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers[i] = s
		late[i].h.Store(s)
	}
	return servers, hts
}

// fleetPage derives a small distinct extractable form per index.
func fleetPage(i int) string {
	return fmt.Sprintf(`<form>Title%d <input type=text name=q%d size=30></form>`, i, i)
}

// pageOwnedBy finds a page whose cache key the ring assigns to owner.
func pageOwnedBy(t *testing.T, s *server, owner string) string {
	t.Helper()
	for i := 0; i < 500; i++ {
		page := fleetPage(i)
		if addr, _ := s.cluster.Owner(s.ex.ExtractKey(page)); addr == owner {
			return page
		}
	}
	t.Fatalf("no page owned by %s in 500 candidates", owner)
	return ""
}

type fleetResponse struct {
	status   int
	source   string // X-Cluster-Source
	owner    string // X-Cluster-Owner
	etag     string
	envelope extractResponse
}

func postExtract(t *testing.T, url, page string, hdr map[string]string) fleetResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/extract", strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/html")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := fleetResponse{
		status: resp.StatusCode,
		source: resp.Header.Get("X-Cluster-Source"),
		owner:  resp.Header.Get("X-Cluster-Owner"),
		etag:   resp.Header.Get("ETag"),
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&fr.envelope); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return fr
}

func TestClusterRoutesToOwnerExactlyOneExtraction(t *testing.T) {
	servers, hts := newFleet(t, 3, nil)
	page := fleetPage(0)
	ownerAddr, _ := servers[0].cluster.Owner(servers[0].ex.ExtractKey(page))

	// All peers must agree on the owner: same keys, same membership, same
	// ring (this is the whole coordination story — no owner election).
	for i, s := range servers {
		if addr, _ := s.cluster.Owner(s.ex.ExtractKey(page)); addr != ownerAddr {
			t.Fatalf("peer %d maps owner %q, peer 0 maps %q", i, addr, ownerAddr)
		}
	}

	var fresh int
	var etags []string
	for i, ht := range hts {
		fr := postExtract(t, ht.URL, page, nil)
		if fr.status != http.StatusOK {
			t.Fatalf("peer %d: status %d", i, fr.status)
		}
		if ht.URL == ownerAddr {
			if fr.source != "local" {
				t.Errorf("owner peer %d: X-Cluster-Source = %q, want local", i, fr.source)
			}
		} else {
			if fr.source != "peer" && fr.source != "peer-hot" {
				t.Errorf("non-owner peer %d: X-Cluster-Source = %q, want peer", i, fr.source)
			}
			if fr.owner != ownerAddr {
				t.Errorf("peer %d: X-Cluster-Owner = %q, want %q", i, fr.owner, ownerAddr)
			}
		}
		if !fr.envelope.Stats.CacheHit && !fr.envelope.Stats.Coalesced {
			fresh++
		}
		etags = append(etags, fr.etag)
	}
	// Exactly one pipeline run fleet-wide: the owner's. Every other answer
	// came out of the owner's cache through forwarding.
	if fresh != 1 {
		t.Errorf("fresh extractions = %d, want exactly 1 fleet-wide", fresh)
	}
	for i, e := range etags {
		if e == "" || e != etags[0] {
			t.Errorf("etag[%d] = %q, want all equal to %q (content-derived, fleet-wide)", i, e, etags[0])
		}
	}

	// The content-derived ETag revalidates on any peer: 304 with zero work,
	// forwarded or not.
	for i, ht := range hts {
		if fr := postExtract(t, ht.URL, page, map[string]string{"If-None-Match": etags[0]}); fr.status != http.StatusNotModified {
			t.Errorf("peer %d revalidation: status %d, want 304", i, fr.status)
		}
	}
}

func TestClusterHotCopyServesRepeatFetches(t *testing.T) {
	servers, hts := newFleet(t, 2, func(cc *cluster.Config) {
		cc.HotBytes = 1 << 20
	})
	// A page owned by peer 1, posted twice to peer 0: the first answer rides
	// the network, the second comes from peer 0's hot-copy cache.
	page := pageOwnedBy(t, servers[0], hts[1].URL)
	if fr := postExtract(t, hts[0].URL, page, nil); fr.source != "peer" {
		t.Fatalf("first post: source = %q, want peer", fr.source)
	}
	fr := postExtract(t, hts[0].URL, page, nil)
	if fr.source != "peer-hot" {
		t.Errorf("second post: source = %q, want peer-hot", fr.source)
	}
	if st := servers[0].cluster.Stats(); st.HotHits != 1 {
		t.Errorf("hot hits = %d, want 1", st.HotHits)
	}
}

func TestClusterPeerKillFallsBackThenEjects(t *testing.T) {
	servers, hts := newFleet(t, 3, func(cc *cluster.Config) {
		cc.Retries = -1
		cc.FailThreshold = 2
		cc.FetchTimeout = 300 * time.Millisecond
	})
	victim := hts[2].URL
	page := pageOwnedBy(t, servers[0], victim)
	hts[2].Close()

	before := mPeerFallback.Value()
	// Every request to a survivor answers 200 while the owner is dead: the
	// fetch fails, the survivor extracts locally.
	for i := 0; i < 2; i++ {
		fr := postExtract(t, hts[0].URL, page, nil)
		if fr.status != http.StatusOK {
			t.Fatalf("request %d during owner outage: status %d, want 200", i, fr.status)
		}
		if fr.source != "local-fallback" {
			t.Errorf("request %d: source = %q, want local-fallback", i, fr.source)
		}
	}
	if got := mPeerFallback.Value() - before; got != 2 {
		t.Errorf("peer fallbacks = %d, want 2", got)
	}

	// Two consecutive failures hit the threshold: peer 0 ejects the victim
	// and re-owns (or re-routes) its keys — no more fallback paths.
	st := servers[0].cluster.Stats()
	if st.LivePeers != 2 || st.Ejections != 1 {
		t.Fatalf("peer 0 cluster stats = %+v, want 2 live / 1 ejection", st)
	}
	fr := postExtract(t, hts[0].URL, page, nil)
	if fr.status != http.StatusOK || fr.source == "local-fallback" {
		t.Errorf("post-ejection: status %d source %q, want routed without fallback", fr.status, fr.source)
	}
}

func TestReadyzFlipsDuringDrainHealthzDoesNot(t *testing.T) {
	h, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz before drain: %d %q", code, body)
	}
	h.SetReady(false)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz during drain: %d %q, want 503 draining", code, body)
	}
	// Liveness is about the process, not routability: it must hold during a
	// drain or the orchestrator kills a healthy process mid-drain.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain: %d, want 200", code)
	}
	h.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after drain cancelled: %d, want 200", code)
	}
}

func TestClusterFetchOutsideClusterModeIs404(t *testing.T) {
	h, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/cluster/fetch", "text/html", strings.NewReader("<form></form>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404 outside cluster mode", resp.StatusCode)
	}
}

func TestPeersRequireSelf(t *testing.T) {
	if _, err := newHandler(config{peers: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Fatal("newHandler accepted -peers without -self")
	}
}

// TestClusterSmoke is the fleet scenario, run under the race detector by
// `make check`: a 3-peer fleet under concurrent skewed load extracts each
// page exactly once fleet-wide, then loses one peer mid-load — listener and
// connections cut at once, as a SIGKILL leaves them — and the survivors
// answer every request sent to them.
func TestClusterSmoke(t *testing.T) {
	servers, hts := newFleet(t, 3, func(cc *cluster.Config) {
		cc.Retries = -1
		cc.FailThreshold = 2
		cc.FetchTimeout = 300 * time.Millisecond
		cc.HotBytes = 1 << 20
	})
	const (
		workers  = 6
		perPhase = 25
		corpus   = 12
	)
	pages := make([]string, corpus)
	for i := range pages {
		pages[i] = fleetPage(i)
	}
	// Deterministic skew: page j takes corpus-j slots of every
	// corpus*(corpus+1)/2 requests, so low indices dominate like a Zipf
	// corpus and every page is still requested.
	pick := func(seq int) string {
		r, j := seq%(corpus*(corpus+1)/2), 0
		for r >= corpus-j {
			r -= corpus - j
			j++
		}
		return pages[j]
	}

	// drive sends workers*perPhase requests round-robin over hts and returns
	// the failed or non-200 requests per peer; midway, if set, runs once a
	// third of them have completed, while the other workers keep sending.
	drive := func(page func(seq int) string, midway func()) []int64 {
		var fails [3]atomic.Int64
		var done atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perPhase; i++ {
					seq := w*perPhase + i
					peer := seq % len(hts)
					resp, err := http.Post(hts[peer].URL+"/extract", "text/html",
						strings.NewReader(page(seq)))
					if err != nil {
						fails[peer].Add(1)
					} else {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							fails[peer].Add(1)
						}
					}
					if done.Add(1) == workers*perPhase/3 && midway != nil {
						midway()
					}
				}
			}(w)
		}
		wg.Wait()
		return []int64{fails[0].Load(), fails[1].Load(), fails[2].Load()}
	}

	// Full fleet: zero errors, and the owners' singleflight plus forwarding
	// extract each distinct page exactly once anywhere in the fleet.
	if fails := drive(pick, nil); fails[0]+fails[1]+fails[2] != 0 {
		t.Fatalf("full fleet: failed requests per peer %v, want none", fails)
	}
	distinct := map[string]bool{}
	for seq := 0; seq < workers*perPhase; seq++ {
		distinct[pick(seq)] = true
	}
	if len(distinct) != corpus {
		t.Fatalf("skewed pick reached %d of %d pages", len(distinct), corpus)
	}
	var misses uint64
	for _, s := range servers {
		misses += s.ex.Options().Cache.Stats().Misses
	}
	if misses != uint64(len(distinct)) {
		t.Errorf("fleet-wide extractions = %d for %d distinct pages, want one per key", misses, len(distinct))
	}

	// Mid-load kill. Pages not seen before, so the survivors' hot copies
	// cannot hide the dead owner: each of its keys must be fetched, fail,
	// and fall back until the survivor ejects it.
	fallbacksBefore := mPeerFallback.Value()
	fails := drive(func(seq int) string { return fleetPage(corpus + seq) }, func() {
		hts[2].Listener.Close()
		hts[2].CloseClientConnections()
	})
	if fails[0]+fails[1] != 0 {
		t.Fatalf("survivors: failed requests %v, want none; only the dead peer may fail", fails[:2])
	}
	fallbacks := mPeerFallback.Value() - fallbacksBefore
	var ejections uint64
	for _, s := range servers[:2] {
		ejections += s.cluster.Stats().Ejections
	}
	t.Logf("kill phase: %d fallbacks, %d ejections, %d failed requests to the dead peer", fallbacks, ejections, fails[2])
	if fallbacks == 0 {
		t.Error("no fallbacks recorded; kill scenario did not exercise degradation")
	}
}
