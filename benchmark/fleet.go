package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"formext/internal/cluster"
)

// hot-fleet: two formserve peers in cluster mode with shipped defaults
// (hot copies on) and an extraction cache each that holds their share of
// the corpus while new pages churn through it. Requests alternate between
// the peers; 90% are Zipf draws from a corpus warmed during setup, 10% are
// pages never seen before.
var fleetLoad = serverLoad{rate: 300, limit: 20 * time.Millisecond}

const (
	fleetCorpus     = 120
	fleetNewForms   = 800
	fleetNewShare   = 0.1
	fleetZipfS      = 1.1
	fleetCacheBytes = 48 << 20
	fleetMaxReqs    = 100_000
)

// fleetInputs is a run's request sequence: entry k names corpus page
// seq[k], or a new page when seq[k] is negative.
type fleetInputs struct {
	corpus []page
	fresh  []form
	pad    *padder
	tag    string
	seq    []int32
	newIdx []int32 // for new entries: which new page
}

func newFleetInputs(seed int64, workers int) (*fleetInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &fleetInputs{pad: newPadder(rng, 16, 30_000, 60_000), tag: fmt.Sprintf("fleet-%d", seed)}
	forms, err := screen(genForms(seed, fleetCorpus+fleetNewForms, 2, 6, 0.35), workers)
	if err != nil {
		return nil, err
	}
	for i, f := range forms[:fleetCorpus] {
		in.corpus = append(in.corpus, in.pad.padded(f, in.tag+"-corpus", i, i, i/7))
	}
	in.fresh = forms[fleetCorpus:]
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetCorpus-1)
	in.seq = make([]int32, fleetMaxReqs)
	in.newIdx = make([]int32, fleetMaxReqs)
	fresh := int32(0)
	for k := range in.seq {
		if rng.Float64() < fleetNewShare {
			in.seq[k], in.newIdx[k] = -1, fresh
			fresh++
		} else {
			in.seq[k] = int32(zipf.Uint64())
		}
	}
	return in, nil
}

// at returns request k's page, whether it is new, and a number naming the
// page: its corpus index, or fleetCorpus plus its new-page index.
func (in *fleetInputs) at(k int) (p page, isNew bool, key int) {
	k %= len(in.seq)
	if c := int(in.seq[k]); c >= 0 {
		return in.corpus[c], false, c
	}
	j := int(in.newIdx[k])
	return in.pad.padded(in.fresh[j%len(in.fresh)], in.tag+"-new", j, j*5, j*3), true, fleetCorpus + j
}

// fleet is the two launched peers.
type fleet []*proc

func (f fleet) stop() {
	for _, p := range f {
		p.stop()
	}
}

// startFleet launches both peers and waits until they are ready.
func startFleet(c *runConfig, client *http.Client) (fleet, error) {
	var ports [2]int
	var addrs []string
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
		addrs = append(addrs, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	var f fleet
	for i, port := range ports {
		p, err := launch(c.formserve, port, "-self", addrs[i], "-peers", strings.Join(addrs, ","),
			"-cache-bytes", fmt.Sprint(fleetCacheBytes))
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, p)
	}
	for _, p := range f {
		if err := p.waitReady(client, 20*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// warm posts every corpus page to both peers: the owner extracts and
// caches it, the other peer keeps a hot copy.
func (f fleet) warm(client *http.Client, in *fleetInputs, workers int) error {
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= 2*len(in.corpus) {
					return
				}
				if _, err := post(client, f[k%2].addr+"/extract", in.corpus[k/2].body); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func runFleet(c *runConfig) (*result, error) {
	in, err := newFleetInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	client := newClient(c.workers)
	var f fleet
	defer func() { f.stop() }()
	setup, err := timedSetups(func() error {
		var err error
		if f, err = startFleet(c, client); err != nil {
			return err
		}
		return f.warm(client, in, c.workers)
	}, func() { f.stop() })
	if err != nil {
		return nil, err
	}

	log := servedLog{every: checkEvery}
	send := func(k int) bool {
		p, _, key := in.at(k)
		body, err := post(client, f[k%2].addr+"/extract", p.body)
		if err != nil {
			return false
		}
		r, err := decodeExtract(body)
		if err != nil {
			return false
		}
		log.add(key, p, r.Model)
		return true
	}
	rs, err := fleetLoad.drive(c, []int{f[0].cmd.Process.Pid, f[1].cmd.Process.Pid}, send)
	if err != nil {
		return nil, err
	}
	f.stop()

	res := &result{Correct: true}
	fleetLoad.report(res, rs)
	res.set("setup_s", setup, "s")
	runChecks(res, spread(log.sample, checkSample), log.scores)
	return res, nil
}

func traceFleet(c *runConfig) (*result, error) {
	in, err := newFleetInputs(c.seed, c.workers)
	if err != nil {
		return nil, err
	}
	res := tracedResult()
	client := newClient(1)
	f, err := startFleet(c, client)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := f.warm(client, in, c.workers); err != nil {
		return nil, err
	}
	before, err := scrapeFleet(client, f)
	if err != nil {
		return nil, err
	}

	var e2e []time.Duration
	var stages stageLog
	deadline := time.Now().Add(time.Duration(replayShare * float64(c.measure())))
	for k := 0; time.Now().Before(deadline); k++ {
		p, isNew, _ := in.at(k)
		t0 := time.Now()
		body, err := post(client, f[k%2].addr+"/extract", p.body)
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		e2e = append(e2e, time.Since(t0))
		r, err := decodeExtract(body)
		if err != nil {
			res.Failed++
			continue
		}
		if isNew {
			// Corpus responses replay stages timed during the warm-up.
			stages.add(r)
		}
	}
	after, err := scrapeFleet(client, f)
	if err != nil {
		return nil, err
	}
	d := after.minus(before)
	res.set("cache.hit_ratio", float64(d.hits)/float64(max(d.hits+d.misses, 1)), "ratio")
	res.set("cache.evictions", float64(d.evictions), "count")
	res.set("cluster.forwarded_share", float64(d.forwarded)/float64(max(d.requests, 1)), "ratio")
	res.set("cluster.hot_hit_ratio", float64(d.hotHits)/float64(max(d.forwarded, 1)), "ratio")

	// The peer hop, measured from an in-process cluster view whose only
	// other member is the launched peer 0: every fetch crosses loopback.
	cl, err := cluster.New(cluster.Config{Self: "http://127.0.0.1:9", Peers: []string{f[0].addr}, ProbeInterval: -1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	rec := newRecorder()
	l, err := newLayers(rec)
	if err != nil {
		return nil, err
	}
	var fresh []page
	deadline = time.Now().Add(time.Duration((1 - replayShare) * float64(c.measure())))
	for k := 0; time.Now().Before(deadline); k++ {
		p, isNew, _ := in.at(k)
		res.Attempted++
		if isNew {
			fresh = append(fresh, p)
		}
		if err := fleetLayers(l, cl, f[0].addr, k, p, isNew); err != nil {
			logf("request %d: %v", k, err)
			res.Failed++
		}
	}
	lr := newLayerReport(rec, res)
	// formserve hashes the key for its ETag and again inside the pool's
	// lookup, so both the key and the warm ExtractBytes are on the path.
	lr.layer("cache.key", "cache.key_us", true)
	lr.layer("cache.hit", "cache.hit_us", true)
	lr.layer("encode", "encode.us", true)
	lr.layer("cluster.fetch", "cluster.fetch_us", false)
	// The median request is a hit: only the hit path is on it. The new
	// pages' layers are reported but not charged against the median.
	frontLayers(lr, false)
	lr.layer("freeze", "freeze.us", false)
	l.counters(res)
	l.freezeCost(res)
	lr.residual(median(e2e))
	stages.compare(res)
	lr.write(c.spanDir, c.workload, c.seed)
	if err := pipelineCost(res, fresh[:min(len(fresh), 60)]); err != nil {
		return nil, err
	}
	return res, nil
}

// fleetLayers is one hot-fleet request, layer by layer: the hit path (key,
// warm lookup, encode) for every request, and for a new page also the
// pipeline, freeze and the peer hop a non-owner would take.
func fleetLayers(l *layers, cl *cluster.Cluster, peer string, req int, p page, isNew bool) error {
	root := l.rec.begin(req, 0, "request")
	defer l.rec.end(root)
	key := l.key(req, root, p.body)
	if isNew {
		if _, err := l.front(req, root, p.body); err != nil {
			return err
		}
		if err := l.freeze(req, root, p.body); err != nil {
			return err
		}
		var ferr error
		l.rec.timed(req, root, "cluster.fetch", func() {
			_, ferr = cl.Fetch(context.Background(), peer, key, p.body, "")
		})
		if ferr != nil {
			return fmt.Errorf("peer fetch: %w", ferr)
		}
	}
	m, err := l.hit(req, root, p.body)
	if err != nil {
		return err
	}
	return l.encode(req, root, m)
}

// fleetCounters sums the counters of both peers.
type fleetCounters struct {
	hits, misses, evictions, forwarded, requests, hotHits int64
}

func (a fleetCounters) minus(b fleetCounters) fleetCounters {
	return fleetCounters{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
		a.forwarded - b.forwarded, a.requests - b.requests, a.hotHits - b.hotHits}
}

func scrapeFleet(client *http.Client, f fleet) (fleetCounters, error) {
	var sum fleetCounters
	for _, p := range f {
		m, err := scrape(client, p)
		if err != nil {
			return sum, err
		}
		if m.Cache != nil {
			sum.hits += m.Cache.Hits
			sum.misses += m.Cache.Misses
			sum.evictions += m.Cache.Evictions
		}
		if m.Cluster != nil {
			sum.hotHits += m.Cluster.HotHits
		}
		sum.forwarded += m.Forwarded
		sum.requests += m.Requests["/extract"]
	}
	return sum, nil
}
