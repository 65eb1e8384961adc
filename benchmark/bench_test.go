package main

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestGeneratorsAreByteDeterministic(t *testing.T) {
	const seed = 7
	pageA, err := coldInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	pageB, err := coldInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 57, 1199, 4000} {
		if !bytes.Equal(pageA(i).body, pageB(i).body) {
			t.Fatalf("cold-extract page %d differs between two generations from seed %d", i, seed)
		}
	}
	if bytes.Equal(pageA(0).body, pageA(1).body) {
		t.Fatal("cold-extract pages 0 and 1 share bytes")
	}

	fa, err := newFleetInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := newFleetInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	sawNew := false
	for k := 0; k < 400; k++ {
		a, newA, keyA := fa.at(k)
		b, newB, keyB := fb.at(k)
		if !bytes.Equal(a.body, b.body) || newA != newB || keyA != keyB {
			t.Fatalf("hot-fleet request %d differs between two generations", k)
		}
		sawNew = sawNew || newA
	}
	if !sawNew {
		t.Fatal("400 hot-fleet requests held no new page")
	}

	ca, err := newCrawlInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := newCrawlInputs(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := ca.gen(0), cb.gen(0)
	repeats := 0
	for n := 0; n < 300; n++ {
		ha, fa, ra := ga.page()
		hb, fb, rb := gb.page()
		if ha != hb || fa != fb || ra != rb {
			t.Fatalf("crawl page %d differs between two generations", n)
		}
		if ra {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("300 crawl pages held no repeat")
	}

	qa, qb := newQueryInputs(seed), newQueryInputs(seed)
	if len(qa.sources) != queryDomains*queryPerDomain || len(qa.queries) != len(qb.queries) {
		t.Fatalf("query inputs: %d sources, %d vs %d queries", len(qa.sources), len(qa.queries), len(qb.queries))
	}
	for i := range qa.sources {
		if qa.sources[i].src.HTML != qb.sources[i].src.HTML {
			t.Fatalf("query source %d differs between two generations", i)
		}
	}
	for i := range qa.queries {
		if qa.queries[i].text != qb.queries[i].text {
			t.Fatalf("query %d differs between two generations", i)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var vals []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		vals = append(vals, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	three := []time.Duration{30, 10, 20}
	if got := percentile(three, 50); got != 20 {
		t.Errorf("median of {10,20,30} = %v, want 20", got)
	}
	if got := percentile(three, 99); got != 30 {
		t.Errorf("p99 of three samples = %v, want the largest", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentileF([]float64{4, 1, 3, 2}, 25); got != 1 {
		t.Errorf("p25 of {1,2,3,4} = %v, want 1", got)
	}
}

func TestGoodputCountsOnlySuccessesWithinTheLimit(t *testing.T) {
	lat := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 11 * time.Millisecond, time.Millisecond}
	ok := []bool{true, true, true, false}
	// 5ms and 10ms meet a 10ms limit; 11ms misses it; the fast failure
	// misses it too.
	if got := goodput(lat, ok, 10*time.Millisecond, 2*time.Second); got != 1 {
		t.Errorf("goodput = %v per second, want 1", got)
	}
	if got := goodput(lat, ok, time.Second, 500*time.Millisecond); got != 6 {
		t.Errorf("goodput = %v per second, want 6", got)
	}
	if got := goodput(lat, ok, time.Second, 0); got != 0 {
		t.Errorf("goodput over no time = %v, want 0", got)
	}
}

// TestOpenLoopChargesStallsToLatency drives a fake server that stalls
// every request for 100ms once. Requests due during the stall find both
// workers busy, so they are timed from their due time: the stall shows as
// latency. The schedule is kept, so the phase still sends every request
// and ends soon after the stall clears, not a stall's length later.
func TestOpenLoopChargesStallsToLatency(t *testing.T) {
	const (
		n     = 200
		rate  = 1000.0
		stall = 100 * time.Millisecond
	)
	var server sync.Mutex
	var sent sync.Map
	send := func(i int) bool {
		sent.Store(i, true)
		if i == 20 {
			server.Lock()
			time.Sleep(stall)
			server.Unlock()
			return true
		}
		server.Lock()
		server.Unlock()
		return true
	}
	res := openLoop(n, rate, 2, send)
	count := 0
	sent.Range(func(any, any) bool { count++; return true })
	if count != n {
		t.Fatalf("sent %d of %d requests", count, n)
	}
	if res.elapsed > n*time.Second/rate+2*stall {
		t.Errorf("phase took %v; the generator fell behind its schedule instead of catching up", res.elapsed)
	}
	delayed := 0
	for i := 21; i < n; i++ {
		if res.lat[i] >= stall/2 {
			delayed++
		}
	}
	// Requests 21..~70 were due in the first half of the stall.
	if delayed < 40 {
		t.Errorf("only %d requests after the stall show >= %v latency; stalls are not charged from the due time", delayed, stall/2)
	}
	if p99 := percentile(res.lat, 99); p99 < stall/2 {
		t.Errorf("p99 = %v, want the stall visible (>= %v)", p99, stall/2)
	}
	if res.maxLate < stall/2 {
		t.Errorf("maxLate = %v, want the generator's lateness during the stall reported", res.maxLate)
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 200 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "metaquery", Start: 0, End: 100 * ms},
		// Overlapping children (a parallel fan-out) count once, and the
		// part of a child outside its parent's interval does not count.
		{ID: 3, Parent: 2, Req: 1, Name: "metaquery.fanout", Start: 10 * ms, End: 30 * ms},
		{ID: 4, Parent: 2, Req: 1, Name: "metaquery.fanout", Start: 20 * ms, End: 50 * ms},
		{ID: 5, Parent: 2, Req: 1, Name: "metaquery.unify", Start: 90 * ms, End: 120 * ms},
		{ID: 6, Parent: 4, Req: 1, Name: "inner", Start: 25 * ms, End: 35 * ms},
		{ID: 7, Req: 2, Name: "metaquery", Start: 300 * ms, End: 310 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 * ms, // 200 minus child 2's 100
		2: 50 * ms,  // 100 minus [10,50) and [90,100)
		3: 20 * ms,
		4: 20 * ms, // 30 minus the 10ms inner child
		5: 30 * ms,
		6: 10 * ms,
		7: 10 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	// A layer's time per request is the self time of its subtree.
	got := layerTimes(spans, self, "metaquery")
	if len(got) != 2 {
		t.Fatalf("metaquery ran in %d requests, want 2", len(got))
	}
	sum := got[0] + got[1]
	if sum != (50+20+20+30+10)*ms+10*ms {
		t.Errorf("metaquery layer times %v, want 130ms and 10ms", got)
	}
	if fan := layerTimes(spans, self, "metaquery.fanout"); len(fan) != 1 || fan[0] != 50*ms {
		t.Errorf("fanout layer times %v, want one request of 50ms", fan)
	}
}
