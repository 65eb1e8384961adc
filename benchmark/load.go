package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request i and reports whether it succeeded.
type sendFunc func(i int) bool

// loadResult is one load phase: per-request latency and outcome, indexed
// by request number, and the phase's wall time.
type loadResult struct {
	lat     []time.Duration
	ok      []bool
	elapsed time.Duration
	// maxLate is how far behind its schedule the open-loop generator sent
	// its latest request (0 for closed loops).
	maxLate time.Duration
}

func (r loadResult) failed() int {
	n := 0
	for _, ok := range r.ok {
		if !ok {
			n++
		}
	}
	return n
}

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — from at most workers goroutines, so at most workers
// requests are in flight. A request that finds every worker busy past its
// due time is timed from the due time, not its send time: when the server
// stalls, requests queue behind it and the wait shows as latency instead
// of as a lower send rate. A request whose worker was idle and slept until
// it was due is timed from the wake-up, so the timer's own overshoot is
// not charged to the server.
func openLoop(n int, rate float64, workers int, send sendFunc) loadResult {
	res := loadResult{lat: make([]time.Duration, n), ok: make([]bool, n)}
	interval := time.Duration(float64(time.Second) / rate)
	var next, late atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
				}
				for l := int64(time.Since(due)); ; {
					if cur := late.Load(); l <= cur || late.CompareAndSwap(cur, l) {
						break
					}
				}
				res.ok[i] = send(i)
				res.lat[i] = time.Since(from)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.maxLate = time.Duration(late.Load())
	return res
}

// closedLoop keeps workers requests in flight back to back for dur: each
// worker sends its next request only when the previous one completed.
// Latency is measured from each request's send time.
func closedLoop(dur time.Duration, workers int, send sendFunc) loadResult {
	type sample struct {
		lat time.Duration
		ok  bool
	}
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				ok := send(i)
				mine = append(mine, sample{time.Since(t0), ok})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start), lat: make([]time.Duration, len(all)), ok: make([]bool, len(all))}
	for k, s := range all {
		res.lat[k], res.ok[k] = s.lat, s.ok
	}
	return res
}
