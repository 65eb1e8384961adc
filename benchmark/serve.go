package main

import (
	"fmt"
	"time"
)

// Server workloads split the measured seconds between an open-loop phase
// at the workload's fixed rate (latency percentiles) and a closed-loop
// saturation phase with one request in flight per worker (goodput).
const openShare = 0.6

// setupRepeats is how many times a run sets its servers up; setup_s is the
// median, and only the last set-up serves the measured phases.
const setupRepeats = 3

// rounds is how many times a run alternates its open-loop and saturation
// phases. Every end-to-end figure is the median over rounds, so a burst of
// interference from outside the benchmark spoils one round, not the run.
const rounds = 5

// serverLoad is one server workload's fixed load shape.
type serverLoad struct {
	rate  float64       // open-loop requests per second
	limit time.Duration // latency limit goodput counts against
}

// round is one open-loop phase, one saturation phase and the highest
// resident set sampled across both.
type round struct {
	open, closed loadResult
	rssMB        float64
}

// drive runs the rounds. Requests are numbered across the whole run, so
// every request of a run has its own input. pids are the server processes
// whose resident set is sampled.
func (l serverLoad) drive(c *runConfig, pids []int, send sendFunc) ([]round, error) {
	per := c.measure() / rounds
	n := int(l.rate * openShare * per.Seconds())
	sat := time.Duration((1 - openShare) * float64(per))
	var out []round
	base := 0
	for r := 0; r < rounds; r++ {
		rss := sampleRSS(pids)
		off := base
		open := openLoop(n, l.rate, c.workers, func(i int) bool { return send(off + i) })
		base += n
		off = base
		closed := closedLoop(sat, c.workers, func(i int) bool { return send(off + i) })
		base += len(closed.lat)
		peak, err := rss.finish()
		if err != nil {
			return nil, err
		}
		logf("round %d: open %d at %.0f/s (generator at most %v late) p50 %v p99 %v; saturation %d in %v; %d failed; rss %.1f MB",
			r, n, l.rate, open.maxLate.Round(time.Microsecond), percentile(open.lat, 50).Round(time.Microsecond),
			percentile(open.lat, 99).Round(time.Microsecond), len(closed.lat), closed.elapsed.Round(time.Millisecond),
			open.failed()+closed.failed(), peak)
		out = append(out, round{open, closed, peak})
	}
	return out, nil
}

// report folds the rounds into the end-to-end metrics: the medians over
// rounds of the open loop's latency percentiles, the saturation phase's
// goodput and the sampled peak resident set; attempts and failures from
// every request.
func (l serverLoad) report(res *result, rs []round) {
	var p50, p99, good, rss []float64
	for _, r := range rs {
		res.Attempted += len(r.open.lat) + len(r.closed.lat)
		res.Failed += r.open.failed() + r.closed.failed()
		p50 = append(p50, ms(percentile(r.open.lat, 50)))
		p99 = append(p99, ms(percentile(r.open.lat, 99)))
		good = append(good, goodput(r.closed.lat, r.closed.ok, l.limit, r.closed.elapsed))
		rss = append(rss, r.rssMB)
	}
	res.set("p50_ms", percentileF(p50, 50), "ms")
	res.set("goodput_per_s", percentileF(good, 50), "1/s")
	res.set("peak_rss_mb", percentileF(rss, 50), "MB")
	logTail(p99)
}

// logTail logs the median over rounds of the open loop's p99. It is not a
// reported metric: on the recorded box its spread over ten seeds (IQR over
// median 0.3–0.6) exceeds the largest bound a metric may have.
func logTail(p99 []float64) {
	logf("p99 over rounds %v ms, median %.3f ms", p99, percentileF(p99, 50))
}

// timedSetups runs setup setupRepeats times and returns the median wall
// time in seconds. Every set-up but the last is torn down by teardown.
func timedSetups(setup func() error, teardown func()) (float64, error) {
	var ds []time.Duration
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			teardown()
			return 0, fmt.Errorf("setup %d: %w", k, err)
		}
		ds = append(ds, time.Since(t0))
		if k < setupRepeats-1 {
			teardown()
		}
	}
	logf("setups: %v", ds)
	return median(ds).Seconds(), nil
}
