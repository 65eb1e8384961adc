//go:build !race

// Crawl-scale retention guard. Excluded under the race detector, which
// degrades sync.Pool and slows the crawl several-fold; `make guards` runs it
// without -race.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"
)

// TestSyntheticCrawlRetention crawls 10,000 generated pages through run()
// and holds the streaming contract at crawl scale: no failed page, no
// ceiling abort, the in-flight peak within the admission bound, and a flat
// retained heap — what the crawl leaves live once run returns must not grow
// with the number of pages crawled.
func TestSyntheticCrawlRetention(t *testing.T) {
	const (
		pages       = 10_000
		maxInFlight = 32
		slackBytes  = 16 << 20
	)
	before := settledHeap()
	var out bytes.Buffer
	cfg := crawlConfig{synthetic: pages, seed: 97, workers: 2, maxInFly: maxInFlight, memCeilMB: 1024}
	if err := run(context.Background(), cfg, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	after := settledHeap()
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	t.Logf("%d pages in %.1fs, peak in-flight %d, peak heap %.1f MiB, retained %+.1f MiB",
		rep.Pages, rep.ElapsedSec, rep.PeakInFlight, float64(rep.PeakHeapBytes)/(1<<20),
		(float64(after)-float64(before))/(1<<20))
	if rep.Pages != pages || rep.Failed != 0 {
		t.Errorf("pages = %d, failed = %d, want %d/0", rep.Pages, rep.Failed, pages)
	}
	if rep.Aborted {
		t.Error("crawl aborted on the heap ceiling")
	}
	if rep.PeakInFlight > maxInFlight {
		t.Errorf("peak in-flight = %d exceeds the configured bound %d", rep.PeakInFlight, maxInFlight)
	}
	if after > before+slackBytes {
		t.Errorf("heap after the crawl is %d B above the reading before it, want <= %d", after-before, slackBytes)
	}
}

// settledHeap is the live heap after two full collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
