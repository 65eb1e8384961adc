package main

// Tests for the recycled request bodies of the extraction routes: a
// recycled buffer must hold nothing a response, a cached result or a
// buffered trace still reads, and a body an outgoing peer fetch sent is
// never recycled.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"formext"
	"formext/internal/cluster"
	"formext/internal/dataset"
)

// recycled records the buffers the server hands back, keeping them out of
// the pool until the test has scribbled over them.
type recycled struct {
	mu   sync.Mutex
	bufs []*pageBuf
	n    int
}

// captureRecycled swaps recyclePage for the duration of the test.
func captureRecycled(t *testing.T) *recycled {
	t.Helper()
	rc := &recycled{}
	prev := recyclePage
	recyclePage = func(pb *pageBuf) {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		rc.bufs = append(rc.bufs, pb)
		rc.n++
	}
	t.Cleanup(func() { recyclePage = prev })
	return rc
}

// count is how many buffers were recycled so far.
func (rc *recycled) count() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n
}

// scribble overwrites every recycled buffer's whole capacity and returns
// the buffers to the pool, so later requests may read into them.
func (rc *recycled) scribble() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, pb := range rc.bufs {
		b := pb.b[:cap(pb.b)]
		for i := range b {
			b[i] = '#'
		}
		pageBufs.Put(pb)
	}
	rc.bufs = nil
}

func TestRecycledBodyLeavesResultsIntact(t *testing.T) {
	rc := captureRecycled(t)
	s, err := newHandler(config{traceBuffer: 16, cacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	page := dataset.QamHTML

	// The reference: a private extractor over a private copy of the page.
	ref, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExtractBytes(context.Background(), []byte(page))
	if err != nil {
		t.Fatal(err)
	}
	wantModel := mustJSON(t, want.Model)
	wantTrees := make([]string, len(want.Trees))
	for i, tr := range want.Trees {
		wantTrees[i] = tr.Dump()
	}

	// envelope serves one /extract?trees=1 and returns its body with the
	// per-request trace ID blanked.
	envelope := func() (string, extractResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract?trees=1", strings.NewReader(page)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var out extractResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		id := out.TraceID
		out.TraceID = ""
		return id, out
	}
	trace := func(id string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces?id="+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/traces?id=%s: status %d", id, rec.Code)
		}
		return rec.Body.String()
	}

	id, miss := envelope()
	if miss.Stats.CacheHit {
		t.Fatal("first request must run the pipeline")
	}
	if rc.count() != 1 {
		t.Fatalf("recycled %d buffers after one /extract, want 1", rc.count())
	}
	traceBefore := trace(id)
	rc.scribble()
	if got := trace(id); got != traceBefore {
		t.Errorf("/traces?id= changed after the body buffer was overwritten:\nbefore %s\nafter  %s", traceBefore, got)
	}

	_, hit := envelope()
	rc.scribble()
	_, next := envelope()
	rc.scribble()
	if !hit.Stats.CacheHit || !next.Stats.CacheHit {
		t.Fatal("repeat requests must be cache hits")
	}
	if a, b := mustJSON(t, hit), mustJSON(t, next); a != b {
		t.Errorf("hit responses differ after the body buffers were overwritten:\n%s\n%s", a, b)
	}
	if got := mustJSON(t, hit.Model); got != wantModel {
		t.Errorf("served model differs from a private extraction:\n got %s\nwant %s", got, wantModel)
	}
	if strings.Join(hit.Trees, "") != strings.Join(wantTrees, "") {
		t.Errorf("served trees differ from a private extraction:\n got %q\nwant %q", hit.Trees, wantTrees)
	}

	// The cached Result itself: every string it exposes must be its own.
	res, err := s.ex.ExtractBytes(context.Background(), []byte(page))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Fatal("direct extraction must hit the server's cache")
	}
	if got := mustJSON(t, res.Model); got != wantModel {
		t.Errorf("cached model differs from a private extraction:\n got %s\nwant %s", got, wantModel)
	}
	if got, wantForm := mustJSON(t, res.Form), mustJSON(t, want.Form); got != wantForm {
		t.Errorf("cached form envelope differs from a private extraction:\n got %s\nwant %s", got, wantForm)
	}
	for i, tr := range res.Trees {
		if i >= len(wantTrees) || tr.Dump() != wantTrees[i] {
			t.Errorf("cached tree %d differs from a private extraction", i)
		}
	}
}

func TestPeerFetchNeverRecyclesItsBody(t *testing.T) {
	rc := captureRecycled(t)
	servers, hts := newFleet(t, 2, func(cc *cluster.Config) {
		cc.HotBytes = 1 << 20
		cc.Retries = -1
	})
	page := pageOwnedBy(t, servers[0], hts[1].URL)

	// Forwarded: only the owner's /cluster/fetch handler recycles; the
	// forwarding side sent its buffer out and keeps it.
	if fr := postExtract(t, hts[0].URL, page, nil); fr.source != "peer" {
		t.Fatalf("first post: source = %q, want peer", fr.source)
	}
	if n := rc.count(); n != 1 {
		t.Fatalf("recycled %d buffers after a forwarded request, want 1 (the owner's)", n)
	}
	// A hot-copy answer made no request, so its buffer is recycled.
	if fr := postExtract(t, hts[0].URL, page, nil); fr.source != "peer-hot" {
		t.Fatalf("second post: source = %q, want peer-hot", fr.source)
	}
	if n := rc.count(); n != 2 {
		t.Fatalf("recycled %d buffers after a hot-copy answer, want 2", n)
	}
	// The owner is gone: the fetch fails and the request falls back to a
	// local extraction, whose buffer the failed fetch may still be reading.
	hts[1].Close()
	other := ""
	for i := 0; i < 500 && other == ""; i++ {
		p := fleetPage(1000 + i)
		if addr, _ := servers[0].cluster.Owner(servers[0].ex.ExtractKeyBytes([]byte(p))); addr == hts[1].URL {
			other = p
		}
	}
	if other == "" {
		t.Fatal("no second page owned by the closed peer")
	}
	if fr := postExtract(t, hts[0].URL, other, nil); fr.status != http.StatusOK || fr.source != "local-fallback" {
		t.Fatalf("fallback post: status %d source %q, want 200 local-fallback", fr.status, fr.source)
	}
	if n := rc.count(); n != 2 {
		t.Errorf("recycled %d buffers after a peer-fetch fallback, want still 2", n)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
