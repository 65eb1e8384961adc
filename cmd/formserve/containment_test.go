package main

// Serving-boundary containment tests: a request that panics, blows its
// deadline, or loses its client must be answered (or dropped) without
// taking the process — or any concurrent request — with it.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"formext"
)

// injectExtract swaps the handler's extraction for the test's and restores
// it on cleanup.
func injectExtract(t *testing.T, fn func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error)) {
	t.Helper()
	orig := extract
	extract = fn
	t.Cleanup(func() { extract = orig })
}

// TestPanicIs500AndServerSurvives is the acceptance regression: a hostile
// page whose extraction panics is answered 500 while a concurrent healthy
// request on another connection extracts normally — the panic is contained
// to the request that caused it.
func TestPanicIs500AndServerSurvives(t *testing.T) {
	hostileInFlight := make(chan struct{})
	releaseHostile := make(chan struct{})
	injectExtract(t, func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
		if strings.Contains(string(src), "bomb") {
			close(hostileInFlight)
			<-releaseHostile
			panic("injected hostile-page panic")
		}
		return ex.ExtractBytes(ctx, src)
	})
	srv := newTestServer(t)

	panicsBefore := mPanics.Value()
	var wg sync.WaitGroup
	wg.Add(1)
	var hostileStatus int
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/extract", "text/html",
			strings.NewReader("<form>bomb</form>"))
		if err != nil {
			return
		}
		resp.Body.Close()
		hostileStatus = resp.StatusCode
	}()

	// While the hostile page is pinned mid-extraction, a healthy request on
	// another connection must be served.
	<-hostileInFlight
	resp, err := http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader("<form>Author <input type=text name=a></form>"))
	if err != nil {
		t.Fatal(err)
	}
	var out extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Model.Conditions) == 0 {
		t.Errorf("healthy request failed while hostile page in flight: %d %+v",
			resp.StatusCode, out.Model)
	}

	close(releaseHostile)
	wg.Wait()
	if hostileStatus != http.StatusInternalServerError {
		t.Errorf("hostile page status = %d, want 500", hostileStatus)
	}
	if mPanics.Value() != panicsBefore+1 {
		t.Errorf("formserve_panics_total did not advance")
	}

	// And the server keeps serving afterwards.
	resp, err = http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader("<form>Title <input type=text name=t></form>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("server unhealthy after contained panic: %d", resp.StatusCode)
	}
}

// TestDeadlineIs503WithRetryAfter verifies the deadline mapping: an
// extraction exceeding -extract-timeout answers 503 with a Retry-After.
func TestDeadlineIs503WithRetryAfter(t *testing.T) {
	injectExtract(t, func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
		<-ctx.Done() // stall until the handler's deadline fires
		return nil, ctx.Err()
	})
	h, err := newHandler(config{extractTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadlinesBefore := mDeadline.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract",
		strings.NewReader("<form>slow</form>")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if mDeadline.Value() != deadlinesBefore+1 {
		t.Error("formserve_deadline_total did not advance")
	}
}

// TestRetryAfterConfigurable pins the -retry-after knob: the configured
// seconds value is what 503 deadline responses advertise, and the zero
// value (an unset config) keeps the historical 1-second default.
func TestRetryAfterConfigurable(t *testing.T) {
	injectExtract(t, func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	for _, tc := range []struct {
		retryAfter int
		want       string
	}{
		{retryAfter: 7, want: "7"},
		{retryAfter: 0, want: "1"},  // zero-value config keeps the old behavior
		{retryAfter: -3, want: "1"}, // nonsense clamps rather than emitting garbage
	} {
		h, err := newHandler(config{extractTimeout: 20 * time.Millisecond, retryAfter: tc.retryAfter})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract",
			strings.NewReader("<form>slow</form>")))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("retryAfter=%d: status = %d, want 503", tc.retryAfter, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("retryAfter=%d: Retry-After = %q, want %q", tc.retryAfter, got, tc.want)
		}
	}
}

// TestClientGoneNotCountedAsDeadline pins the branch order of the error
// mapping: an extraction that surfaces context.DeadlineExceeded after its
// client already hung up is a client-gone drop, not a deadline 503 — the
// deadline counter (and its alerting) must not move for requests nobody is
// waiting on.
func TestClientGoneNotCountedAsDeadline(t *testing.T) {
	injectExtract(t, func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
		<-ctx.Done()
		// Surface the deadline error even though the cause was the client
		// cancelling — the shape a racing timeout produces.
		return nil, context.DeadlineExceeded
	})
	h, err := newHandler(config{extractTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/extract",
		strings.NewReader("<form>gone</form>")).WithContext(ctx)
	deadlineBefore, goneBefore, errorsBefore :=
		mDeadline.Value(), mClientGone.Value(), mExtractErrors.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	cancel()
	<-done
	if mClientGone.Value() != goneBefore+1 {
		t.Error("formserve_client_gone_total did not advance")
	}
	if mDeadline.Value() != deadlineBefore {
		t.Error("client-gone request counted in formserve_deadline_total")
	}
	if mExtractErrors.Value() != errorsBefore {
		t.Error("client-gone request counted as an extraction error")
	}
}

// TestClientGoneIsDropped verifies that a disconnected client's extraction
// is neither answered nor counted as a success or an extraction error.
func TestClientGoneIsDropped(t *testing.T) {
	injectExtract(t, func(ctx context.Context, ex *formext.Extractor, src []byte) (*formext.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	h, err := newHandler(config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/extract",
		strings.NewReader("<form>gone</form>")).WithContext(ctx)
	extractionsBefore, errorsBefore, goneBefore :=
		mExtractions.Value(), mExtractErrors.Value(), mClientGone.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	cancel() // the client hangs up
	<-done
	if mClientGone.Value() != goneBefore+1 {
		t.Error("formserve_client_gone_total did not advance")
	}
	if mExtractions.Value() != extractionsBefore {
		t.Error("abandoned extraction counted as a success")
	}
	if mExtractErrors.Value() != errorsBefore {
		t.Error("abandoned extraction counted as an extraction error")
	}
}

// TestDegradedExtractionReported verifies the response surface: a
// budget-degraded extraction answers 200 with the degradations listed and
// the degraded counter advanced.
func TestDegradedExtractionReported(t *testing.T) {
	h, err := newHandler(config{parseBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	var page strings.Builder
	page.WriteString("<form>")
	for i := 0; i < 3000; i++ {
		page.WriteString("<p>F <input type=text name=f></p>")
	}
	page.WriteString("</form>")

	degradedBefore := mDegraded.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract",
		strings.NewReader(page.String())))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded extraction status = %d, want 200", rec.Code)
	}
	var out extractResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Degraded) == 0 {
		t.Error("response did not list the degradations")
	}
	if mDegraded.Value() != degradedBefore+1 {
		t.Error("formserve_degraded_total did not advance")
	}
}
