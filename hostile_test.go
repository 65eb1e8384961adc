package formext

// Hostile-page containment tests: the serving-path guarantees of this
// package are that no input — adversarial nesting, token floods,
// pathological tables — and no internal failure — a panic, a blown budget,
// a gone caller — crashes the process or poisons an unrelated extraction.
// Each test here is one of those guarantees; they run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// deepPage nests divs far past any real page.
func deepPage(depth int) string {
	return strings.Repeat("<div>", depth) + "<form>Author <input type=text name=a></form>" +
		strings.Repeat("</div>", depth)
}

// widePage emits n label/textbox pairs — a token flood.
func widePage(n int) string {
	var b strings.Builder
	b.WriteString("<form>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<p>F%d <input type=text name=f%d></p>", i, i)
	}
	b.WriteString("</form>")
	return b.String()
}

// pathologicalTable nests tables inside table cells, recursively.
func pathologicalTable(depth, rows int) string {
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			return "X <input type=text name=q>"
		}
		var b strings.Builder
		b.WriteString("<table>")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, "<tr><td>%s</td></tr>", build(d-1))
		}
		b.WriteString("</table>")
		return b.String()
	}
	return "<form>" + build(depth) + "</form>"
}

// TestHostileDeepNestingSurvives is the end-to-end regression for the seed
// stack overflow: the full pipeline over a 1M-deep page must return a
// result (with a depth-cap degradation) instead of crashing the process.
func TestHostileDeepNestingSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(deepPage(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Degraded) == 0 || !strings.Contains(res.Stats.Degraded[0], "depth") {
		t.Errorf("Degraded = %v, want a depth-cap entry", res.Stats.Degraded)
	}
	// The form's content survives the flattening.
	if len(res.Tokens) == 0 {
		t.Error("no tokens extracted from the flattened page")
	}
}

// TestHostileTokenFloodCapped verifies the token budget: a page tokenizing
// far past MaxTokens is parsed over the capped prefix and says so.
func TestHostileTokenFloodCapped(t *testing.T) {
	ex, err := New(Options{MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 200 {
		t.Errorf("tokens = %d, want capped at 200", len(res.Tokens))
	}
	found := false
	for _, d := range res.Stats.Degraded {
		found = found || strings.Contains(d, "token count capped")
	}
	if !found {
		t.Errorf("Degraded = %v, want a token-cap entry", res.Stats.Degraded)
	}
	// The capped prefix still yields conditions.
	if len(res.Model.Conditions) == 0 {
		t.Error("no conditions from the capped prefix")
	}
	// Tokenize applies the same budget, so ExtractTokens(ctx, Tokenize(src))
	// parses the sentence ExtractHTML parsed, not the uncapped page.
	if n := len(ex.Tokenize(widePage(500))); n != 200 {
		t.Errorf("Tokenize returned %d tokens, want capped at 200", n)
	}
}

// TestTokenCapKeepsOnlyThePrefix: the MaxTokens cut happens before the
// tokens are handed over, so a capped result keeps storage for the kept
// tokens alone, with no backing array holding the tokens past the cap, and
// Freeze charges it no more than an uncapped extraction of the same
// prefix.
func TestTokenCapKeepsOnlyThePrefix(t *testing.T) {
	const n = 40
	capped, err := New(Options{MaxTokens: n})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := capped.ExtractHTML(widePage(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != n || cap(res.Tokens) != n {
		t.Fatalf("capped result keeps len %d, cap %d tokens, want %d and %d", len(res.Tokens), cap(res.Tokens), n, n)
	}
	// widePage(n/2) tokenizes to exactly the capped page's first n tokens.
	want, err := full.ExtractHTML(widePage(n / 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tokens, want.Tokens) {
		t.Fatal("the capped prefix differs from the uncapped extraction of the same tokens")
	}
	// The envelope describes the whole page's form either way, so it is
	// left out of the comparison.
	got, base := res.Freeze().cost-formCost(res.Form), want.Freeze().cost-formCost(want.Form)
	if got > base {
		t.Errorf("Freeze charges the capped result %d B, more than the %d B of an uncapped extraction of its prefix", got, base)
	}
}

// TestHostileHundredThousandTokens runs the 10^5-token flood end to end:
// the front half of the pipeline (parse, layout, tokenize) handles the full
// page in linear time, and the token budget keeps the parser's share
// bounded.
func TestHostileHundredThousandTokens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ex, err := New(Options{MaxTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(50_000)) // ~10^5 tokens
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 300 {
		t.Errorf("tokens = %d, want capped at 300", len(res.Tokens))
	}
	if len(res.Stats.Degraded) == 0 {
		t.Error("token flood must record a Degraded entry")
	}
	if len(res.Model.Conditions) == 0 {
		t.Error("capped prefix yielded no conditions")
	}
}

// TestHostilePathologicalTable runs the recursive-table shape through the
// default budgets; the point is termination without crash, whatever the
// degradation.
func TestHostilePathologicalTable(t *testing.T) {
	ex, err := New(Options{MaxTokens: 500, ParseBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(pathologicalTable(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Model == nil {
		t.Fatal("pathological table produced no result")
	}
}

// TestParseBudgetDegradesWithoutError pins the budget-vs-deadline
// distinction: an expired ParseBudget is not an error — the partial result
// comes back with Degraded entries and a nil error.
func TestParseBudgetDegradesWithoutError(t *testing.T) {
	ex, err := New(Options{ParseBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(3000))
	if err != nil {
		t.Fatalf("budget expiry must not error, got %v", err)
	}
	if len(res.Stats.Degraded) == 0 {
		t.Fatal("budget expiry must record Degraded entries")
	}
	for _, d := range res.Stats.Degraded {
		if strings.Contains(d, "cancelled") {
			t.Errorf("budget expiry misclassified as cancellation: %v", res.Stats.Degraded)
		}
	}
}

// TestCancelledCallerGetsPartialResultAndError pins the other side: caller
// cancellation is an error (nobody is waiting for the answer), but the
// partial result still comes back for diagnosis.
func TestCancelledCallerGetsPartialResultAndError(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ex.ExtractBytes(ctx, []byte(widePage(3000)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled extraction must return the partial result")
	}
	found := false
	for _, d := range res.Stats.Degraded {
		found = found || strings.Contains(d, "cancelled")
	}
	if !found {
		t.Errorf("Degraded = %v, want a cancellation entry", res.Stats.Degraded)
	}
}

// TestPanicBecomesPanicError injects a panic into a pipeline stage and
// verifies the facade's containment: a typed *PanicError with the stack and
// the stats accumulated before the failure, not a crashed test binary.
func TestPanicBecomesPanicError(t *testing.T) {
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "parse" {
			panic("injected parse-stage fault")
		}
	}
	t.Cleanup(func() { stageHook = orig })

	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML("<form>Author <input type=text name=a></form>")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "injected parse-stage fault") {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack empty")
	}
	if pe.Stats.Stages.HTMLParse == 0 {
		t.Error("PanicError.Stats lost the pre-failure stage timings")
	}
	if res == nil || len(res.Tokens) == 0 {
		t.Error("partial result (tokens before the panic) lost")
	}
}

// TestPanicDoesNotPoisonSharedExtractor verifies that a contained panic
// costs only its own request: the same cached Extractor serves the next
// page correctly, and the panicking page leaves nothing in the cache.
func TestPanicDoesNotPoisonSharedExtractor(t *testing.T) {
	var arm atomic.Bool
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "parse" && arm.CompareAndSwap(true, false) {
			panic("injected parse-stage fault")
		}
	}
	t.Cleanup(func() { stageHook = orig })

	c := mustCache(t, CacheConfig{})
	ex, err := New(Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	_, err = ex.ExtractHTML("<form>A <input type=text name=a></form>")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from the armed extraction, got %v", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("panicking page left %d cache entries", n)
	}
	res, err := ex.ExtractHTML(qaaHTML)
	if err != nil {
		t.Fatalf("shared extractor did not recover after a contained panic: %v", err)
	}
	fresh, err := New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ExtractHTML(qaaHTML)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != resultJSON(t, want) {
		t.Error("page after the panic differs from a fresh extraction")
	}
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("cache holds %d entries, want only the healthy page", n)
	}
}

// TestExtractAllCancelledContext verifies batch cancellation: a cancelled
// BatchOptions.Context fails every page with the context's error instead of
// hanging or crashing.
func TestExtractAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pages := []string{widePage(5), widePage(5), widePage(5)}
	res, err := ExtractAll(pages, BatchOptions{Workers: 2, Context: ctx})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Pages) != len(pages) {
		t.Fatalf("failed pages = %d, want all %d", len(be.Pages), len(pages))
	}
	for _, pe := range be.Pages {
		if !errors.Is(pe.Err, context.Canceled) {
			t.Errorf("page %d error = %v, want context.Canceled", pe.Page, pe.Err)
		}
	}
	for i, r := range res {
		if r != nil {
			t.Errorf("page %d has a result despite pre-cancelled batch", i)
		}
	}
}

// TestExtractAllContainsPanickingPage verifies the worker boundary: one
// panicking page is reported as a *PanicError while every other page in the
// batch extracts normally.
func TestExtractAllContainsPanickingPage(t *testing.T) {
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "bomb") {
			panic("injected page bomb")
		}
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{
		"<form>A <input type=text name=a></form>",
		"<form>bomb <input type=text name=b></form>",
		"<form>C <input type=text name=c></form>",
	}
	res, err := ExtractAll(pages, BatchOptions{Workers: 2})
	var be *BatchError
	if !errors.As(err, &be) || len(be.Pages) != 1 {
		t.Fatalf("err = %v, want a BatchError with exactly the bombed page", err)
	}
	var pe *PanicError
	if !errors.As(be.Pages[0].Err, &pe) {
		t.Fatalf("page error = %v, want *PanicError", be.Pages[0].Err)
	}
	if be.Pages[0].Page != 1 {
		t.Errorf("failed page = %d, want 1", be.Pages[0].Page)
	}
	if res[0] == nil || res[2] == nil {
		t.Error("healthy pages lost to the bombed page")
	}
}

// TestExtractTokensRejectsMalformedSets is the regression test for the
// token-validation panics: nil entries and non-dense IDs must come back as
// descriptive errors, never as crashes.
func TestExtractTokensRejectsMalformedSets(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	good, err := ex.ExtractHTML("<form>Author <input type=text name=a></form>")
	if err != nil {
		t.Fatal(err)
	}
	toks := good.Tokens

	cases := []struct {
		name string
		mut  func([]*Token) []*Token
	}{
		{"nil entry", func(ts []*Token) []*Token {
			out := append([]*Token(nil), ts...)
			out[0] = nil
			return out
		}},
		{"sparse ids", func(ts []*Token) []*Token {
			out := make([]*Token, len(ts))
			for i, tk := range ts {
				c := *tk
				c.ID = i * 2
				out[i] = &c
			}
			return out
		}},
		{"duplicate ids", func(ts []*Token) []*Token {
			out := make([]*Token, len(ts))
			for i, tk := range ts {
				c := *tk
				c.ID = 0
				out[i] = &c
			}
			return out
		}},
	}
	for _, tc := range cases {
		_, err := ex.ExtractTokens(context.Background(), tc.mut(toks))
		if err == nil {
			t.Errorf("%s: want a validation error", tc.name)
		} else if !strings.Contains(err.Error(), "token") {
			t.Errorf("%s: undiagnostic error %q", tc.name, err)
		}
	}
	// The pristine set still extracts.
	if _, err := ex.ExtractTokens(context.Background(), toks); err != nil {
		t.Errorf("valid token set rejected: %v", err)
	}
}

// TestConcurrentHostileAndHealthy runs hostile and healthy extractions
// concurrently through one shared extractor: containment on one goroutine
// must not perturb the others.
func TestConcurrentHostileAndHealthy(t *testing.T) {
	ex, err := New(Options{ParseBudget: 50 * time.Millisecond, MaxTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	hostile := widePage(2000)
	healthy := "<form>Author <input type=text name=a></form>"
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		src := healthy
		if i%2 == 0 {
			src = hostile
		}
		go func(src string) {
			res, err := ex.ExtractHTML(src)
			if err != nil {
				done <- err
				return
			}
			if res == nil || res.Model == nil {
				done <- errors.New("nil result")
				return
			}
			done <- nil
		}(src)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent extraction %d: %v", i, err)
		}
	}
}
