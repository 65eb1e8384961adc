package formext

// The BatchError invariant — "the pages it names are exactly the nil
// entries of the returned results, each named exactly once, in ascending
// page order" — enumerated across every failure mode the batch path has:
// page errors, page panics, pre-batch and mid-batch cancellation, each
// crossed with duplicate pages
// (including duplicates of the failing pages, the combination where the
// legacy implementation could double-charge an index through its
// duplicate replication).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// checkBatchInvariant asserts the documented BatchError contract against
// one ExtractAll outcome.
func checkBatchInvariant(t *testing.T, n int, res []*Result, err error) {
	t.Helper()
	if len(res) != n {
		t.Fatalf("results length = %d, want %d", len(res), n)
	}
	named := make(map[int]int)
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("error type = %T, want *BatchError", err)
		}
		last := -1
		for _, pe := range be.Pages {
			if pe.Page <= last {
				t.Errorf("BatchError pages not strictly ascending: %d after %d", pe.Page, last)
			}
			last = pe.Page
			if pe.Page < 0 || pe.Page >= n {
				t.Errorf("BatchError names out-of-range page %d", pe.Page)
				continue
			}
			if pe.Err == nil {
				t.Errorf("page %d named with a nil error", pe.Page)
			}
			named[pe.Page]++
		}
	}
	for i := range res {
		switch c := named[i]; {
		case res[i] == nil && c != 1:
			t.Errorf("page %d: nil result named %d times, want exactly once", i, c)
		case res[i] != nil && c != 0:
			t.Errorf("page %d: has a result yet named %d times", i, c)
		}
	}
}

func TestExtractAllBatchErrorInvariant(t *testing.T) {
	type scenario struct {
		name   string
		cancel string // "", "pre", "mid"
		panics bool   // corpus includes panicking pages (and a duplicate)
	}
	var scenarios []scenario
	for _, cancel := range []string{"", "pre", "mid"} {
		for _, panics := range []bool{false, true} {
			name := fmt.Sprintf("cancel=%s panics=%v", cancel, panics)
			scenarios = append(scenarios, scenario{name, cancel, panics})
		}
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if sc.cancel == "pre" {
				cancel()
			}

			origExtract := extractPage
			extractPage = func(c context.Context, ex *Extractor, src string) (*Result, error) {
				switch {
				case strings.Contains(src, "PANICPAGE"):
					panic("injected page panic")
				case strings.Contains(src, "FAILPAGE"):
					return nil, errors.New("injected page failure")
				case strings.Contains(src, "CANCELPAGE"):
					cancel() // mid-batch cancellation fires from inside the pipeline
					return nil, c.Err()
				}
				return ex.ExtractHTMLContext(c, src)
			}
			t.Cleanup(func() { extractPage = origExtract })

			// Healthy pages, a failing page, duplicates of both kinds, and an
			// empty page; panic and cancel trigger pages join per scenario.
			pages := []string{
				"<form>A <input type=text name=a></form>",
				"<form>FAILPAGE</form>",
				"<form>B <input type=text name=b></form>",
				"<form>A <input type=text name=a></form>", // dup of healthy
				"<form>FAILPAGE</form>",                   // dup of failing
				"",
				"<form>C <input type=text name=c></form>",
			}
			if sc.panics {
				pages = append(pages,
					"<form>PANICPAGE</form>",
					"<form>PANICPAGE</form>", // dup of panicking
				)
			}
			if sc.cancel == "mid" {
				pages = append(pages, "<form>CANCELPAGE</form>")
				// Pages queued behind the trigger, racing the cancellation.
				for i := 0; i < 6; i++ {
					pages = append(pages, fmt.Sprintf("<form>T%d <input type=text name=t%d></form>", i, i))
				}
			}

			res, err := ExtractAll(pages, BatchOptions{Workers: 3, Context: ctx})
			checkBatchInvariant(t, len(pages), res, err)

			// Scenario-specific floor: the deterministic failures must be
			// named regardless of scheduling.
			if err == nil {
				t.Fatal("every scenario injects at least one failure; err = nil")
			}
			var be *BatchError
			errors.As(err, &be)
			namedSet := make(map[int]bool, len(be.Pages))
			for _, pe := range be.Pages {
				namedSet[pe.Page] = true
			}
			for i, p := range pages {
				deterministicFail := strings.Contains(p, "FAILPAGE") ||
					strings.Contains(p, "PANICPAGE") || strings.Contains(p, "CANCELPAGE")
				if sc.cancel == "pre" || deterministicFail {
					if !namedSet[i] {
						t.Errorf("page %d (%q) must fail in scenario %q but was not named", i, p, sc.name)
					}
				}
			}
		})
	}
}
