//go:build !race

// Allocation-budget guards for the serving path. Excluded under the race
// detector: race builds deliberately degrade sync.Pool (random Put drops),
// so the pooled front-end arenas re-allocate their slabs and the counts
// stop measuring the code. `make check` runs these through the dedicated
// guards target, without -race.
package formext_test

import (
	"testing"

	"formext"
	"formext/internal/dataset"
)

// TestColdExtractAllocationBudget guards the end-to-end cold-extraction
// allocation budget on the Qam fixture: with the arena front end (slab DOM,
// pooled layout, arena tokens) plus the slab parser, one uncached request
// must stay under 100 heap allocations (the seed paid ~717). The bound has
// headroom over the measured ~79 so unrelated small changes don't flake it;
// a regression past it means some per-node or per-token allocation crept
// back into the hot path.
func TestColdExtractAllocationBudget(t *testing.T) {
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("cold Qam extraction allocates %.0f objects per op, want < 100", allocs)
	}
}
