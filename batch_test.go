package formext_test

import (
	"fmt"
	"testing"

	"formext"

	"formext/internal/dataset"
)

func TestExtractAllMatchesSequential(t *testing.T) {
	srcs := dataset.NewSource()
	pages := make([]string, len(srcs))
	for i, s := range srcs {
		pages[i] = s.HTML
	}
	batch, err := formext.ExtractAll(pages, formext.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pages) {
		t.Fatalf("results = %d", len(batch))
	}
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	for i, page := range pages {
		seq, err := ex.ExtractHTML(page)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] == nil {
			t.Fatalf("page %d missing from batch", i)
		}
		if len(batch[i].Model.Conditions) != len(seq.Model.Conditions) {
			t.Errorf("page %d: batch %d conditions vs sequential %d",
				i, len(batch[i].Model.Conditions), len(seq.Model.Conditions))
		}
		for j := range seq.Model.Conditions {
			if batch[i].Model.Conditions[j].Attribute != seq.Model.Conditions[j].Attribute {
				t.Errorf("page %d condition %d differs", i, j)
			}
		}
	}
}

func TestExtractAllEdgeCases(t *testing.T) {
	if res, err := formext.ExtractAll(nil, formext.BatchOptions{}); err != nil || res != nil {
		t.Errorf("empty batch: %v, %v", res, err)
	}
	if res, err := formext.ExtractAll([]string{}, formext.BatchOptions{Workers: 3}); err != nil || res != nil {
		t.Errorf("empty non-nil batch: %v, %v", res, err)
	}
	if _, err := formext.ExtractAll([]string{"<p>x"}, formext.BatchOptions{
		Options: formext.Options{GrammarSource: "terminals text; start Broken;"},
	}); err == nil {
		t.Error("invalid grammar must fail the batch")
	}
	res, err := formext.ExtractAll([]string{"", "<form>A <input type=text name=a></form>"},
		formext.BatchOptions{Workers: 8})
	if err != nil || len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Errorf("small batch: %v, %v", res, err)
	}
}

// batchPages returns n distinguishable single-condition pages plus the
// attribute label each should extract.
func batchPages(n int) ([]string, []string) {
	pages := make([]string, n)
	labels := make([]string, n)
	for i := range pages {
		labels[i] = fmt.Sprintf("Field%02d", i)
		pages[i] = fmt.Sprintf("<form>%s <input type=text name=f%d></form>", labels[i], i)
	}
	return pages, labels
}

// checkOrder verifies results arrive in input order: page i's extracted
// condition must carry page i's label.
func checkOrder(t *testing.T, res []*formext.Result, labels []string) {
	t.Helper()
	if len(res) != len(labels) {
		t.Fatalf("results = %d, want %d", len(res), len(labels))
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("page %d missing", i)
		}
		if len(r.Model.Conditions) != 1 || r.Model.Conditions[0].Attribute != labels[i] {
			t.Errorf("page %d: conditions %+v, want attribute %s", i, r.Model.Conditions, labels[i])
		}
	}
}

func TestExtractAllOrderMoreWorkersThanPages(t *testing.T) {
	pages, labels := batchPages(3)
	res, err := formext.ExtractAll(pages, formext.BatchOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkOrder(t, res, labels)
}

func TestExtractAllOrderSingleWorker(t *testing.T) {
	pages, labels := batchPages(6)
	res, err := formext.ExtractAll(pages, formext.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkOrder(t, res, labels)
}

func TestExtractAllOrderPooled(t *testing.T) {
	// The shared-extractor default path under contention: many small pages,
	// default worker count, run under -race by the tier-1 target.
	pages, labels := batchPages(32)
	res, err := formext.ExtractAll(pages, formext.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkOrder(t, res, labels)
}
