package experiments

// Regression tests for the headline reproduction numbers: every experiment
// must keep the paper's shape. These are the guardrails that make grammar
// or engine changes safe — if a tweak capsizes Figure 15 or the ambiguity
// blow-up, it fails here, not in EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestFig4aShape(t *testing.T) {
	var sb strings.Builder
	r := RunFig4a(&sb)
	d := r.Growth.Distinct
	if len(d) != 150 {
		t.Fatalf("growth over %d sources", len(d))
	}
	final := d[len(d)-1]
	if final < 15 || final > 25 {
		t.Errorf("final vocabulary = %d", final)
	}
	// Flattening: at least 80%% of the vocabulary visible by source 50.
	if d[49]*10 < final*8 {
		t.Errorf("vocabulary at source 50 = %d of %d; curve not flattening", d[49], final)
	}
	// The cross-domain reuse lines come out in domain order, so two runs
	// print the same text.
	var doms []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "cross-domain reuse: "); ok {
			doms = append(doms, strings.Fields(rest)[0])
		}
	}
	if want := []string{"Airfares", "Automobiles"}; !slices.Equal(doms, want) {
		t.Errorf("cross-domain reuse domains printed as %v, want %v", doms, want)
	}
}

func TestFig4bShape(t *testing.T) {
	r := RunFig4b(io.Discard)
	if len(r.Ranks) < 12 {
		t.Fatalf("ranked patterns = %d", len(r.Ranks))
	}
	top, median := r.Ranks[0].Total, r.Ranks[len(r.Ranks)/2].Total
	if top < 3*median {
		t.Errorf("Zipf head missing: top %d vs median %d", top, median)
	}
}

func TestFig15Shape(t *testing.T) {
	rows := RunFig15(io.Discard)
	if len(rows) != 4 {
		t.Fatalf("%d datasets", len(rows))
	}
	byName := map[string]Fig15Row{}
	for _, r := range rows {
		byName[r.Dataset] = r
		// Everything in the paper's band.
		if r.Agg.Accuracy < 0.78 || r.Agg.Accuracy > 0.97 {
			t.Errorf("%s accuracy %.3f out of band", r.Dataset, r.Agg.Accuracy)
		}
		// Cumulative distributions reach 100 at threshold 0.
		if r.PrecDist[len(r.PrecDist)-1] != 100 || r.RecDist[len(r.RecDist)-1] != 100 {
			t.Errorf("%s distributions not cumulative to 100", r.Dataset)
		}
		// A majority of sources extract perfectly or nearly so.
		if r.PrecDist[1] < 40 {
			t.Errorf("%s: only %.0f%% of sources at P>=0.9", r.Dataset, r.PrecDist[1])
		}
	}
	// The exact figures, so a change that shifts accuracy shows as a diff
	// here and not only when it breaches a floor above (Pa, Ra, accuracy).
	pinned := map[string]string{
		"Basic":     "0.892209 0.849593 0.870901",
		"NewSource": "0.928571 0.945455 0.937013",
		"NewDomain": "0.865922 0.833333 0.849628",
		"Random":    "0.821429 0.782313 0.801871",
	}
	for _, r := range rows {
		got := fmt.Sprintf("%.6f %.6f %.6f", r.Agg.OverallPrecision, r.Agg.OverallRecall, r.Agg.Accuracy)
		if got != pinned[r.Dataset] {
			t.Errorf("%s: Pa Ra accuracy = %s, pinned %s", r.Dataset, got, pinned[r.Dataset])
		}
	}
	// The paper's ordering observations.
	if byName["NewSource"].Agg.Accuracy <= byName["Basic"].Agg.Accuracy {
		t.Errorf("NewSource (%.3f) should beat Basic (%.3f)",
			byName["NewSource"].Agg.Accuracy, byName["Basic"].Agg.Accuracy)
	}
	if byName["Random"].Agg.Accuracy < 0.80 {
		t.Errorf("Random accuracy %.3f below the paper's 0.80 floor", byName["Random"].Agg.Accuracy)
	}
	for _, r := range rows {
		if r.Dataset != "Random" && byName["Random"].Agg.Accuracy > r.Agg.Accuracy {
			t.Errorf("Random (%.3f) should not beat %s (%.3f)",
				byName["Random"].Agg.Accuracy, r.Dataset, r.Agg.Accuracy)
		}
	}
}

func TestTimingShape(t *testing.T) {
	r := RunTiming(io.Discard)
	if r.SingleTokens < 18 || r.SingleTokens > 32 {
		t.Errorf("single interface has %d tokens; should be 'about 25'", r.SingleTokens)
	}
	// The paper's envelope, with three orders of magnitude to spare.
	if r.SingleDuration.Seconds() > 1 {
		t.Errorf("single parse took %v; paper managed ~1 s on 2004 hardware", r.SingleDuration)
	}
	if r.BatchForms != 120 {
		t.Errorf("batch = %d forms", r.BatchForms)
	}
	if r.BatchDuration.Seconds() > 100 {
		t.Errorf("batch took %v; paper bound is 100 s", r.BatchDuration)
	}
}

func TestAmbiguityShape(t *testing.T) {
	rows := RunAmbiguity(io.Discard)
	if len(rows) != 3 {
		t.Fatalf("%d modes", len(rows))
	}
	brute, late, jit := rows[0], rows[1], rows[2]
	// The Section 4.2.1 blow-up: brute force creates an order of magnitude
	// more instances than the scheduled parser.
	if brute.TotalCreated < 10*jit.TotalCreated {
		t.Errorf("blow-up missing: brute %d vs jit %d", brute.TotalCreated, jit.TotalCreated)
	}
	// Late pruning does the same work as brute force, then rolls back to
	// the same survivors as the scheduled parser.
	if late.TotalCreated != brute.TotalCreated {
		t.Errorf("late pruning created %d, brute %d", late.TotalCreated, brute.TotalCreated)
	}
	if late.Alive != jit.Alive {
		t.Errorf("late pruning alive %d, jit %d — semantics must agree", late.Alive, jit.Alive)
	}
	if late.RolledBack == 0 {
		t.Error("late pruning must roll back")
	}
	if jit.CompleteParses != 1 || jit.MaximalTrees != 1 {
		t.Errorf("jit: %d complete, %d trees", jit.CompleteParses, jit.MaximalTrees)
	}
	// The surviving correct tree has the paper's 42 nodes.
	if got := treeSize(); got != 42 {
		t.Errorf("correct parse tree size = %d, want 42", got)
	}
	// The exact rows (created/pruned/rolled-back/alive/complete/trees), so
	// any change to how the ablations run shows as a diff here.
	pinned := []string{
		"10893/0/0/10893/1/1",
		"10893/27/10821/45/1/1",
		"77/27/5/45/1/1",
	}
	for i, r := range rows {
		got := fmt.Sprintf("%d/%d/%d/%d/%d/%d", r.TotalCreated, r.Pruned, r.RolledBack,
			r.Alive, r.CompleteParses, r.MaximalTrees)
		if got != pinned[i] {
			t.Errorf("%s: %s, pinned %s", r.Mode, got, pinned[i])
		}
	}
}

func TestBaselineShape(t *testing.T) {
	rows := RunBaseline(io.Discard)
	for _, r := range rows {
		if r.Parser.OverallPrecision <= r.Baseline.OverallPrecision {
			t.Errorf("%s: parser precision %.3f <= baseline %.3f",
				r.Dataset, r.Parser.OverallPrecision, r.Baseline.OverallPrecision)
		}
		if r.Parser.OverallRecall <= r.Baseline.OverallRecall {
			t.Errorf("%s: parser recall %.3f <= baseline %.3f",
				r.Dataset, r.Parser.OverallRecall, r.Baseline.OverallRecall)
		}
	}
}

func TestRepairShape(t *testing.T) {
	rows := RunRepair(io.Discard)
	for _, r := range rows {
		if r.ConflictsAfter > r.ConflictsBefore {
			t.Errorf("%s: repair added conflicts (%d -> %d)", r.Dataset, r.ConflictsBefore, r.ConflictsAfter)
		}
		if r.MissingAfter > r.MissingBefore {
			t.Errorf("%s: repair added missing (%d -> %d)", r.Dataset, r.MissingBefore, r.MissingAfter)
		}
		// Repair must not hurt accuracy beyond noise.
		if r.After.Accuracy < r.Before.Accuracy-0.02 {
			t.Errorf("%s: repair degraded accuracy %.3f -> %.3f", r.Dataset, r.Before.Accuracy, r.After.Accuracy)
		}
	}
	// On Basic (50 sources per domain of shared vocabulary) repair must
	// visibly help.
	if rows[0].Dataset != "Basic" {
		t.Fatal("dataset order changed")
	}
	if rows[0].After.Accuracy < rows[0].Before.Accuracy+0.01 {
		t.Errorf("Basic: repair gain too small: %.3f -> %.3f",
			rows[0].Before.Accuracy, rows[0].After.Accuracy)
	}
}

func TestInduceShape(t *testing.T) {
	rows := RunInduce(io.Discard)
	for _, r := range rows {
		if r.Induced.Accuracy < r.Hand.Accuracy-0.05 {
			t.Errorf("%s: induced grammar %.3f too far below hand grammar %.3f",
				r.Dataset, r.Induced.Accuracy, r.Hand.Accuracy)
		}
	}
}

func TestSweepShape(t *testing.T) {
	rows := RunSweep(io.Discard)
	byKnob := map[string][]SweepRow{}
	for _, r := range rows {
		byKnob[r.Knob] = append(byKnob[r.Knob], r)
	}
	h := byKnob["MaxHGap"]
	if len(h) < 4 {
		t.Fatalf("hgap sweep rows = %d", len(h))
	}
	// Starving the horizontal gap must hurt badly; the default region is a
	// plateau.
	if h[0].Accuracy >= h[len(h)-1].Accuracy-0.1 {
		t.Errorf("tiny MaxHGap (%.3f) should be far below the plateau (%.3f)",
			h[0].Accuracy, h[len(h)-1].Accuracy)
	}
	last := h[len(h)-1].Accuracy
	prev := h[len(h)-2].Accuracy
	if last < prev-0.03 || last > prev+0.03 {
		t.Errorf("no plateau at large MaxHGap: %.3f vs %.3f", prev, last)
	}
	v := byKnob["MaxVGap"]
	if len(v) < 4 {
		t.Fatalf("vgap sweep rows = %d", len(v))
	}
	// An absurdly loose vertical gap lets captions bind downward; accuracy
	// must not IMPROVE there.
	if v[len(v)-1].Accuracy > v[2].Accuracy+0.02 {
		t.Errorf("loose MaxVGap should not beat the default: %.3f vs %.3f",
			v[len(v)-1].Accuracy, v[2].Accuracy)
	}
	// The exact accuracies EXPERIMENTS.md reports, per knob in sweep order.
	pinned := map[string]string{
		"MaxHGap": "0.688 0.822 0.932 0.937 0.937 0.937",
		"MaxVGap": "0.977 0.959 0.937 0.942 0.908",
	}
	for knob, want := range pinned {
		var accs []string
		for _, r := range byKnob[knob] {
			accs = append(accs, fmt.Sprintf("%.3f", r.Accuracy))
		}
		if got := strings.Join(accs, " "); got != want {
			t.Errorf("%s accuracies = %s, pinned %s", knob, got, want)
		}
	}
}

func TestRunAllPrintsEverySection(t *testing.T) {
	var sb strings.Builder
	RunAll(&sb)
	out := sb.String()
	for _, want := range []string{
		"Figure 4(a)", "Figure 4(b)", "Figure 15(a)", "Figure 15(b)",
		"Figure 15(c)", "Figure 15(d)", "Section 5.1 timing",
		"Section 4.2.1 ambiguity", "proximity baseline",
		"cross-source conflict repair", "grammar induced",
		"spatial-adjacency thresholds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}
