// Package experiments regenerates every evaluation artifact of the paper:
// the survey figures (Figure 4), the accuracy figures (Figure 15), the
// in-text timing numbers of Section 5.1 and the ambiguity blow-up of
// Section 4.2.1, plus two ablations this reproduction adds (late pruning
// and the proximity baseline). cmd/experiments prints them; bench_test.go
// wraps them as benchmarks; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"formext"
	"formext/internal/baseline"
	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/geom"
	"formext/internal/induce"
	"formext/internal/merger"
	"formext/internal/metrics"
	"formext/internal/repair"
	"formext/internal/survey"
)

// mustNew builds an extractor or panics (the embedded grammar is
// known-good; failure is programmer error).
func mustNew() *formext.Extractor {
	ex, err := formext.New()
	if err != nil {
		panic(err)
	}
	return ex
}

// mustParser builds a parser in one of the modes the facade does not offer
// (the paper's ablations) or panics.
func mustParser(g *formext.Grammar, opt core.Options) *core.Parser {
	p, err := core.NewParser(g, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// ---- E1/E2: Figure 4 ----

// Fig4Result carries the survey series.
type Fig4Result struct {
	Growth survey.Growth
	Ranks  []survey.RankEntry
}

// RunFig4a regenerates Figure 4(a): condition-pattern vocabulary growth
// over the Basic dataset's 150 sources.
func RunFig4a(w io.Writer) Fig4Result {
	srcs := dataset.Basic()
	g := survey.VocabularyGrowth(srcs)
	fmt.Fprintln(w, "Figure 4(a): vocabulary growth over sources (Basic dataset)")
	fmt.Fprintln(w, "sources-scanned  distinct-patterns")
	for _, i := range []int{1, 10, 25, 50, 75, 100, 125, 150} {
		if i <= len(g.Distinct) {
			fmt.Fprintf(w, "%15d  %d\n", i, g.Distinct[i-1])
		}
	}
	reuse := survey.CrossDomainReuse(srcs, "Books")
	doms := make([]string, 0, len(reuse))
	for dom := range reuse {
		doms = append(doms, dom)
	}
	sort.Strings(doms)
	for _, dom := range doms {
		e := reuse[dom]
		fmt.Fprintf(w, "cross-domain reuse: %s reuses %d Books patterns, introduces %d new\n",
			dom, e.Reused, e.New)
	}
	return Fig4Result{Growth: g}
}

// RunFig4b regenerates Figure 4(b): pattern frequencies over ranks, per
// domain and total, for the more-than-once patterns.
func RunFig4b(w io.Writer) Fig4Result {
	srcs := dataset.Basic()
	ranks := survey.RankFrequencies(srcs, 2)
	fmt.Fprintln(w, "Figure 4(b): pattern frequencies over ranks (Basic dataset)")
	fmt.Fprintf(w, "%-4s %-34s %6s %8s %12s %9s\n", "rank", "pattern", "total", "Books", "Automobiles", "Airfares")
	for i, e := range ranks {
		fmt.Fprintf(w, "%-4d %-34s %6d %8d %12d %9d\n",
			i+1, e.Name, e.Total, e.ByDomain["Books"], e.ByDomain["Automobiles"], e.ByDomain["Airfares"])
	}
	return Fig4Result{Ranks: ranks}
}

// ---- E3-E6: Figure 15 ----

// Fig15Row is one dataset's evaluation.
type Fig15Row struct {
	Dataset  string
	Agg      metrics.Aggregate
	PrecDist []float64
	RecDist  []float64
	Elapsed  time.Duration
}

// EvaluateDataset runs the extractor over one dataset and computes all
// Figure 15 metrics.
func EvaluateDataset(ex *formext.Extractor, name string, srcs []dataset.Source) Fig15Row {
	start := time.Now()
	results := make([]metrics.SourceResult, 0, len(srcs))
	for _, s := range srcs {
		res, err := ex.ExtractHTML(s.HTML)
		if err != nil {
			panic(err)
		}
		r := metrics.Match(s.Truth, res.Model.Conditions, false)
		r.ID = s.ID
		results = append(results, r)
	}
	return Fig15Row{
		Dataset:  name,
		Agg:      metrics.Summarize(results),
		PrecDist: metrics.Distribution(results, false),
		RecDist:  metrics.Distribution(results, true),
		Elapsed:  time.Since(start),
	}
}

// RunFig15 regenerates Figure 15(a)-(d) over the four datasets.
func RunFig15(w io.Writer) []Fig15Row {
	ex := mustNew()
	var rows []Fig15Row
	for _, name := range dataset.DatasetNames {
		srcs, _ := dataset.ByName(name)
		rows = append(rows, EvaluateDataset(ex, name, srcs))
	}

	th := metrics.DistributionThresholds
	fmt.Fprintln(w, "Figure 15(a): source distribution over precision (% of sources with P >= threshold)")
	fmt.Fprintf(w, "%-10s", "dataset")
	for _, t := range th {
		fmt.Fprintf(w, "%8.1f", t)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Dataset)
		for _, v := range r.PrecDist {
			fmt.Fprintf(w, "%8.0f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nFigure 15(b): source distribution over recall (% of sources with R >= threshold)")
	fmt.Fprintf(w, "%-10s", "dataset")
	for _, t := range th {
		fmt.Fprintf(w, "%8.1f", t)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Dataset)
		for _, v := range r.RecDist {
			fmt.Fprintf(w, "%8.0f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nFigure 15(c): average per-source precision and recall")
	fmt.Fprintf(w, "%-10s %9s %9s\n", "dataset", "avg-P", "avg-R")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3f %9.3f\n", r.Dataset, r.Agg.AvgPrecision, r.Agg.AvgRecall)
	}
	fmt.Fprintln(w, "\nFigure 15(d): overall precision and recall")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %10s\n", "dataset", "Pa", "Ra", "accuracy", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3f %9.3f %9.3f %10s\n",
			r.Dataset, r.Agg.OverallPrecision, r.Agg.OverallRecall, r.Agg.Accuracy,
			r.Elapsed.Round(time.Millisecond))
	}
	return rows
}

// ---- E7: Section 5.1 timing ----

// TimingResult reports the parse-time reproduction of Section 5.1.
type TimingResult struct {
	SingleTokens   int
	SingleDuration time.Duration
	BatchForms     int
	BatchAvgTokens float64
	BatchDuration  time.Duration
}

// RunTiming reproduces the timing claims: "given a query interface of size
// about 25 (number of tokens), parsing takes about 1 second. Parsing 120
// query interfaces with average size 22 takes less than 100 seconds" (on
// 2004 hardware; we report our measurements for shape, not absolutes).
func RunTiming(w io.Writer) TimingResult {
	ex := mustNew()
	var res TimingResult

	// A single ~25-token interface: the Qaa fixture (measured, not assumed).
	toks := ex.Tokenize(dataset.QaaHTML)
	start := time.Now()
	out, err := ex.ExtractTokens(context.Background(), toks)
	if err != nil {
		panic(err)
	}
	res.SingleTokens = len(toks)
	res.SingleDuration = time.Since(start)
	_ = out

	// 120 interfaces: Basic's first 120.
	srcs := dataset.Basic()[:120]
	total := 0
	start = time.Now()
	for _, s := range srcs {
		ts := ex.Tokenize(s.HTML)
		total += len(ts)
		if _, err := ex.ExtractTokens(context.Background(), ts); err != nil {
			panic(err)
		}
	}
	res.BatchDuration = time.Since(start)
	res.BatchForms = len(srcs)
	res.BatchAvgTokens = float64(total) / float64(len(srcs))

	fmt.Fprintln(w, "Section 5.1 timing (paper, 2004 hardware: ~1 s for a 25-token interface;")
	fmt.Fprintln(w, "120 interfaces of average size 22 in < 100 s)")
	fmt.Fprintf(w, "single interface: %d tokens parsed in %s\n", res.SingleTokens, res.SingleDuration)
	fmt.Fprintf(w, "batch: %d interfaces, avg %.1f tokens, total %s\n",
		res.BatchForms, res.BatchAvgTokens, res.BatchDuration.Round(time.Millisecond))
	return res
}

// ---- E8/E9: Section 4.2.1 ambiguity and scheduling ablations ----

// AmbiguityRow is one parser mode's behaviour on the Figure 5 fragment.
type AmbiguityRow struct {
	Mode           string
	TotalCreated   int
	Pruned         int
	RolledBack     int
	Alive          int
	CompleteParses int
	MaximalTrees   int
	Duration       time.Duration
}

// RunAmbiguity reproduces the Section 4.2.1 observation on the Figure 5
// fragment: the brute-force exhaustive interpretation creates an order of
// magnitude more instances and many spurious complete parses (the paper
// measured 25 parse trees and 773 instances against 42 in the correct
// parse); just-in-time pruning collapses the ambiguity, and the
// late-pruning ablation shows what scheduling saves. The ablations are
// parser modes, so they run on internal/core over the facade's tokens.
func RunAmbiguity(w io.Writer) []AmbiguityRow {
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"brute-force (no preferences)", core.Options{DisablePreferences: true}},
		{"late pruning (no 2P schedule)", core.Options{DisableScheduling: true}},
		{"best-effort (2P schedule + JIT pruning)", core.Options{}},
	}
	ex := mustNew()
	toks := ex.Tokenize(dataset.Figure5Fragment)
	var rows []AmbiguityRow
	fmt.Fprintln(w, "Section 4.2.1 ambiguity on the Figure 5 fragment (16 tokens; paper:")
	fmt.Fprintln(w, "brute force = 773 instances / 25 parse trees, correct tree = 42 instances)")
	fmt.Fprintf(w, "%-42s %9s %7s %9s %6s %9s %6s\n",
		"mode", "created", "pruned", "rolledback", "alive", "complete", "trees")
	for _, m := range modes {
		start := time.Now()
		res, err := mustParser(ex.Grammar(), m.opt).Parse(toks)
		if err != nil {
			panic(err)
		}
		row := AmbiguityRow{
			Mode:           m.name,
			TotalCreated:   res.Stats.TotalCreated,
			Pruned:         res.Stats.Pruned,
			RolledBack:     res.Stats.RolledBack,
			Alive:          res.Stats.Alive,
			CompleteParses: res.Stats.CompleteParses,
			MaximalTrees:   len(res.Maximal),
			Duration:       time.Since(start),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-42s %9d %7d %9d %6d %9d %6d\n",
			row.Mode, row.TotalCreated, row.Pruned, row.RolledBack, row.Alive,
			row.CompleteParses, row.MaximalTrees)
	}
	if len(rows) == 3 {
		fmt.Fprintf(w, "correct parse tree size: %d nodes\n", treeSize())
	}
	return rows
}

// treeSize reports the node count of the surviving parse tree of the
// Figure 5 fragment under the full algorithm.
func treeSize() int {
	ex := mustNew()
	res, err := ex.ExtractHTML(dataset.Figure5Fragment)
	if err != nil || len(res.Trees) == 0 {
		return 0
	}
	return res.Trees[0].Size()
}

// ---- E10: baseline comparison ----

// BaselineRow compares the parser and the proximity baseline on a dataset.
type BaselineRow struct {
	Dataset  string
	Parser   metrics.Aggregate
	Baseline metrics.Aggregate
}

// RunBaseline compares the best-effort parser against the pairwise
// proximity heuristic of prior work (Section 2) on all four datasets.
func RunBaseline(w io.Writer) []BaselineRow {
	ex := mustNew()
	var rows []BaselineRow
	fmt.Fprintln(w, "Ablation E10: best-effort parser vs pairwise proximity baseline (overall P/R)")
	fmt.Fprintf(w, "%-10s %9s %9s %12s %12s\n", "dataset", "parser-P", "parser-R", "baseline-P", "baseline-R")
	for _, name := range dataset.DatasetNames {
		srcs, _ := dataset.ByName(name)
		var pres, bres []metrics.SourceResult
		for _, s := range srcs {
			out, err := ex.ExtractHTML(s.HTML)
			if err != nil {
				panic(err)
			}
			pres = append(pres, metrics.Match(s.Truth, out.Model.Conditions, false))
			bres = append(bres, metrics.Match(s.Truth, baseline.Extract(out.Tokens), false))
		}
		row := BaselineRow{Dataset: name, Parser: metrics.Summarize(pres), Baseline: metrics.Summarize(bres)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %9.3f %9.3f %12.3f %12.3f\n", name,
			row.Parser.OverallPrecision, row.Parser.OverallRecall,
			row.Baseline.OverallPrecision, row.Baseline.OverallRecall)
	}
	return rows
}

// ---- E11: cross-source repair (Section 7 future work) ----

// RepairRow compares extraction accuracy before and after cross-source
// repair on one dataset.
type RepairRow struct {
	Dataset             string
	Before, After       metrics.Aggregate
	ConflictsBefore     int
	ConflictsAfter      int
	MissingBefore       int
	MissingAfter        int
	RecoveredConditions int
}

// RunRepair implements the paper's first concluding-discussion extension:
// a second pass that leverages correctly parsed conditions from other
// interfaces of the same domain to arbitrate conflicts, and textual
// similarity to recover missing elements.
func RunRepair(w io.Writer) []RepairRow {
	ex := mustNew()
	fmt.Fprintln(w, "Extension E11 (Section 7): cross-source conflict repair and missing-element recovery")
	fmt.Fprintf(w, "%-10s %18s %18s %14s %12s\n", "dataset", "acc before", "acc after", "conflicts", "missing")
	var rows []RepairRow
	for _, name := range dataset.DatasetNames {
		srcs, _ := dataset.ByName(name)

		// Pass 1: extract everything and build per-domain vocabulary from
		// the conflict-free conditions.
		type extraction struct {
			src dataset.Source
			res *formext.Result
		}
		var exts []extraction
		knowledge := map[string]*repair.DomainKnowledge{}
		for _, s := range srcs {
			res, err := ex.ExtractHTML(s.HTML)
			if err != nil {
				panic(err)
			}
			exts = append(exts, extraction{src: s, res: res})
			k := knowledge[s.Domain]
			if k == nil {
				k = repair.NewDomainKnowledge()
				knowledge[s.Domain] = k
			}
			k.Learn(res.Model)
		}

		// Pass 2: repair each model with its domain's vocabulary.
		row := RepairRow{Dataset: name}
		var before, after []metrics.SourceResult
		for _, e := range exts {
			r := repair.NewRepairer(knowledge[e.src.Domain])
			repaired := r.Repair(e.res.Model, e.res.Tokens)
			before = append(before, metrics.Match(e.src.Truth, e.res.Model.Conditions, false))
			after = append(after, metrics.Match(e.src.Truth, repaired.Conditions, false))
			row.ConflictsBefore += len(e.res.Model.Conflicts)
			row.ConflictsAfter += len(repaired.Conflicts)
			row.MissingBefore += len(e.res.Model.Missing)
			row.MissingAfter += len(repaired.Missing)
			if d := len(repaired.Conditions) - len(e.res.Model.Conditions); d > 0 {
				row.RecoveredConditions += d
			}
		}
		row.Before = metrics.Summarize(before)
		row.After = metrics.Summarize(after)
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %18.3f %18.3f %6d -> %-5d %5d -> %-4d\n",
			name, row.Before.Accuracy, row.After.Accuracy,
			row.ConflictsBefore, row.ConflictsAfter, row.MissingBefore, row.MissingAfter)
	}
	return rows
}

// ---- E12: grammar induction (Section 7 future work) ----

// InduceRow compares the hand-derived and the automatically induced
// grammar on one dataset.
type InduceRow struct {
	Dataset string
	Hand    metrics.Aggregate
	Induced metrics.Aggregate
}

// RunInduce implements the paper's second concluding-discussion extension:
// the global grammar is derived automatically from the Basic training set
// (internal/induce abstracts each hand-labelled condition into a layout
// signature and emits DSL for the supported ones), then evaluated against
// the hand-derived grammar on all four datasets.
func RunInduce(w io.Writer) []InduceRow {
	hand := mustNew()

	// Train on Basic: exactly the corpus the hand derivation used.
	var examples []induce.Example
	tokEx := mustNew()
	for _, s := range dataset.Basic() {
		examples = append(examples, induce.Example{Tokens: tokEx.Tokenize(s.HTML), Truth: s.Truth})
	}
	ind := induce.NewInducer()
	g, src, counts, err := ind.Induce(examples)
	if err != nil {
		panic(err)
	}
	induced, err := formext.New(formext.Options{GrammarSource: src})
	if err != nil {
		panic(err)
	}

	fmt.Fprintln(w, "Extension E12 (Section 7): grammar induced from the Basic training set")
	supported := 0
	for _, n := range counts {
		if n >= ind.MinSupport {
			supported++
		}
	}
	fmt.Fprintf(w, "induced grammar: %s (from %d supported of %d observed signatures)\n",
		g.Stats(), supported, len(counts))
	fmt.Fprintf(w, "%-10s %16s %16s\n", "dataset", "hand acc", "induced acc")
	var rows []InduceRow
	for _, name := range dataset.DatasetNames {
		srcs, _ := dataset.ByName(name)
		row := InduceRow{
			Dataset: name,
			Hand:    EvaluateDataset(hand, name, srcs).Agg,
			Induced: EvaluateDataset(induced, name, srcs).Agg,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %16.3f %16.3f\n", name, row.Hand.Accuracy, row.Induced.Accuracy)
	}
	return rows
}

// ---- E13: spatial-threshold sensitivity (ablation, ours) ----

// SweepRow is one threshold setting's accuracy.
type SweepRow struct {
	Knob     string
	Value    float64
	Accuracy float64
}

// RunSweep ablates the adjacency thresholds that give the spatial
// relations their "adjacency implied" semantics (Section 4.1): the
// horizontal gap bound that lets a wide label column separate labels from
// fields, and the vertical gap bound that binds labels to the widgets
// below them. The plateau around the defaults shows the derived grammar is
// not knife-edge calibrated.
func RunSweep(w io.Writer) []SweepRow {
	srcs := dataset.NewSource()
	// The thresholds only steer the parser, so each page is tokenized once
	// and parsed and merged under every setting.
	ex := mustNew()
	g := ex.Grammar()
	mg := merger.New(g)
	toks := make([][]*formext.Token, len(srcs))
	for i, s := range srcs {
		toks[i] = ex.Tokenize(s.HTML)
	}
	fmt.Fprintln(w, "Ablation E13: accuracy vs spatial-adjacency thresholds (NewSource dataset)")
	fmt.Fprintf(w, "%-8s %8s %9s\n", "knob", "value", "accuracy")
	var rows []SweepRow
	eval := func(knob string, value float64, th geom.Thresholds) {
		p := mustParser(g, core.Options{Thresholds: th})
		var results []metrics.SourceResult
		for i, s := range srcs {
			res, err := p.Parse(toks[i])
			if err != nil {
				panic(err)
			}
			results = append(results, metrics.Match(s.Truth, mg.Merge(res).Conditions, false))
		}
		acc := metrics.Summarize(results).Accuracy
		rows = append(rows, SweepRow{Knob: knob, Value: value, Accuracy: acc})
		fmt.Fprintf(w, "%-8s %8.0f %9.3f\n", knob, value, acc)
	}
	for _, hgap := range []float64{40, 80, 120, 170, 240, 320} {
		th := geom.DefaultThresholds
		th.MaxHGap = hgap
		eval("MaxHGap", hgap, th)
	}
	for _, vgap := range []float64{10, 25, 42, 70, 110} {
		th := geom.DefaultThresholds
		th.MaxVGap = vgap
		eval("MaxVGap", vgap, th)
	}
	return rows
}

// ---- E14: per-pattern error breakdown (diagnostic, ours) ----

// PatternRow reports extraction recall for one condition pattern.
type PatternRow struct {
	PatternID int
	Name      string
	Hard      bool
	Truths    int
	Recalled  int
	Recall    float64
}

// RunErrors attributes recall losses to the condition patterns that caused
// them: every ground-truth condition of the Basic dataset knows which
// pattern rendered it, so aligning extractions with truths per source
// yields per-pattern recall — the breakdown behind Figure 15's aggregate
// numbers. Hard (uncaptured) patterns should dominate the losses; if a
// conventional pattern shows up weak here, the grammar has a gap.
func RunErrors(w io.Writer) []PatternRow {
	ex := mustNew()
	truths := map[int]int{}
	recalled := map[int]int{}
	for _, s := range dataset.Basic() {
		res, err := ex.ExtractHTML(s.HTML)
		if err != nil {
			panic(err)
		}
		// Greedy alignment by condition key, mirroring metrics.Match.
		avail := map[string]int{}
		for _, c := range res.Model.Conditions {
			avail[c.Key()]++
		}
		for i, truth := range s.Truth {
			pid := s.PatternIDs[i]
			truths[pid]++
			if avail[truth.Key()] > 0 {
				avail[truth.Key()]--
				recalled[pid]++
			}
		}
	}
	var rows []PatternRow
	for pid, n := range truths {
		p := dataset.PatternByID(pid)
		row := PatternRow{PatternID: pid, Truths: n, Recalled: recalled[pid]}
		if p != nil {
			row.Name = p.Name
			row.Hard = p.Hard
		}
		row.Recall = float64(row.Recalled) / float64(row.Truths)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Recall != rows[j].Recall {
			return rows[i].Recall < rows[j].Recall
		}
		return rows[i].PatternID < rows[j].PatternID
	})
	fmt.Fprintln(w, "Diagnostic E14: per-pattern recall on the Basic dataset (worst first)")
	fmt.Fprintf(w, "%-4s %-36s %5s %9s %9s %7s\n", "rank", "pattern", "hard", "truths", "recalled", "recall")
	for _, r := range rows {
		hard := ""
		if r.Hard {
			hard = "yes"
		}
		fmt.Fprintf(w, "%-4d %-36s %5s %9d %9d %7.2f\n",
			r.PatternID, r.Name, hard, r.Truths, r.Recalled, r.Recall)
	}
	return rows
}

// RunAll runs every experiment in paper order.
func RunAll(w io.Writer) {
	sections := []func(io.Writer){
		func(w io.Writer) { RunFig4a(w) },
		func(w io.Writer) { RunFig4b(w) },
		func(w io.Writer) { RunFig15(w) },
		func(w io.Writer) { RunTiming(w) },
		func(w io.Writer) { RunAmbiguity(w) },
		func(w io.Writer) { RunBaseline(w) },
		func(w io.Writer) { RunRepair(w) },
		func(w io.Writer) { RunInduce(w) },
		func(w io.Writer) { RunSweep(w) },
		func(w io.Writer) { RunErrors(w) },
	}
	for i, run := range sections {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 78))
		}
		run(w)
	}
}
