package formext_test

// One benchmark per evaluation artifact of the paper (see DESIGN.md's
// per-experiment index): Figure 4(a)/(b), Figure 15(a)-(d), the Section 5.1
// timing claims, the Section 4.2.1 ambiguity blow-up, and the ablations.
// `go test -bench=. -benchmem` regenerates every number; cmd/experiments
// prints the same rows as readable tables.

import (
	"io"
	"testing"

	"formext"

	"formext/internal/dataset"
	"formext/internal/experiments"
	"formext/internal/grammar"
	"formext/internal/metrics"
	"formext/internal/survey"
)

// ---- E1/E2: Figure 4 ----

func BenchmarkFig4aVocabularyGrowth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srcs := dataset.Basic()
		g := survey.VocabularyGrowth(srcs)
		b.ReportMetric(float64(g.Distinct[len(g.Distinct)-1]), "patterns")
	}
}

func BenchmarkFig4bRankFrequency(b *testing.B) {
	srcs := dataset.Basic()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranks := survey.RankFrequencies(srcs, 2)
		b.ReportMetric(float64(len(ranks)), "ranked-patterns")
		b.ReportMetric(float64(ranks[0].Total), "top-frequency")
	}
}

// ---- E3-E6: Figure 15 ----

// evalDataset runs the full extractor over one dataset inside a benchmark.
func evalDataset(b *testing.B, name string) experiments.Fig15Row {
	b.Helper()
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	srcs, ok := dataset.ByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	return experiments.EvaluateDataset(ex, name, srcs)
}

func BenchmarkFig15aPrecisionDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "Random")
		// The leftmost bucket: % of sources at precision 1.0.
		b.ReportMetric(row.PrecDist[0], "%src-P1.0")
	}
}

func BenchmarkFig15bRecallDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "Random")
		b.ReportMetric(row.RecDist[0], "%src-R1.0")
	}
}

func BenchmarkFig15cAveragePR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "NewDomain")
		b.ReportMetric(row.Agg.AvgPrecision, "avg-P")
		b.ReportMetric(row.Agg.AvgRecall, "avg-R")
	}
}

func BenchmarkFig15dOverallPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The headline: Random-dataset overall accuracy (paper: Pa 0.80,
		// Ra 0.89, accuracy 0.85).
		row := evalDataset(b, "Random")
		b.ReportMetric(row.Agg.OverallPrecision, "Pa")
		b.ReportMetric(row.Agg.OverallRecall, "Ra")
		b.ReportMetric(row.Agg.Accuracy, "accuracy")
	}
}

func BenchmarkFig15dBasic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "Basic")
		b.ReportMetric(row.Agg.Accuracy, "accuracy")
	}
}

func BenchmarkFig15dNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "NewSource")
		b.ReportMetric(row.Agg.Accuracy, "accuracy")
	}
}

func BenchmarkFig15dNewDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := evalDataset(b, "NewDomain")
		b.ReportMetric(row.Agg.Accuracy, "accuracy")
	}
}

// ---- E7: Section 5.1 timing ----

func BenchmarkParseSingle25Tokens(b *testing.B) {
	// Paper: "given a query interface of size about 25 (number of tokens),
	// parsing takes about 1 second" (2004 hardware).
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	toks := ex.Tokenize(dataset.QaaHTML)
	b.ReportMetric(float64(len(toks)), "tokens")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractTokens(toks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse120Interfaces(b *testing.B) {
	// Paper: "parsing 120 query interfaces with average size 22 takes less
	// than 100 seconds" (2004 hardware).
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	srcs := dataset.Basic()[:120]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			if _, err := ex.ExtractHTML(s.HTML); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- E8/E9: Section 4.2.1 ambiguity + scheduling ablations ----

func benchAmbiguity(b *testing.B, opt formext.Options, metric string) {
	ex, err := formext.New(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.ExtractHTML(dataset.Figure5Fragment)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.TotalCreated), metric)
	}
}

func BenchmarkAblationBruteForce(b *testing.B) {
	// Paper: brute force on the Figure 5 fragment yields 773 instances and
	// 25 parse trees against 42 instances in the correct tree.
	benchAmbiguity(b, formext.Options{DisablePreferences: true}, "instances")
}

func BenchmarkAblationJITPruning(b *testing.B) {
	benchAmbiguity(b, formext.Options{}, "instances")
}

func BenchmarkAblationNoSchedule(b *testing.B) {
	// Late pruning: preferences applied only at the end of parsing, with
	// rollback erasing the aggregated false instances.
	benchAmbiguity(b, formext.Options{DisableScheduling: true}, "instances")
}

// ---- E10: baseline comparison ----

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunBaseline(io.Discard)
		for _, r := range rows {
			if r.Dataset == "Random" {
				b.ReportMetric(r.Parser.Accuracy, "parser-accuracy")
				b.ReportMetric(r.Baseline.Accuracy, "baseline-accuracy")
			}
		}
	}
}

// ---- E11/E12: Section 7 extensions ----

func BenchmarkRepairTwoPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunRepair(io.Discard)
		for _, r := range rows {
			if r.Dataset == "Basic" {
				b.ReportMetric(r.Before.Accuracy, "acc-before")
				b.ReportMetric(r.After.Accuracy, "acc-after")
			}
		}
	}
}

func BenchmarkGrammarInduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunInduce(io.Discard)
		for _, r := range rows {
			if r.Dataset == "Random" {
				b.ReportMetric(r.Hand.Accuracy, "hand-accuracy")
				b.ReportMetric(r.Induced.Accuracy, "induced-accuracy")
			}
		}
	}
}

// ---- component micro-benchmarks ----

func BenchmarkExtractQam(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenizePipeline(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks := ex.Tokenize(dataset.QaaHTML)
		if len(toks) == 0 {
			b.Fatal("no tokens")
		}
	}
}

func BenchmarkGrammarLoad(b *testing.B) {
	// Measures the DSL parse itself. grammar.Default() no longer pays this
	// per call — it compiles once per process (see BenchmarkNew for the
	// amortized construction path).
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := grammar.MustParseDSL(grammar.DefaultSource())
		if len(g.Prods) == 0 {
			b.Fatal("empty grammar")
		}
	}
}

// ---- serving-path benchmarks (parse-once grammar, one shared extractor) ----

// BenchmarkNew measures extractor construction — the one-time cost a server
// pays at startup before sharing the extractor across requests. With the
// parse-once default grammar and the shared schedule cache this is
// allocation-light. The end-to-end per-request figures live in
// BENCHMARK.json's traced run (obs.overhead_us, obs.allocs,
// pipeline.allocs).
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex, err := formext.New()
		if err != nil {
			b.Fatal(err)
		}
		if ex.Grammar() == nil {
			b.Fatal("no grammar")
		}
	}
}

// BenchmarkPoolExtract is the steady-state serving cost per request: one
// shared extractor over the shared grammar, sequentially. (The name
// predates the shared extractor.)
func BenchmarkPoolExtract(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil { // warm up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolExtractParallel runs many goroutines through one shared
// extractor — the concurrent serving path of cmd/formserve.
func BenchmarkPoolExtractParallel(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractAll is the crawl-scale batch entry point: the 30-source
// NewSource dataset extracted with the default (GOMAXPROCS) worker count.
func BenchmarkExtractAll(b *testing.B) {
	srcs := dataset.NewSource()
	pages := make([]string, len(srcs))
	for i, s := range srcs {
		pages[i] = s.HTML
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := formext.ExtractAll(pages, formext.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(pages) {
			b.Fatalf("results = %d", len(res))
		}
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srcs := dataset.Basic()
		if len(srcs) != 150 {
			b.Fatal("bad dataset")
		}
	}
}

func BenchmarkMetricsMatch(b *testing.B) {
	srcs := dataset.NewSource()
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	res, err := ex.ExtractHTML(srcs[0].HTML)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Match(srcs[0].Truth, res.Model.Conditions, false)
	}
}

// ---- PR 2: observability overhead ----

// BenchmarkTraceOverhead measures the cost of the observability layer at
// its three operating points against the untraced pipeline over the Qam
// interface:
//
//	untraced  — Options.Tracer nil: the production default. The only
//	            instrumentation cost is per-stage clock reads and the
//	            always-on parser counters; the disabled-overhead
//	            acceptance gate (≤2% vs the PR 1 BenchmarkPoolExtract
//	            baseline) is checked here.
//	disabled  — a constructed-but-disabled tracer (nil sink): Start
//	            returns nil, adding only nil checks over untraced.
//	nop-sink  — full span/event construction, then discarded: the cost
//	            of the instrumentation itself.
//	ring-sink — the formserve flight-recorder configuration.
func BenchmarkTraceOverhead(b *testing.B) {
	cases := []struct {
		name string
		opts formext.Options
	}{
		{"untraced", formext.Options{}},
		{"disabled", formext.Options{Tracer: formext.NewTracer(nil)}},
		{"nop-sink", formext.Options{Tracer: formext.NewTracer(nopSink{})}},
		{"ring-sink", formext.Options{Tracer: formext.NewTracer(formext.NewRingSink(64))}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ex, err := formext.New(c.opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil { // warm up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.ExtractHTML(dataset.QamHTML); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nopSink discards traces after full construction (formext re-exports the
// obs sinks but not NopSink, which exists for exactly this measurement).
type nopSink struct{}

func (nopSink) Emit(*formext.Trace) {}
