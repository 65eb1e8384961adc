package core_test

// Parser hot-path micro-benchmarks (the perf counterpart of the package's
// correctness tests): BenchmarkParse is the scheduled default over a corpus
// of representative generated pages, BenchmarkEnforce is the late-pruning
// configuration whose cost is dominated by preference enforcement and
// rollback, and BenchmarkBruteForce is the exhaustive ablation of Section
// 4.2.1. The recorded parse figures are the ledger's core.us and
// core.e7_120_s (`bash benchmark/run.sh`).

import (
	"testing"

	"formext"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
	"formext/internal/token"
)

// benchCorpus tokenizes a representative slice of the generated Basic
// dataset plus the two paper fixtures — the same front-half pipeline the
// serving path runs — so the benchmarks measure parsing alone over inputs
// with realistic token counts and geometry.
func benchCorpus(tb testing.TB) [][]*token.Token {
	tb.Helper()
	ex, err := formext.New()
	if err != nil {
		tb.Fatal(err)
	}
	pages := []string{dataset.QamHTML, dataset.QaaHTML}
	for _, s := range dataset.Basic()[:12] {
		pages = append(pages, s.HTML)
	}
	corpus := make([][]*token.Token, 0, len(pages))
	for _, p := range pages {
		toks := ex.Tokenize(p)
		if len(toks) == 0 {
			tb.Fatal("page tokenized to nothing")
		}
		corpus = append(corpus, toks)
	}
	return corpus
}

func benchParse(b *testing.B, opt core.Options) {
	corpus := benchCorpus(b)
	p, err := core.NewParser(grammar.Default(), opt)
	if err != nil {
		b.Fatal(err)
	}
	tokens := 0
	for _, toks := range corpus {
		tokens += len(toks)
	}
	b.ReportMetric(float64(tokens)/float64(len(corpus)), "tokens/page")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, toks := range corpus {
			if _, err := p.Parse(toks); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParse is the production configuration: 2P scheduling with
// just-in-time pruning, compiled constraint evaluation.
func BenchmarkParse(b *testing.B) { benchParse(b, core.Options{}) }

// BenchmarkParseInterpreted is the same workload through the interpreted
// Expr-tree oracle, for the compiled-vs-interpreted speedup figure.
func BenchmarkParseInterpreted(b *testing.B) {
	benchParse(b, core.Options{Interpreted: true})
}

// BenchmarkEnforce disables the 2P schedule, so every preference is
// enforced by late pruning over the aggregated instance set: the benchmark
// is dominated by enforce's loser×winner scans and rollback. It runs over
// the two paper fixtures only — late pruning is quadratic in the instance
// count, and the full generated corpus would take tens of seconds per
// iteration.
func BenchmarkEnforce(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	corpus := [][]*token.Token{
		ex.Tokenize(dataset.QamHTML),
		ex.Tokenize(dataset.QaaHTML),
	}
	p, err := core.NewParser(grammar.Default(), core.Options{DisableScheduling: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, toks := range corpus {
			if _, err := p.Parse(toks); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBruteForce is the exhaustive interpretation of Section 4.2.1
// over the ambiguous Figure 5 fragment: no preferences, maximal instance
// blow-up, heavy dedup pressure.
func BenchmarkBruteForce(b *testing.B) {
	ex, err := formext.New()
	if err != nil {
		b.Fatal(err)
	}
	toks := ex.Tokenize(dataset.Figure5Fragment)
	p, err := core.NewParser(grammar.Default(), core.Options{DisablePreferences: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Parse(toks)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.TotalCreated), "instances")
	}
}

// coldShapeCorpus tokenizes generated pages shaped like the cold-extract
// benchmark's requests: every catalogue schema, 4-9 conditions, hardness
// 0.4. Pages whose parse would exceed 20,000 instances are dropped, as the
// benchmark drops them, so one pathological page cannot decide the figure.
// Unlike benchCorpus, these pages stack many condition rows, so the
// recursive QI production dominates the join.
func coldShapeCorpus(tb testing.TB) [][]*token.Token {
	tb.Helper()
	ex, err := formext.New()
	if err != nil {
		tb.Fatal(err)
	}
	screen, err := core.NewParser(grammar.Default(), core.Options{MaxInstances: 20000})
	if err != nil {
		tb.Fatal(err)
	}
	srcs := dataset.Generate(dataset.Config{
		Seed:          7,
		Sources:       40,
		Schemas:       dataset.AllSchemas,
		MinConds:      4,
		MaxConds:      9,
		Hardness:      0.4,
		SampleSchemas: true,
	})
	var corpus [][]*token.Token
	for _, s := range srcs {
		toks := ex.Tokenize(s.HTML)
		res, err := screen.Parse(toks)
		if err != nil {
			tb.Fatal(err)
		}
		if !res.Stats.Truncated {
			corpus = append(corpus, toks)
		}
	}
	if len(corpus) == 0 {
		tb.Fatal("every cold-shape page was screened out")
	}
	return corpus
}

// BenchmarkParseColdShape parses the cold-shape corpus with the production
// configuration; one op is one page.
func BenchmarkParseColdShape(b *testing.B) {
	corpus := coldShapeCorpus(b)
	p, err := core.NewParser(grammar.Default(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(corpus[i%len(corpus)]); err != nil {
			b.Fatal(err)
		}
	}
}
