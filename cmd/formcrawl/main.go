// Command formcrawl is the crawl-scale ingest front end over
// ExtractStream: it feeds an unbounded stream of pages — a fixture tree on
// disk, or a synthetic corpus generated on the fly — through the streaming
// extraction pipeline at full concurrency, under per-source rate limits and
// a hard in-flight/memory ceiling, and reports sustained throughput with
// proof the admission bound held.
//
// Usage:
//
//	formcrawl -seed-tree DIR -dataset basic     # write a fixture tree
//	formcrawl -root DIR                         # crawl a fixture tree
//	formcrawl -synthetic 100000                 # crawl generated pages
//
// The report is one JSON object on stdout: pages, forms detected,
// extraction outcomes, pages/sec, the peak in-flight count against the
// configured bound, and the peak heap against the configured ceiling.
// TestSyntheticCrawlRetention holds the bound and a flat retained heap.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"formext"
	"formext/internal/dataset"
	"formext/internal/survey"
)

func main() {
	cfg := parseFlags(os.Args[1:], os.Stderr)
	if err := run(context.Background(), cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "formcrawl:", err)
		os.Exit(1)
	}
}

type crawlConfig struct {
	root       string
	seedTree   string
	datasetN   string
	synthetic  int
	seed       int64
	workers    int
	maxInFly   int
	rate       float64
	burst      int
	memCeilMB  int
	progressEv int
	cacheBytes int64
	cacheTTL   time.Duration
	classify   bool
}

func parseFlags(args []string, errw io.Writer) crawlConfig {
	fs := flag.NewFlagSet("formcrawl", flag.ExitOnError)
	fs.SetOutput(errw)
	var cfg crawlConfig
	fs.StringVar(&cfg.root, "root", "", "fixture tree to crawl (top-level directory = source)")
	fs.StringVar(&cfg.seedTree, "seed-tree", "", "write a per-domain fixture tree here and exit")
	fs.StringVar(&cfg.datasetN, "dataset", "basic", "dataset preset for -seed-tree")
	fs.IntVar(&cfg.synthetic, "synthetic", 0, "crawl N synthetic pages generated on the fly instead of a tree")
	fs.Int64Var(&cfg.seed, "seed", 97, "generation seed for -synthetic")
	fs.IntVar(&cfg.workers, "workers", 0, "concurrent extractions (default GOMAXPROCS)")
	fs.IntVar(&cfg.maxInFly, "max-inflight", 0, "in-flight page bound (default 2x workers)")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-source admission rate in pages/sec (0 = unlimited)")
	fs.IntVar(&cfg.burst, "burst", 4, "per-source burst allowance for -rate")
	fs.IntVar(&cfg.memCeilMB, "mem-ceiling", 0, "abort the crawl when heap exceeds this many MiB (0 = no ceiling)")
	fs.IntVar(&cfg.progressEv, "progress", 0, "log progress to stderr every N pages (0 = quiet)")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 0,
		"content-addressed extraction cache budget: byte-identical pages recurring across sources are answered without re-extraction (0 disables)")
	fs.DurationVar(&cfg.cacheTTL, "cache-ttl", 0, "lifetime bound for cached extraction results (0 = until evicted)")
	fs.BoolVar(&cfg.classify, "classify", true,
		"classify each extracted interface into a domain by its attribute vocabulary")
	fs.Parse(args)
	return cfg
}

// report is the crawl summary, written as one JSON object. PeakInFlight
// against MaxInFlight and PeakHeapBytes against MemCeilingBytes are the
// bounded-memory evidence: the former is read from the stream's own gauge,
// the latter sampled from runtime.ReadMemStats over the whole run.
type report struct {
	Description   string `json:"description"`
	Mode          string `json:"mode"`
	Pages         int64  `json:"pages"`
	FormsDetected int64  `json:"forms_detected"`
	Extracted     int64  `json:"extracted"`
	Failed        int64  `json:"failed"`
	Coalesced     int64  `json:"coalesced"`
	// CacheHits counts pages answered from the content-addressed cache —
	// byte-identical pages recurring across (or within) sources, beyond the
	// simultaneous in-flight duplicates Coalesced already collapses. Only
	// nonzero with -cache-bytes > 0.
	CacheHits  int64 `json:"cache_hits"`
	Degraded   int64 `json:"degraded"`
	Conditions int64 `json:"conditions"`
	// Domains counts extracted interfaces per classified domain — the
	// crawl's yield broken down by what kind of deep-web source each page
	// is, from the vocabulary classifier trained on the generator's ground
	// truth. Unclassified counts interfaces below the classifier's floor.
	Domains      map[string]int64 `json:"domains,omitempty"`
	Unclassified int64            `json:"unclassified,omitempty"`
	// DomainAccuracy is the classified fraction that matched the page's
	// known true domain (synthetic pages and seeded trees carry one);
	// omitted when no page had a known domain.
	DomainAccuracy  float64 `json:"domain_accuracy,omitempty"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	PagesPerSec     float64 `json:"pages_per_sec"`
	Workers         int     `json:"workers"`
	MaxInFlight     int     `json:"max_in_flight"`
	PeakInFlight    int64   `json:"peak_in_flight"`
	RatePerSource   float64 `json:"rate_per_source,omitempty"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
	MemCeilingBytes uint64  `json:"mem_ceiling_bytes,omitempty"`
	Aborted         bool    `json:"aborted"`
	GoMaxProcs      int     `json:"gomaxprocs"`
}

func run(ctx context.Context, cfg crawlConfig, out, errw io.Writer) error {
	if cfg.seedTree != "" {
		return seedTree(cfg.seedTree, cfg.datasetN, out)
	}
	if (cfg.root == "") == (cfg.synthetic <= 0) {
		return fmt.Errorf("exactly one of -root or -synthetic required")
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxInFlight := cfg.maxInFly
	if maxInFlight <= 0 {
		maxInFlight = 2 * workers
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Memory ceiling: sample the heap for the whole run; blowing the ceiling
	// cancels the crawl rather than letting it OOM, and the peak goes into
	// the report either way.
	var peakHeap atomic.Uint64
	var aborted atomic.Bool
	ceiling := uint64(cfg.memCeilMB) * 1 << 20
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap.Load() {
				peakHeap.Store(ms.HeapAlloc)
			}
			if ceiling > 0 && ms.HeapAlloc > ceiling {
				aborted.Store(true)
				cancel()
				return
			}
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
		}
	}()

	rep := report{
		Mode:        "tree",
		Workers:     workers,
		MaxInFlight: maxInFlight,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	if cfg.synthetic > 0 {
		rep.Mode = "synthetic"
		rep.Description = fmt.Sprintf("streaming crawl of %d generated pages (seed %d)", cfg.synthetic, cfg.seed)
	} else {
		rep.Description = fmt.Sprintf("streaming crawl of fixture tree %s", cfg.root)
	}
	rep.RatePerSource = cfg.rate
	rep.MemCeilingBytes = ceiling

	// The producer goroutine feeds pages under the per-source rate limits;
	// ExtractStream's admission bound supplies the backpressure that keeps
	// it from running ahead of the extractors.
	// Classification: a vocabulary classifier trained on the generator's
	// ground truth (a fixed-seed corpus covering every schema), plus the
	// true domain of each admitted page — the feed knows it (the synthetic
	// generator's schema, or a seeded tree's top-level directory) and the
	// result loop scores against it.
	var classifier *survey.Classifier
	var trueDomain sync.Map // page ID → domain string
	if cfg.classify {
		var training []dataset.Source
		for i, schema := range dataset.AllSchemas {
			training = append(training, dataset.Generate(dataset.Config{
				Seed: 7000 + int64(i), Sources: 4,
				Schemas: []dataset.Schema{schema}, MinConds: 4, MaxConds: 10,
			})...)
		}
		classifier = survey.NewClassifier(training, 0)
		rep.Domains = map[string]int64{}
	}

	gauge := &formext.StreamGauge{}
	pages := make(chan formext.Page)
	var formsDetected atomic.Int64
	feedErr := make(chan error, 1)
	go func() {
		defer close(pages)
		limits := newLimiters(cfg.rate, cfg.burst)
		feed := func(source, id, html string) error {
			if err := limits.wait(ctx, source); err != nil {
				return err
			}
			if !hasForm(html) {
				return nil
			}
			if classifier != nil && source != "" {
				trueDomain.Store(id, source)
			}
			formsDetected.Add(1)
			select {
			case pages <- formext.Page{ID: id, HTML: html}:
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil
		}
		var err error
		if cfg.synthetic > 0 {
			err = feedSynthetic(ctx, cfg, feed)
		} else {
			err = feedTree(ctx, cfg.root, feed)
		}
		if err != nil && ctx.Err() == nil {
			feedErr <- err
		}
		close(feedErr)
	}()

	start := time.Now()
	var opts formext.Options
	if cfg.cacheBytes > 0 {
		cache, err := formext.NewCache(formext.CacheConfig{
			MaxBytes: cfg.cacheBytes,
			TTL:      cfg.cacheTTL,
		})
		if err != nil {
			return err
		}
		opts.Cache = cache
	}
	results := formext.ExtractStream(ctx, pages, formext.StreamOptions{
		Options:     opts,
		Workers:     workers,
		MaxInFlight: maxInFlight,
		Gauge:       gauge,
	})
	var domCorrect, domTotal int64
	for pr := range results {
		rep.Pages++
		if pr.Err != nil {
			rep.Failed++
		} else {
			rep.Extracted++
			if pr.Result.Stats.CacheHit {
				rep.CacheHits++
			}
			if pr.Result.Stats.Coalesced {
				rep.Coalesced++
			}
			if len(pr.Result.Stats.Degraded) > 0 {
				rep.Degraded++
			}
			rep.Conditions += int64(len(pr.Result.Model.Conditions))
			if classifier != nil {
				domain, _ := classifier.ClassifyConditions(pr.Result.Model.Conditions)
				if domain == "" {
					rep.Unclassified++
				} else {
					rep.Domains[domain]++
				}
				if want, ok := trueDomain.LoadAndDelete(pr.ID); ok && domain != "" {
					domTotal++
					if domain == want.(string) {
						domCorrect++
					}
				}
			}
		}
		if cfg.progressEv > 0 && rep.Pages%int64(cfg.progressEv) == 0 {
			fmt.Fprintf(errw, "formcrawl: %d pages, %d in flight, %.1f MiB heap\n",
				rep.Pages, gauge.InFlight(), float64(peakHeap.Load())/(1<<20))
		}
	}
	elapsed := time.Since(start)
	cancel()
	<-samplerDone
	// One last sample so a peak between ticks still registers.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peakHeap.Load() {
		peakHeap.Store(ms.HeapAlloc)
	}

	if err, ok := <-feedErr; ok && err != nil {
		return err
	}
	rep.FormsDetected = formsDetected.Load()
	rep.ElapsedSec = elapsed.Seconds()
	if rep.ElapsedSec > 0 {
		rep.PagesPerSec = float64(rep.Pages) / rep.ElapsedSec
	}
	rep.PeakInFlight = gauge.Peak()
	rep.PeakHeapBytes = peakHeap.Load()
	rep.Aborted = aborted.Load()
	if domTotal > 0 {
		rep.DomainAccuracy = float64(domCorrect) / float64(domTotal)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Aborted {
		return fmt.Errorf("crawl aborted: heap exceeded the %d MiB ceiling", cfg.memCeilMB)
	}
	return nil
}

// feedSynthetic streams generated pages without ever materializing the
// corpus: dataset.NewStream renders one source at a time and the page
// string is released to the pipeline immediately.
func feedSynthetic(ctx context.Context, cfg crawlConfig, feed func(source, id, html string) error) error {
	st := dataset.NewStream(dataset.Config{
		Seed:          cfg.seed,
		Sources:       cfg.synthetic,
		Schemas:       dataset.AllSchemas,
		MinConds:      2,
		MaxConds:      6,
		Hardness:      0.35,
		SampleSchemas: true,
	})
	for {
		src, ok := st.Next()
		if !ok {
			return nil
		}
		if err := feed(src.Domain, src.ID, src.HTML); err != nil {
			return err
		}
	}
}

// feedTree walks a fixture tree and feeds every .html file, reading each
// page only when its turn comes so the tree never loads into memory at
// once. The source of a page is its top-level directory ("" for files at
// the root).
func feedTree(ctx context.Context, root string, feed func(source, id, html string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if d.IsDir() || !strings.HasSuffix(path, ".html") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		source := ""
		if i := strings.IndexByte(filepath.ToSlash(rel), '/'); i >= 0 {
			source = rel[:i]
		}
		html, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return feed(source, rel, string(html))
	})
}

// seedTree writes a per-domain fixture tree (DIR/Domain/ID.html) from a
// dataset preset — the corpus -root crawls.
func seedTree(dir, name string, out io.Writer) error {
	srcs, ok := dataset.ByName(name)
	if !ok {
		return fmt.Errorf("unknown dataset %q (want one of %s)", name, strings.Join(dataset.DatasetNames, ", "))
	}
	for _, s := range srcs {
		d := filepath.Join(dir, s.Domain)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(d, s.ID+".html"), []byte(s.HTML), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "seeded %d sources under %s\n", len(srcs), dir)
	return nil
}

// hasForm reports whether the page contains a <form tag, scanning without
// allocating — the crawl's cheap detection pass before a page is admitted
// to the extraction pipeline.
func hasForm(s string) bool {
	for i := 0; i+5 <= len(s); i++ {
		if s[i] == '<' &&
			s[i+1]|0x20 == 'f' &&
			s[i+2]|0x20 == 'o' &&
			s[i+3]|0x20 == 'r' &&
			s[i+4]|0x20 == 'm' {
			return true
		}
	}
	return false
}

// limiters is the per-source token-bucket rate limiter: each source earns
// rate tokens per second up to burst, and a page waits until its source has
// a token. rate <= 0 disables limiting.
type limiters struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiters(rate float64, burst int) *limiters {
	if burst < 1 {
		burst = 1
	}
	return &limiters{rate: rate, burst: float64(burst), buckets: make(map[string]*bucket)}
}

func (l *limiters) wait(ctx context.Context, source string) error {
	if l.rate <= 0 {
		return nil
	}
	for {
		l.mu.Lock()
		b := l.buckets[source]
		now := time.Now()
		if b == nil {
			b = &bucket{tokens: l.burst, last: now}
			l.buckets[source] = b
		}
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
		if b.tokens >= 1 {
			b.tokens--
			l.mu.Unlock()
			return nil
		}
		wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
		l.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}
