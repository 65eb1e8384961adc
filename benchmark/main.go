// Command benchmark is formext's benchmark: one command that runs a
// workload against the shipped surfaces (the formserve binary over
// loopback, the root package's streaming engine, the metaquery layer),
// checks the outputs, and prints every metric by name with its unit as the
// last line of standard output.
//
// Usage (from the repository root, normally through benchmark/run.sh,
// which builds formserve and this command first):
//
//	benchmark --workload cold-extract --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the same seeded inputs through each layer's public entry point
// under benchmark-owned spans and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	formserve string // path to the formserve binary
	workers   int    // connections and worker goroutines: nproc
	spanDir   string // where traced runs write their spans
}

// measure is the measured duration of a run's load phases.
func (c *runConfig) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(c *runConfig) (*result, error)
}{
	"cold-extract": {runCold, traceCold},
	"hot-fleet":    {runFleet, traceFleet},
	"crawl":        {runCrawl, traceCrawl},
	"query":        {runQuery, traceQuery},
}

// logf reports progress and diagnostics on standard error; standard output
// carries only the result line.
var logf = log.New(os.Stderr, "benchmark: ", 0).Printf

func main() {
	c := &runConfig{}
	flag.StringVar(&c.workload, "workload", "", "workload: cold-extract, hot-fleet, crawl or query")
	flag.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&c.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	flag.StringVar(&c.formserve, "formserve", ".bench_build/bin/formserve", "formserve binary")
	flag.StringVar(&c.spanDir, "span-dir", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	c.trace = *trace == 1
	c.workers = runtime.NumCPU()
	if c.seconds < 1 {
		c.seconds = 1
	}

	w, ok := workloads[c.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (one of %s)\n", c.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	checkEnvironment(os.Stderr)
	run := w.run
	if c.trace {
		run = w.trace
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// recordedEnv is the environment the committed bounds were measured on.
// A run elsewhere still works, but its figures are flagged rather than
// comparable.
var recordedEnv = environment{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPU: "Intel(R) Xeon(R) Processor"}

type environment struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	CPU        string
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// checkEnvironment logs the environment and flags a mismatch with the one
// the bounds were recorded on.
func checkEnvironment(w io.Writer) {
	env := currentEnvironment()
	fmt.Fprintf(w, "benchmark: environment nproc=%d GOMAXPROCS=%d %s cpu=%q\n", env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPU)
	if env != recordedEnv {
		fmt.Fprintf(w, "benchmark: WARNING environment differs from the recorded one (%+v); figures are not comparable with BENCHMARK.json bounds\n", recordedEnv)
	}
}
