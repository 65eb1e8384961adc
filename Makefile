# Tier-1 verification: everything must build, vet clean, pass the
# full test suite under the race detector (the concurrent serving path —
# the shared extractor, batch, formserve — is exercised by design), and
# keep the compiled evaluation plan differentially equal to the
# interpreted oracle.
.PHONY: check build vet test parity guards hostile bench bench-smoke bench-cache bench-frontend bench-parser bench-stream cluster-smoke bench-cluster bench-query

check: build vet test parity guards

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -race ./...

# Differential gate for the parser's two evaluation modes: the compiled
# per-grammar plan must match the interpreted Expr walker instance-for-
# instance on the example corpus and on fuzz-generated token sets.
parity:
	go test -run TestCompiledParity -count=1 ./internal/core/

# Allocation-budget guards (testing.AllocsPerRun): the cold serving path
# must stay under 100 heap allocations per Qam extraction. Run without
# -race on purpose — race builds degrade sync.Pool, so the pooled front-end
# arenas would re-allocate and the counts would stop measuring the code.
guards:
	go test -count=1 -run 'AllocationBudget|Allocs' . ./internal/...

# Containment gate: the hostile-page corpus (adversarial nesting, token
# floods, pathological tables, injected panics and stalls) must be survived
# under the race detector, with a hard timeout so a containment regression
# fails fast instead of hanging the build. The four packages that own
# containment run whole, so no hand-kept test list can drift out of date.
hostile:
	go test -race -timeout 120s -count=1 . ./internal/htmlparse/ ./internal/layout/ ./cmd/formserve/

# Run every Go benchmark in the module. The end-to-end serving and tracing
# figures are BENCHMARK.json's traced run (obs.overhead_us, obs.allocs,
# pipeline.allocs); BENCH_parser.json records the parser hot-path rewrite.
bench:
	go test -bench=. -benchmem ./...

# One-iteration pass over every benchmark: cheap CI proof that the bench
# harnesses still compile and run.
bench-smoke:
	go test -bench . -benchtime=1x ./...

# Extraction-cache benchmarks: the source of BENCH_cache.json (warm hit,
# cold miss, 16-goroutine Zipf mix). The cache correctness tests themselves
# run under -race as part of `make check`.
bench-cache:
	go test -bench 'BenchmarkCachedExtract|BenchmarkCacheColdMiss|BenchmarkCacheParallel' \
		-benchmem -benchtime=2s -run '^$$' .

# Front-end hot-path benchmarks: the source of BENCH_frontend.json (PR 8's
# arena DOM / zero-copy lexer / pooled layout rewrite). Stage benchmarks run
# in their packages, the end-to-end serving cost at the root; benchjson
# merges the checked-in pre-rewrite baseline and emits the before/after
# record.
bench-frontend:
	{ go test -run '^$$' -bench 'LexQam|DOMBuildQam|DecodeEntities' -benchmem -count 3 ./internal/htmlparse/ ; \
	  go test -run '^$$' -bench 'LayoutQam$$' -benchmem -count 3 ./internal/layout/ ; \
	  go test -run '^$$' -bench 'TokenizeQam' -benchmem -count 3 ./internal/token/ ; \
	  go test -run '^$$' -bench 'PoolExtract$$' -benchtime 3000x -count 3 -benchmem . ; } \
	| go run ./cmd/benchjson \
	  -description "Front-end hot-path benchmarks before/after the arena rewrite (PR 8): byte-based zero-copy lexer with interned tag/attr names, slab-arena DOM nodes, pooled layout boxes and scratch, arena tokens fused with the layout traversal, and []byte plumbed end to end so cache-key hashing and lexing share one buffer. The end-to-end BenchmarkPoolExtract residue is the core 2P parse plus GC on the retained result graph; its allocation budget is guarded by TestColdExtractAllocationBudget (< 100 allocs/op). bytes_per_op rises where slab blocks replace many small allocations: the arenas trade allocation count for block size, and Result.Freeze accounts the retained blocks in cache cost." \
	  -methodology "make bench-frontend: stage benchmarks with -benchmem -count 3 in their packages, BenchmarkPoolExtract with -benchtime 3000x -count 3 at the root. The before file (testdata/bench_frontend_before.txt) was recorded by running the same benchmarks against the pre-rewrite front end on the same machine; its BenchmarkPoolExtract entries are the PR 3 record from BENCH_parser.json." \
	  -before testdata/bench_frontend_before.txt > BENCH_frontend.json
	cat BENCH_frontend.json

# Parser hot-path benchmarks: the source of BENCH_parser.json (PR 9's
# conjunct-tiered, pair-memoized, slab-compacted parse). The baseline file
# carries a schema header naming the benchmark set it was recorded with;
# the gate below fails the target when the header does not match, so a
# future change to the bench set cannot silently diff against figures from
# a different era (exactly what happened when PR 3's PoolExtract numbers
# survived into the post-PR 8 record).
bench-parser:
	@head -n 1 testdata/bench_parser_before.txt | grep -qxF '# schema: formext-bench-parser/v2' || { \
	  echo 'bench-parser: testdata/bench_parser_before.txt does not carry the current "# schema: formext-bench-parser/v2" header;'; \
	  echo 'the baseline predates the current benchmark set — re-record it from the pre-change tree before comparing.'; \
	  exit 1; }
	{ go test -run '^$$' -bench . -benchtime 3x -count 3 -benchmem ./internal/core/ ; \
	  go test -run '^$$' -bench 'PoolExtract$$' -benchtime 3000x -count 3 -benchmem . ; } \
	| go run ./cmd/benchjson \
	  -description "Parser hot-path benchmarks before/after the PR 9 rewrite: compiled constraints decomposed into per-slot conjunct tiers evaluated the moment their last variable binds (predicate pushdown prunes the join enumeration), tiers ordered within each slot by measured reject-rate/cost, preference verdicts memoized per (preference, instance pair) in a pooled epoch-stamped table, join candidate lists trimmed by per-symbol dead counters, and the frozen Result compacted into exact-size storage while the engine recycles its instance/child slabs across parses. The before column is the post-PR 8 tree (arena front end, monolithic compiled constraints); wall time is roughly flat on this box while retained bytes drop ~2x on the full-corpus parse and ~44% on the serving path." \
	  -methodology "make bench-parser: go test -run '^$$' -bench . -benchtime 3x -count 3 -benchmem ./internal/core/ plus BenchmarkPoolExtract with -benchtime 3000x -count 3 at the package root. The before file (testdata/bench_parser_before.txt) was recorded with the same commands at commit 5e79440, immediately before this rewrite; its first line is a schema header this target verifies before comparing." \
	  -before testdata/bench_parser_before.txt > BENCH_parser.json
	cat BENCH_parser.json

# Streaming-ingest gate: race-gated soak of the ExtractStream path (the
# bounded in-flight, backpressure, dedup and differential ExtractAll tests),
# then a 100k-page synthetic crawl through cmd/formcrawl proving the
# admission bound and a flat memory ceiling — its report is BENCH_stream.json.
bench-stream:
	go test -race -timeout 300s -count=1 \
		-run 'TestExtractStream|TestExtractAll' . ./cmd/formcrawl/
	go run ./cmd/formcrawl -synthetic 100000 -max-inflight 32 \
		-mem-ceiling 1024 -progress 20000 > BENCH_stream.json
	cat BENCH_stream.json

# Cluster gate: the sharded-fleet tier under the race detector — ring
# distribution and stability, peer-fetch retry/ejection/revival, the
# 3-peer in-process fleet (exactly-one-extraction routing, readiness
# drain) and the peer-kill smoke scenario, with a hard timeout so a
# dead-peer regression fails fast instead of hanging the build. The
# golden-key test rides along: sharding is only sound while every build
# derives byte-identical cache keys.
cluster-smoke:
	go test -race -timeout 300s -count=1 \
		-run 'TestCluster|TestReadyz|TestPeersRequireSelf|TestGoldenKey' \
		./cmd/formserve/ .
	go test -race -timeout 300s -count=1 ./internal/cluster/

# Query-mediation benchmark: the source of BENCH_query.json. Builds three
# generated domains (models extracted by the real pipeline), drives a
# routed/translated query workload against live simulated backends, scores
# routing precision/recall and answer completeness/soundness against the
# ground-truth record oracle, then kills one source mid-run and proves the
# degradation contract (zero query errors, non-empty Degraded). The target
# itself fails when routing P/R drops below 0.9 on noise-free domains.
# The checked-in baseline carries a schema header naming the report format
# it was recorded with; the gate below fails the target when the header
# does not match, so a future change to the formquery report cannot
# silently diff against figures from a different era (same discipline as
# bench-parser).
bench-query:
	@head -n 1 testdata/bench_query_baseline.txt | grep -qxF '# schema: formext-bench-query/v1' || { \
	  echo 'bench-query: testdata/bench_query_baseline.txt does not carry the current "# schema: formext-bench-query/v1" header;'; \
	  echo 'the baseline predates the current report format — re-record it from the pre-change tree before comparing.'; \
	  exit 1; }
	go run ./cmd/formquery -domains Books,Airfares,Automobiles \
		-per-domain 4 -queries 60 -kill > BENCH_query.json
	cat BENCH_query.json

# Cluster benchmark: launch a real 3-process formserve fleet on local
# ports, drive a Zipf-skewed corpus through it (stampede phase), then
# SIGKILL one peer mid-run and keep driving the survivors — the report
# (fleet-wide hit rate, per-phase tail latency, fallback/ejection counts)
# is BENCH_cluster.json.
# Sized so each phase sends >100 requests per corpus page: the floor on
# the fleet-wide hit rate is 1 - corpus/requests, and the acceptance bar
# is >= 0.99.
bench-cluster:
	go run ./cmd/formbench -fleet 3 -corpus 256 -requests 60000 \
		-concurrency 32 > BENCH_cluster.json
	cat BENCH_cluster.json
