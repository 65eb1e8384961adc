# Tier-1 verification: everything must build, vet clean (the nested
# benchmark module included), pass the full test suite under the race
# detector (the concurrent serving path — the shared extractor, batch,
# formserve — is exercised by design), and keep the compiled evaluation
# plan differentially equal to the interpreted oracle.
.PHONY: check fmt build vet bench-vet test parity guards hostile fuzz-smoke grammar-audit bench bench-smoke

check: fmt build vet bench-vet test parity guards

# Every Go file, the nested benchmark module's included, must be
# gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

build:
	go build ./...

vet:
	go vet ./...

# benchmark/ has its own go.mod, so `go build ./...` and `go vet ./...`
# above skip it, yet it imports the internal packages. Vetting it here
# makes an API change that breaks the benchmark fail at check time.
bench-vet:
	cd benchmark && go vet ./...

test:
	go test -race ./...

# Differential gate for the parser's two evaluation modes: the compiled
# per-grammar plan must match the interpreted Expr walker instance-for-
# instance on the example corpus and on fuzz-generated token sets.
parity:
	go test -run TestCompiledParity -count=1 ./internal/core/

# Allocation-budget guards (testing.AllocsPerRun): the cold serving path
# must stay under 100 heap allocations per Qam extraction, and a padded
# crawl page under fixed allocated-bytes and retained-bytes bounds. The
# formcrawl retention guard crawls 10,000 synthetic pages and holds the
# in-flight bound and a flat retained heap. Run without -race on purpose —
# race builds degrade sync.Pool, so the pooled front-end arenas would
# re-allocate and the counts would stop measuring the code.
guards:
	go test -count=1 -run 'AllocationBudget|Allocs|Retention' . ./internal/... ./cmd/formcrawl/

# Containment gate: the hostile-page corpus (adversarial nesting, token
# floods, pathological tables, injected panics and stalls) must be survived
# under the race detector, with a hard timeout so a containment regression
# fails fast instead of hanging the build. The four packages that own
# containment run whole, so no hand-kept test list can drift out of date.
hostile:
	go test -race -timeout 120s -count=1 . ./internal/htmlparse/ ./internal/layout/ ./cmd/formserve/

# Fuzz smoke: ten seconds each of the lexer differential (the zero-copy
# lexer against the reference lexer kept in its tests), the tree builder,
# name interning, the token hand-over (a handed-over token set must survive
# the arena's next page and equal the arena-free tokenization), the
# parser's join-window differential (windowed joins against the full scan
# over boundary layouts) and the tree compaction differential (the maximal
# trees' own compaction against the all-alive one), on top of their seed
# corpora. New crashers land in the package's testdata/fuzz and fail the
# target.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzLexerDifferential$$' -fuzztime 10s ./internal/htmlparse/
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/htmlparse/
	go test -run '^$$' -fuzz '^FuzzInternName$$' -fuzztime 10s ./internal/htmlparse/
	go test -run '^$$' -fuzz '^FuzzTokenHandover$$' -fuzztime 10s ./internal/token/
	go test -run '^$$' -fuzz '^FuzzJoinWindow$$' -fuzztime 10s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzCompactTrees$$' -fuzztime 10s ./internal/core/

# Grammar audit: remove each rule of the default grammar in turn and
# extract the model golden's corpus (1,095 pages) with the rest. Fails on
# any rule whose removal changes no model digest, raises no parse cost
# (instances, constraint evaluations, degradations), keeps the grammar
# valid, drops no token type's only reading and fails no named test. One
# corpus pass per rule: a few minutes.
grammar-audit:
	go test -count=1 -run '^TestGrammarAudit$$' -audit -v -timeout 30m .

# Run every Go benchmark in the module. The recorded end-to-end and
# per-layer figures come from the BENCHMARK.json ledger
# (`bash benchmark/run.sh`), not from these benchmarks.
bench:
	go test -bench=. -benchmem ./...

# One-iteration pass over every benchmark: cheap CI proof that the bench
# harnesses still compile and run.
bench-smoke:
	go test -bench . -benchtime=1x ./...
