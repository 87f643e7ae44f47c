GO ?= go
FUZZTIME ?= 5s
# perf harness knobs (DESIGN.md §11): where `make perf` writes its
# report and which committed baseline `make perfcheck` judges against.
PERF_OUT ?= BENCH_PR5.json
PERF_BASELINE ?= results/perf/baseline.json

.PHONY: build test race raceserve vet allocgate fuzz soak check bench tools clean \
	perf perfcheck profiles docscheck csvcheck tracecheck trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# raceserve is the serving-layer race gate: the batcher/admission
# concurrency machinery, the router/migration machinery, and the
# end-to-end load tests (single-process and cluster), all under the
# race detector (the CI job of the same name).
raceserve:
	$(GO) test -race -count 1 ./internal/serve/... ./internal/core/... ./internal/cluster/...

vet:
	$(GO) vet ./...

# allocgate pins the hot-path allocation budgets (alloc_test.go). It must
# run without -race: the race runtime allocates on the code's behalf, so
# the gates skip themselves under it.
allocgate:
	$(GO) test -run 'TestHeuristicMatchZeroAllocs|TestMatchBatchZeroAllocs|TestLocalizeGroupAllocBudget|TestServeLocalizeAllocBudget|TestStreamDerivationAllocs|TestTraceNilPathZeroAllocs|TestReportDecodeAllocs' -count 1 -v .

# fuzz runs every native fuzz target for FUZZTIME each (one -fuzz
# invocation per target: go test allows a single fuzz target per run).
fuzz:
	$(GO) test -fuzz FuzzVectorDiff -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -fuzz FuzzSimilarity -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -fuzz FuzzGroupVector -fuzztime $(FUZZTIME) ./internal/sampling/
	$(GO) test -fuzz FuzzHeuristicMatch -fuzztime $(FUZZTIME) ./internal/match/
	$(GO) test -fuzz FuzzMatchBatchEquivalence -fuzztime $(FUZZTIME) ./internal/match/
	$(GO) test -fuzz FuzzByzQuorumVote -fuzztime $(FUZZTIME) ./internal/byz/
	$(GO) test -fuzz FuzzRSSMatrixDecode -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzFaultsParse -fuzztime $(FUZZTIME) ./internal/faults/

# soak is the long-running serving load test (minutes, race-enabled);
# not part of check.
soak:
	$(GO) test -race -tags soak -count 1 -run TestLoadSoak -v ./internal/serve/loadtest

# docscheck is the documentation gate: vet, the package-doc-comment
# audit, the reachability audit of internal/ (deadcode_test.go) with its
# self-test, and the runnable facade examples.
docscheck:
	$(GO) vet ./...
	$(GO) test -run 'TestPackageDocComments|TestMissingPackageDocsDetects|TestNoUnreachedInternalFuncs|TestUnreachedFuncsDetects|Example' -count 1 ./...

# csvcheck is the byte-identity gate for the experiment tables that
# results/golden does not cover: it regenerates them into a temporary
# directory and cmps each CSV against the committed copy in results/.
# matchcost, estimator, fig13, ablation and methods exercise the
# exhaustive, top-M, Extended and cold-start matcher paths; lifetime
# exercises the wsnnet energy and forwarding accounting.
CSVCHECK_ONLY = matchcost,estimator,fig13,ablation,methods,lifetime

csvcheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/fttt-bench -only $(CSVCHECK_ONLY) -csv $$tmp > /dev/null && \
	for f in $$tmp/*.csv; do cmp $$f results/$$(basename $$f) || exit 1; done && \
	echo "csvcheck: $$(ls $$tmp/*.csv | wc -l) tables byte-identical"

# tracecheck is the trace smoke of the networked path: a short
# fttt-sim -net run records a flight recording, fttt-trace renders it,
# and the rendering must show the wsnnet collection, pipeline round and
# core localization spans.
tracecheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/fttt-sim -net -seed 7 -duration 20 -trace $$tmp/net.jsonl > /dev/null && \
	$(GO) run ./cmd/fttt-trace show $$tmp/net.jsonl > $$tmp/show.txt && \
	for s in wsnnet/collect_round pipeline/round core/localize; do \
		grep -q "$$s" $$tmp/show.txt || { echo "tracecheck: no $$s span in the net trace"; exit 1; }; \
	done && echo "tracecheck: net trace renders wsnnet, pipeline and core spans"

# check is the full local gate: what CI runs.
check: vet build race raceserve allocgate fuzz docscheck csvcheck tracecheck

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# perf runs the full-depth perfbench suite and writes $(PERF_OUT); use
# it to seed the per-PR trajectory (BENCH_PR<N>.json).
perf:
	$(GO) run ./cmd/fttt-perf run -o $(PERF_OUT)

# perfcheck is the regression gate: run the suite at smoke depth and
# diff against the committed baseline with noise-tolerant thresholds
# (exit 2 on regression). Regenerate the baseline with
# `go run ./cmd/fttt-perf baseline` after an intended perf change.
perfcheck:
	$(GO) run ./cmd/fttt-perf compare -baseline $(PERF_BASELINE)

# profiles captures per-scenario cpu/heap pprof profiles into
# results/perf/profiles/ (quick repetitions; the report goes to stdout
# and is discarded).
profiles:
	$(GO) run ./cmd/fttt-perf run -quick -profiles results/perf/profiles > /dev/null

# trace-demo produces a Perfetto-loadable flight recording from a
# seeded faulted run: load results/trace/demo.trace.json into
# https://ui.perfetto.dev (or chrome://tracing) to walk the span trees.
trace-demo:
	mkdir -p results/trace
	$(GO) run ./cmd/fttt-sim -seed 7 -duration 20 -starfrac 0.6 \
		-faults 'crash at=3 frac=0.3 recover=8; drift sigma=0.05; skew max=0.01' \
		-trace results/trace/demo.jsonl > /dev/null
	$(GO) run ./cmd/fttt-trace chrome results/trace/demo.jsonl -o results/trace/demo.trace.json
	@echo "trace-demo: results/trace/demo.trace.json (load in https://ui.perfetto.dev)"

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
