GO ?= go

.PHONY: build test vet fmt-check race race-smoke fuzz fuzz-smoke bench-smoke bench-baseline bench-guard bench-compare serve-smoke examples-smoke staticcheck ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-formatted.
fmt-check:
	@out=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Staticcheck over the whole module. Uses an installed binary when one is
# on PATH; otherwise runs it through the module cache (needs network the
# first time). Pinned so CI results are reproducible.
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Race-detector pass over the full module. The engine fans per-vault work
# out to a worker pool; this tier-1 step proves the parallel sections are
# data-race-free at real concurrency even on single-core CI hosts
# (explicit Parallelism > 1 is not capped by GOMAXPROCS).
race:
	$(GO) test -race ./...

# Focused race re-runs: the pooled-lifecycle determinism contract, and
# the CPU system's golden reports and plan manifests at Parallelism 1
# (LLC stage inline) against Parallelism 4 (LLC stage on its own
# goroutine). Go splits -run patterns at unbracketed slashes, hence the
# group around the two test names. The MapReduce and BSP goldens run the
# shared vault shuffle at Parallelism 1 and 4. The serve test scrapes the
# scheduler's metrics, tenants and flight ring while its workers run.
race-smoke:
	$(GO) test -race -count=2 -run TestConcurrentRunDeterminism ./internal/simulate/
	$(GO) test -race -run '(TestGoldenDeterminism|TestPlanManifestDeterminism)/CPU' ./internal/simulate/
	$(GO) test -race -run 'TestMapReduceGolden|TestBSPGolden' ./internal/mapreduce/ ./internal/bsp/
	$(GO) test -race -run TestConcurrentIntrospection ./internal/serve/

# Short fuzzing sweep over the multiset-digest and operator round-trip
# properties plus the no-panic boundary of simulate.Run and RunPlan (the
# seed corpora already run as regressions under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzSameMultiset -fuzztime=10s ./internal/tuple/
	$(GO) test -fuzz=FuzzPartitionRoundTrip -fuzztime=10s ./internal/operators/
	$(GO) test -fuzz=FuzzRadixRoundTrip -fuzztime=10s ./internal/operators/
	$(GO) test -run='^$$' -fuzz=FuzzRunNoPanic -fuzztime=30s ./internal/simulate/

# CI's fuzz step: 30 s of live fuzzing over the no-panic boundary of
# simulate.Run and RunPlan alone.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRunNoPanic -fuzztime=30s ./internal/simulate/

# One-iteration smoke pass over every benchmark in the module, the root
# package's and the micro-benchmarks under internal/ alike (CI keeps this
# fast). Timing is not asserted here: perfbench (BENCHMARK.json) is the
# benchmark of record and bench-guard the regression gate.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Re-record the benchmark baseline (run on the reference machine;
# benchguard compares ns/op only on the same CPU model, and bytes/op and
# allocs/op on any CPU but only under the same Go release): the
# disabled-metrics overhead benchmark, the fused/staged query-plan
# end-to-end runs, and the pooled-lifecycle and serve-scheduler
# benchmarks. Every guard run uses -cpu 1, as allocation depends on
# GOMAXPROCS.
bench-baseline:
	( $(GO) test -cpu 1 -bench='BenchmarkObsOverhead|BenchmarkPlanJoinAggSort' -benchtime=5x -count=3 -run=^$$ . ; \
	  $(GO) test -cpu 1 -bench='BenchmarkPooledRun|BenchmarkServeQPS' -benchtime=100x -count=3 -run=^$$ . ; \
	  $(GO) test -cpu 1 -bench=BenchmarkObsWindowOverhead -benchtime=20000x -count=5 -run=^$$ . ) \
	  | $(GO) run ./cmd/benchjson > BENCH_BASELINE.json
	@echo wrote BENCH_BASELINE.json

# Fail if the nil-registry (observability disabled) path got >5% slower,
# or any query-plan run, rolling-window record, or serve-scheduler
# batch got >10% slower, than the recorded baseline. The
# pooled single-run bench gets a looser 25% bound: a pooled run is
# sub-millisecond, so host noise that washes out over a ServeQPS batch
# shows up directly there. Both sides run -count=3 and benchguard keeps
# each benchmark's fastest repetition: steal time, GC pauses and noisy
# neighbors only ever add time, so min-of-N is the stable estimate on a
# shared host. Any guarded benchmark whose bytes/op or allocs/op rose
# more than 1% fails on any runner with the baseline's Go release. Guard
# output stays out of the repo.
bench-guard:
	$(GO) test -cpu 1 -bench='BenchmarkObsOverhead$$' -benchtime=5x -count=3 -run=^$$ . | $(GO) run ./cmd/benchjson > /tmp/bench_obs_current.json
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_obs_current.json
	$(GO) test -cpu 1 -bench=BenchmarkObsWindowOverhead -benchtime=20000x -count=5 -run=^$$ . | $(GO) run ./cmd/benchjson > /tmp/bench_window_current.json
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_window_current.json -match '^BenchmarkObsWindowOverhead' -threshold 0.10
	$(GO) test -cpu 1 -bench=BenchmarkPlanJoinAggSort -benchtime=5x -count=3 -run=^$$ . | $(GO) run ./cmd/benchjson > /tmp/bench_plan_current.json
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_plan_current.json -match '^BenchmarkPlanJoinAggSort' -threshold 0.10
	$(GO) test -cpu 1 -bench='BenchmarkPooledRun|BenchmarkServeQPS' -benchtime=100x -count=3 -run=^$$ . | $(GO) run ./cmd/benchjson > /tmp/bench_serve_current.json
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_serve_current.json -match '^BenchmarkServeQPS' -threshold 0.10
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_serve_current.json -match '^BenchmarkPooledRun' -threshold 0.25

# Print baseline-vs-current per-op ratios for every guarded benchmark
# (no failure thresholds — a human-readable drift report).
bench-compare:
	( $(GO) test -cpu 1 -bench='BenchmarkObsOverhead$$|BenchmarkPlanJoinAggSort' -benchtime=5x -run=^$$ . ; \
	  $(GO) test -cpu 1 -bench='BenchmarkPooledRun|BenchmarkServeQPS' -benchtime=100x -run=^$$ . ; \
	  $(GO) test -cpu 1 -bench=BenchmarkObsWindowOverhead -benchtime=20000x -run=^$$ . ) \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_compare_current.json
	$(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json -current /tmp/bench_compare_current.json \
	  -match '^Benchmark(ObsOverhead|ObsWindowOverhead|PlanJoinAggSort|PooledRun|ServeQPS)' -report

# End-to-end daemon smoke: boot mondrian-serve on an ephemeral port,
# curl /healthz, /metrics, /tenants and /flightrecorder, require live
# (non-zero) rolling-window percentiles, then shut down via SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Run every program under examples/ once; fail on a non-zero exit or on
# a ✗ (a failed verification row) anywhere in its output. Each example
# finishes in seconds.
examples-smoke:
	@for ex in examples/*/; do \
		echo "== $$ex"; \
		out=$$($(GO) run ./$$ex 2>&1) || { echo "$$out"; echo "$$ex exited non-zero"; exit 1; }; \
		if printf '%s\n' "$$out" | grep -q '✗'; then echo "$$out"; echo "$$ex reported ✗"; exit 1; fi; \
	done

# ci mirrors .github/workflows/ci.yml: tier-1 format check, build, vet
# and test, the race pass and the focused race smoke, the examples
# smoke, the fuzz smoke, the benchmark smoke, the serve smoke and the
# benchmark guard, then the perfbench module's vet and tests (its own
# module, so `go vet ./...` and `go test ./...` skip it). It leaves out
# the workflow's staticcheck step, which needs the network unless a
# staticcheck binary is installed: run `make staticcheck` for it.
ci: fmt-check test vet race race-smoke examples-smoke fuzz-smoke bench-smoke serve-smoke bench-guard
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
