GO ?= go

.PHONY: build test vet race race-smoke fuzz bench bench-smoke bench-baseline bench-guard bench-compare serve-smoke staticcheck ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
# group around the two test names.
race-smoke:
	$(GO) test -race -count=2 -run TestConcurrentRunDeterminism ./internal/simulate/
	$(GO) test -race -run '(TestGoldenDeterminism|TestPlanManifestDeterminism)/CPU' ./internal/simulate/

# Short fuzzing sweep over the multiset-digest and operator round-trip
# properties plus the no-panic boundary of simulate.Run and RunPlan (the
# seed corpora already run as regressions under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzSameMultiset -fuzztime=10s ./internal/tuple/
	$(GO) test -fuzz=FuzzPartitionRoundTrip -fuzztime=10s ./internal/operators/
	$(GO) test -fuzz=FuzzRadixRoundTrip -fuzztime=10s ./internal/operators/
	$(GO) test -run='^$$' -fuzz=FuzzRunNoPanic -fuzztime=30s ./internal/simulate/

# Operator benchmarks (bulk fast path vs per-tuple reference), the host worker-pool scaling sweep, and the fused-vs-staged
# query-plan benchmarks, converted to a benchstat-compatible JSON
# snapshot. `jq -r '.raw[]' BENCH_PR2.json` reconstructs plain
# `go test -bench` output for benchstat. The second step regenerates
# BENCH_PR5.json: one compact run manifest per System × Operator through
# the observability exporter, the structured per-run counter trajectory
# the BENCH_* files track across PRs. The third does the same for whole
# query plans — BENCH_PR8.json holds one manifest per
# System × Plan × fused/staged, so the re-shuffle elisions' exchange-byte
# savings are tracked as data.
bench:
	$(GO) test -bench='BenchmarkOp|BenchmarkEngineParallel|BenchmarkPlan' -benchtime=2x -run=^$$ . | $(GO) run ./cmd/benchjson > BENCH_PR2.json
	@echo wrote BENCH_PR2.json
	rm -f BENCH_PR5.json
	$(GO) run ./cmd/mondrian-bench -small -manifest BENCH_PR5.json
	@echo wrote BENCH_PR5.json
	rm -f BENCH_PR8.json
	$(GO) run ./cmd/mondrian-bench -small -plans -manifest BENCH_PR8.json
	@echo wrote BENCH_PR8.json
	rm -f BENCH_PR9.json
	$(GO) run ./cmd/mondrian-bench -qps BENCH_PR9.json
	@echo wrote BENCH_PR9.json
	$(GO) test -bench=BenchmarkObsWindowOverhead -benchtime=20000x -run=^$$ . | $(GO) run ./cmd/benchjson > BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# One-iteration smoke pass over every benchmark (CI keeps this fast),
# plus a fresh manifest for the CI artifact upload.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	rm -f BENCH_PR5.json
	$(GO) run ./cmd/mondrian-bench -small -manifest BENCH_PR5.json
	rm -f BENCH_PR8.json
	$(GO) run ./cmd/mondrian-bench -small -plans -manifest BENCH_PR8.json
	rm -f BENCH_PR9.json
	$(GO) run ./cmd/mondrian-bench -qps BENCH_PR9.json -qps-requests 64
	$(GO) test -bench=BenchmarkObsWindowOverhead -benchtime=2000x -run=^$$ . | $(GO) run ./cmd/benchjson > BENCH_PR10.json

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

# ci mirrors .github/workflows/ci.yml: tier-1 build+vet+test, then the
# race pass and the focused race smoke.
ci: test vet race race-smoke
