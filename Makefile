GO ?= go

.PHONY: all build test race faultstress schedsoak soaksmoke lint benchsmoke perfsmoke obssmoke alertsmoke tracesmoke replaysmoke clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Hammer the fault-injection path: concurrent deploys, board failures and
# recoveries, and invariant audits, twice, under the race detector.
faultstress:
	$(GO) test -race -count=2 -run 'TestFaultStress' ./internal/sched

# Scheduler soak under the race detector: two single-board tenants racing
# for capacity that only exists after a drain (the TOCTOU regression),
# plus deploy/undeploy churn against the incremental defragmenter with
# the invariant auditor — free-run index included — running mid-flight.
schedsoak:
	$(GO) test -race -count=2 -run 'TestDeploySingleBoardRace|TestConcurrentDefragSoak|TestConcurrentDeployRelocateDefrag' ./internal/sched

# Admission-tier soak, shrunk for CI and run under the race detector.
# First the compile coalescing tests, ten times over: the backend's
# flight and the gateway submits racing into it. Then the soak itself:
# gateway + backend in-process, a few dozen tenants over a skewed design
# mix, asserting compile dedup, audit parity and queue backpressure. The
# latency ceilings are relaxed relative to the full acceptance run
# (`go run ./cmd/vitalscenario soak` with defaults) because the race
# detector and shared CI runners tax wall clock, not correctness.
soaksmoke:
	$(GO) test -race -count=10 -run 'FlightGroup|Coalesce|Singleflight' ./internal/core ./internal/gateway
	$(GO) run -race ./cmd/vitalscenario soak -tenants 40 -ops 80 -concurrency 8 -p99 50ms -submit-p99 3s

# gofmt, vet and the repo's own analyzers. gofmt -l must list nothing:
# any unformatted file fails the run. Then the five analyzers: the
# per-package checks (lockcheck, mapdeterminism) and the whole-program
# ones (lockorder, eventexhaustive, metrichygiene). Known debt lives in
# .vitallint-baseline.json — one entry today, in cmd/vitalperf, which only
# a benchmark-defining change may edit; add no others. Anything else fails the run. CI calls this target, so the
# two can't drift.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/vitallint -baseline .vitallint-baseline.json ./...

# One-iteration benchmarks: cheap CI guard that the harness still builds
# and runs, including the serial cold compile (the cold_compile proof
# benchmark, run with -count 10 for before/after numbers) and the
# 10k-board allocator benchmark. One iteration shows that it runs, not how
# it scales: nothing asserts its sublinearity (`vitalbench -run sched`
# reports the allocator-scaling curve). The telemetry pair renders and
# flattens a 256-tenant gateway-shaped registry (the exposition's
# ns/op and allocs/op before/after numbers come from them, run with
# -benchtime 2s -count 5). The per-stage compile benchmarks price packing,
# synthesis and one block's routing on their own, each in its stage's
# package; -benchmem prints their bytes and allocations per op (synthesis
# bytes/op before/after numbers come from BenchmarkSynthesize, run with
# -count 5). The relay benchmark prices the gateway copying one backend
# response; -benchmem shows the bytes it allocates per relay, over 1 000
# relays so that filling the buffer pool once does not dominate. The
# execute benchmark prices one Execute of each execute_stream app on its
# bound plan (ns/op before/after numbers come from it, run with -count 10);
# -benchmem shows its allocations per call.
benchsmoke:
	$(GO) test -run=NONE -bench='BenchmarkTable2Compile$$|BenchmarkTable2CompileSerial$$|BenchmarkCompileCacheHit|BenchmarkDeploy10kBoards' -benchtime=1x .
	$(GO) test -run=NONE -bench='BenchmarkWritePrometheus$$|BenchmarkSamples$$' -benchtime=1x ./internal/telemetry
	$(GO) test -run=NONE -bench='BenchmarkPack$$|BenchmarkSynthesize$$|BenchmarkRouteBlock$$' -benchmem -benchtime=1x ./internal/partition ./internal/hls ./internal/pnr
	$(GO) test -run=NONE -bench='BenchmarkRelay$$' -benchmem -benchtime=1000x ./internal/gateway
	$(GO) test -run=NONE -bench='BenchmarkExecute$$' -benchmem -benchtime=100x ./internal/core

# End-to-end benchmark smoke through the harness entry BENCHMARK.json
# names: five seconds of sprawl_open — the one vitalperf workload that
# scrapes both tiers beside deploy/undeploy churn — then five of
# execute_stream, whose gate requires every 10000-token call to report the
# model-time statistics its app's first call did, which puts the data
# plane's steady-state fast-forward under an end-to-end exactness check.
# vitalperf exits non-zero when any correctness gate fails (audit parity,
# /verify, both expositions valid, cache misses, model-time drift).
perfsmoke:
	bash bench/run.sh --workload sprawl_open --seed 1 --seconds 5 --trace 0
	bash bench/run.sh --workload execute_stream --seed 1 --seconds 5 --trace 0

# Observability smoke: boot an in-process vitald, deploy over HTTP, scrape
# the Prometheus exposition through the strict validator, and fetch the
# deploy trace. Exits non-zero on the first broken surface.
obssmoke:
	$(GO) run ./cmd/vitalscenario obs

# Alerting smoke: placement-quality report, channel-traffic metrics from a
# live execution, then a board fault observed end to end — fault,
# evacuation and firing alert all arriving over the SSE event stream.
alertsmoke:
	$(GO) run ./cmd/vitalscenario alerts

# Tracing + SLO smoke: a vitalgw gateway in front of the backend, one
# submit reassembled as a single contiguous cross-process trace (gateway
# admission → compile → queue wait → worker deploy), tenant RED/SLO
# series with exemplars in the exposition, then a backend outage driving
# a multi-window burn-rate alert to firing on GET /slo.
tracesmoke:
	$(GO) run ./cmd/vitalscenario trace

# Replay smoke: drive the bundled example tenant mix through an
# in-process gateway+backend stack under the race detector, scraping both
# tiers into a TSDB, then assert (-check) that every *_total series is
# monotone, the utilization curve is non-empty with a nonzero peak, and
# both tiers' Prometheus expositions — vital_tsdb_* self-metrics
# included — pass the strict validator.
replaysmoke:
	$(GO) run -race ./cmd/vitalscenario replay -trace cmd/vitalscenario/testdata/example-trace.json -speed 4 -check -out -

clean:
	$(GO) clean ./...
