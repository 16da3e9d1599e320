GO ?= go

.PHONY: check ignored fmt vet build test race bench loc perf perfscale fuzz crash-smoke loadsmoke chaossmoke clustersmoke

## check: the full verification gate — no ignored Go sources, format, vet,
## build, tests, race-mode tests for the concurrent subsystems.
check: ignored fmt vet build test race

## ignored: fail when .gitignore hides a Go source file. An ignored file
## builds in the working tree but never reaches a commit, so a clean
## checkout stops building.
ignored:
	@out="$$(git ls-files --others --ignored --exclude-standard -- '*.go')"; \
	if [ -n "$$out" ]; then \
		echo "Go sources ignored by .gitignore:"; echo "$$out"; exit 1; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the service, durability, ingest, and inference layers under the
## race detector — the concurrency regression gate for internal/serve,
## internal/store, internal/ingest (including the kill-mid-ingest crash
## tests), and the estimation read path. internal/core is narrowed to its
## concurrency tests; the package's randomized property tests are
## exercised by `test` instead.
race:
	$(GO) test -race ./internal/serve/... ./internal/cluster/... ./internal/httpretry/... ./internal/store/... ./internal/ingest/... ./internal/bayesnet/... ./internal/resilience/... ./internal/faults/...
	$(GO) test -race -run TestConcurrent ./internal/core/...

## fuzz: a short fuzzing pass over every decoder untrusted bytes reach —
## the model decoder (core.Decode: store recovery, POST .../load,
## LoadModel), the store's snapshot frame, the ingest wire framing, the
## estimate query parser, and the CSV database reader (the one input
## through which domains wider than 256 values reach the learner) — each
## must return an error or a usable result on arbitrary bytes, never
## panic. Corpus finds land in each package's testdata/fuzz/ for `test` to
## replay forever. FuzzDecode bounds each minimization to 200 runs: its
## seeds reach new code so often that minimizing every new input, up to
## 60 s each by default, took the whole 10 s (about 10k runs instead of
## 170k).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=200x ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzPayload -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzIngestRecord -fuzztime=10s ./internal/ingest
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/queryparse
	$(GO) test -run='^$$' -fuzz=FuzzReadDatabaseCSV -fuzztime=10s ./internal/dataset

## crash-smoke: the durability acceptance check as a live process — start
## prmserved with a store dir and ingest enabled, acknowledge rows that
## live only in the WAL, SIGKILL mid-rebuild, restart, and require instant
## recovery plus every acknowledged row replayed (exact count 54 -> 104).
crash-smoke:
	./scripts/crash_smoke.sh

## loadsmoke: the telemetry acceptance check as a live process — start
## prmserved with an explicit SLO, fire a 10s coordinated-omission-safe
## open-loop burst from prmload, and fail on any non-2xx, a p99 over
## 500ms, or any SLO objective burning; then verify /metrics,
## /debug/requests, and the X-PRM-Trace join are live.
loadsmoke:
	./scripts/load_smoke.sh

## chaossmoke: the resilience acceptance check — prmload's chaos mode runs
## a seeded random fault schedule (slow/failing inference, WAL fsync and
## snapshot-write failures, failing refits) under closed-loop load against
## the in-process stack and fails on any mislabeled degraded answer, any
## unstructured 5xx, a wedged request, or a server that does not recover
## to resilience state normal after the faults clear.
chaossmoke:
	./scripts/chaos_soak.sh

## clustersmoke: the cluster acceptance check as live processes — three
## prmserved replicas behind a prmgate; a rolling rollout must promote and
## pin every response to the new generation, SIGKILL of a replica mid-burst
## must produce only 200s or structured pushback (429/503 + Retry-After),
## the routing ring must converge within the health interval, and operator
## drain/undrain must move traffic without an error.
clustersmoke:
	./scripts/cluster_smoke.sh

## bench: a smoke pass — every benchmark runs exactly once with -benchmem,
## so CI catches benchmarks that no longer compile or crash without paying
## for timing stability. Use `go test -bench=Estimate -benchtime=2s .` for
## real numbers, or `make perf` for the estimation-path report.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

## loc: the size of the root module's non-test Go code (committed files,
## the perfbench module excluded) in lines and packages. Each change
## reports its net delta of this count.
LOC_FILES = git ls-files '*.go' ':!:*_test.go' ':!:perfbench/**'
loc:
	@echo "$$($(LOC_FILES) | xargs cat | wc -l) non-test Go lines in $$($(LOC_FILES) | xargs dirname | sort -u | wc -l) packages"

## perf: the service-level load profile — a 10s open-loop prmload run
## against the in-process serving stack, written to BENCH_PR7.json
## (p50/p99/p99.9, achieved QPS, server SLO state) — plus the perfscale
## sweep below. The repository's benchmark is perfbench/ (see
## BENCHMARK.json).
perf:
	$(GO) run ./cmd/prmload -inprocess -rows 20000 -rate 200 -duration 10s \
		-distinct 256 -slo-latency 500ms -slo-latency-target 0.99 \
		-json BENCH_PR7.json
	$(MAKE) perfscale PERFSCALE_JSON=BENCH_PR10.json

## perfscale: the multi-core scaling profile of the lock-free read path —
## a closed-loop cached-hit sweep at GOMAXPROCS 1/2/4 driving the handler
## directly (no sockets), written to BENCH_PR10.json (QPS + p50/p99 per
## point, scale ratios vs 1 proc). The -min-scale 2.5 gate fails the run
## when 4 cores deliver less than 2.5x the 1-core QPS — the regression
## signal for a lock sneaking back onto the hit path. On hosts with fewer
## cores than the largest sweep point the gate self-skips with a log line
## (the curve is still reported).
PERFSCALE_JSON ?= BENCH_PR10.json
perfscale:
	$(GO) run ./cmd/prmload -inprocess -rows 20000 -distinct 256 \
		-sweep 1,2,4 -sweep-duration 3s -min-scale 2.5 \
		-json $(PERFSCALE_JSON)
