# BLoc reproduction build targets.

GO ?= go

.PHONY: all build test race soak chaos chaos-cells chaos-degrade drill overload stress vet lint bench-build ci fuzz bench bench-check perf figures figures-full clean

all: vet lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short soak: the fault-injection and quorum scenarios repeated under the
# race detector to shake out timing-dependent bugs.
soak:
	$(GO) test -race -count=3 -run 'Soak|Fault|Quorum|Reconnect|Heartbeat' \
		./internal/locserver/ ./internal/anchor/ ./internal/faultnet/

# Chaos soak: the data-quality plane under seeded CSI corruption — the
# faultnet injectors (NaN, stuck tones, CFO drift, silent garbage), the
# quarantine/re-election state machine and the master-death drill, all
# repeated under the race detector. Deterministic: every fault decision
# comes from seeded PCG streams.
chaos:
	$(GO) test -race -count=3 -run 'Corrupter|Quality|Health|Reelection|FaultDrill' \
		./internal/locserver/ ./internal/csi/ ./internal/faultnet/

# Cell-kill chaos drill: the supervised fleet (DESIGN.md §15) under the
# race detector — a cell killed mid-10×-burst by a scheduled panic must
# leave surviving cells bit-identical to a no-fault run, degrade its own
# tags to flagged coarse neighbor fixes while down, warm-restart from
# its last checkpoint inside the backoff budget, and match the injected
# schedule on every restart/panic/breaker counter. Plus the supervisor
# state machine, the per-link circuit breaker, the fleet router, the
# shutdown idempotence regressions and the durable-store concurrency
# drill that back it.
chaos-cells:
	$(GO) test -race -count=1 \
		-run 'ChaosCells|Supervisor|Breaker|Fleet|CellKiller|DrainClose|StoreConcurrent' \
		./internal/locserver/ ./internal/faultnet/ ./internal/durable/

# Degradation-ladder chaos drill (DESIGN.md §16) under the race detector:
# a scripted fault schedule walks a fingerprint-enabled server down every
# rung in order — gated CSI, full CSI, fingerprint, centroid — and the
# drill asserts the served tier, the hysteretic demotion/holdback/
# promotion transitions and the per-tier counters match the injected
# schedule exactly; plus the no-survey control, the overload demotion
# site, the fleet fallback tier + dropped-bucket accounting, the
# downtime TCP ingress regression and the concurrent half-open breaker
# probe contract.
chaos-degrade:
	$(GO) test -race -count=1 -run 'ChaosDegrade' ./internal/locserver/

# Durability drills: the snapshot codec/store suite plus the
# kill-and-restart, snapshot-corruption and graceful-drain scenarios,
# repeated under the race detector (DESIGN.md §11).
drill:
	$(GO) test -race -count=2 ./internal/durable/
	$(GO) test -race -count=2 -run 'Restart|Drain|SnapCorrupt|Restore|NonFinite' \
		./internal/locserver/ ./internal/faultnet/ ./internal/core/ ./internal/track/

# Overload drills: the serving plane under a seeded 10× tag burst with
# slow anchors — admission control, load shedding, deadline budgets and
# the straggler/laggy state machine, repeated under the race detector
# (DESIGN.md §12).
overload:
	$(GO) test -race -count=2 \
		-run 'Overload|Laggy|ServeMode|Shed|Budget|FixQueue|Adaptive|TeardownRace|DelayConn|Burst|Backoff' \
		./internal/locserver/ ./internal/faultnet/ ./internal/anchor/

vet:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$files"; \
		exit 1; \
	fi
	$(GO) vet ./...

# Schedule-perturbation stress: the durability and overload drills plus
# the dedicated stress scenarios, re-run under the race detector across a
# GOMAXPROCS matrix so goroutine interleavings the default schedule never
# produces get exercised (DESIGN.md §13). Override the matrix with e.g.
# `make stress STRESS_PROCS="1 8"`.
STRESS_PROCS ?= 1 2 4
stress:
	@set -e; for gmp in $(STRESS_PROCS); do \
		echo "=== stress: GOMAXPROCS=$$gmp ==="; \
		GOMAXPROCS=$$gmp $(GO) test -race -count=1 \
			-run 'Stress|Overload|TeardownRace|Drain|Restart|FixQueue|Shed|Budget' \
			./internal/locserver/; \
	done

# Domain-aware static analysis: two-phase (package facts, then checks),
# ten analyzers covering units, radians, mutex contracts, float equality,
# goroutine leaks, clock-seam discipline, rand determinism, atomic-field
# consistency, nonblocking-path contracts and condition-variable idioms;
# -unused-ignores keeps the suppression inventory honest. See
# internal/lint and DESIGN.md §8, §13.
lint: build
	$(GO) run ./cmd/bloc-lint -unused-ignores ./...

# The serving benchmark (servebench/) is its own module, so `go test
# ./...` never builds it: vet it against this tree with the environment
# servebench/run.sh uses (no workspace, no inherited build flags).
bench-build:
	cd servebench && GOWORK=off GOFLAGS= $(GO) vet ./...

# Everything CI runs, in CI's order.
ci: vet lint bench-build test race soak chaos chaos-cells chaos-degrade drill overload stress

# Native fuzzing smoke pass: the wire protocol and the durable snapshot
# decoder, each over its seed corpus (go test allows one -fuzz package
# per invocation, hence two runs).
fuzz:
	$(GO) test -fuzz=. -fuzztime=10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=10s -run '^$$' ./internal/durable/

# Micro-benchmarks (likelihood kernels + end-to-end fix) and the perf
# report: writes BENCH_3.json with latency, allocation and throughput
# figures for the steady-state fix path.
bench:
	$(GO) test -run '^$$' -bench 'LocateSingleFix|PolarFill32$$|^BenchmarkLikelihood$$' -benchmem . ./internal/core/
	$(GO) run ./cmd/bloc-bench -exp perf -bench-out BENCH_3.json

# CI smoke: quick perf measurement compared against the committed report;
# fails on compile breakage or a >2x latency regression.
bench-check:
	$(GO) run ./cmd/bloc-bench -exp perf -perf-fixes 10 -check BENCH_3.json

# Perf smoke: the gated vs full-grid fix micro-benchmarks plus the quick
# regression check against the committed report — gates both the
# full-grid and the tracked (prior-gated) latency at 2x.
perf:
	$(GO) test -run '^$$' -bench 'GatedFix|FullGridFix' -benchmem ./internal/core/
	$(GO) run ./cmd/bloc-bench -exp perf -perf-fixes 10 -check BENCH_3.json

# Every table and figure of the paper at reduced scale (~2 min, 1 core).
figures:
	$(GO) run ./cmd/bloc-bench -out results

# The paper's full 1700-position scale (tens of minutes on 1 core).
figures-full:
	$(GO) run ./cmd/bloc-bench -positions 1700 -out results

clean:
	rm -rf results test_output.txt bench_output.txt
