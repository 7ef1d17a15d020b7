# BLoc reproduction build targets.

GO ?= go

.PHONY: all build test race soak chaos chaos-cells chaos-degrade drill overload stress vet lint bench-build cross ci fuzz bench bench-check perf figures figures-full figures-check clean

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
# drill that back it. Plus the bloc-server process itself, which runs
# every deployment as a fleet (one and two cells served end to end,
# SIGTERM right after the listening line), and the per-cell estimator
# its fix workers share.
chaos-cells:
	$(GO) test -race -count=1 \
		-run 'ChaosCells|Supervisor|Breaker|Fleet|CellKiller|DrainClose|StoreConcurrent|ServerProcess|LocateRungs|LocateConcurrent|TagStateBounded|ExportRestoreRoundTrip|SmoothDt' \
		./internal/locserver/ ./internal/faultnet/ ./internal/durable/ ./cmd/bloc-server/ ./internal/estimator/

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

# Cross-architecture check of the polar row kernel (internal/core): the
# portable Go path must build and vet where the AVX2 assembly does not
# exist (arm64, which also fuses multiply-adds the float32 conversions
# forbid), and the bit-parity, golden and polar-fill tests must hold
# when the compiler may use every AVX2-era instruction (GOAMD64=v3).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/core/
	GOAMD64=v3 $(GO) test -count=1 -run 'KernelPaths|Golden|PolarFill32|MatchReference|Parity|Paint' ./internal/core/

# Everything CI runs, in CI's order.
ci: vet lint bench-build cross figures-check test race soak chaos chaos-cells chaos-degrade drill overload stress

# Native fuzzing smoke pass: the wire protocol, the durable snapshot
# decoder, the CSI row validator against its sort-based oracle and the
# AVX2 polar row kernel against the Go kernel, each over its seed corpus
# (go test allows one -fuzz package per invocation, hence one run each).
# Minimization is capped at 10 executions per new input: with the default
# 60 s budget the row validator's long seed streams spend the whole
# window minimizing its first interesting input.
fuzz:
	$(GO) test -fuzz=. -fuzztime=10s -fuzzminimizetime=10x -run '^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=10s -fuzzminimizetime=10x -run '^$$' ./internal/durable/
	$(GO) test -fuzz=FuzzRowValidator -fuzztime=10s -fuzzminimizetime=10x -run '^$$' ./internal/csi/
	$(GO) test -fuzz=FuzzPolarRow -fuzztime=10s -fuzzminimizetime=10x -run '^$$' ./internal/core/

# Micro-benchmarks (likelihood kernels per row-kernel path + end-to-end
# fix) and the perf report: writes BENCH_3.json with latency, allocation,
# throughput and exact work figures for the steady-state fix path, each
# timing the median of 5 interleaved passes.
bench:
	$(GO) test -run '^$$' -bench 'LocateSingleFix|PolarFill32$$|PolarRow|^BenchmarkLikelihood$$' -benchmem . ./internal/core/
	$(GO) run ./cmd/bloc-bench -exp perf -bench-out BENCH_3.json

# CI smoke: quick perf measurement compared against the committed report;
# fails on compile breakage or a >2x regression of the median pass.
bench-check:
	$(GO) run ./cmd/bloc-bench -exp perf -perf-fixes 10 -check BENCH_3.json

# Perf smoke: the gated vs full-grid fix and per-path row-kernel
# micro-benchmarks plus the quick regression check against the committed
# report — gates both the full-grid and the tracked (prior-gated) median
# latency at 2x.
perf:
	$(GO) test -run '^$$' -bench 'GatedFix|FullGridFix|PolarRow' -benchmem ./internal/core/
	$(GO) run ./cmd/bloc-bench -exp perf -perf-fixes 10 -check BENCH_3.json

# Every table and figure of the paper at reduced scale (~2 min, 1 core).
figures:
	$(GO) run ./cmd/bloc-bench -out results

# The paper's full 1700-position scale (tens of minutes on 1 core).
figures-full:
	$(GO) run ./cmd/bloc-bench -positions 1700 -out results

# Behaviour fingerprint: regenerate the CSVs and PNGs of the six
# experiments that write files (100 positions, seed 7) into a gitignored
# directory and byte-compare them with the golden set in testdata/figures.
# Stdout carries wall-clock fields and is not compared. The bytes hold for
# one Go release on one architecture, named in testdata/figures/TOOLCHAIN:
# math routines and PNG compression may change between releases, arm64
# fuses multiply-adds, and on amd64 math.Exp uses FMA when the CPU has it.
# Another toolchain skips the comparison and says so; CI runs the named
# release. A change that moves a figure regenerates the set and the stamp
# in the same commit:
#   go run ./cmd/bloc-bench -positions 100 -seed 7 -out testdata/figures
#   echo "$(go env GOVERSION) $(go env GOARCH)" > testdata/figures/TOOLCHAIN
figures-check:
	@golden="$$(cat testdata/figures/TOOLCHAIN)"; host="$$($(GO) env GOVERSION) $$($(GO) env GOARCH)"; \
	if [ "$$host" != "$$golden" ]; then \
		echo "figures-check: SKIPPED: testdata/figures holds the bytes of $$golden; this host builds with $$host"; \
		exit 0; \
	fi; \
	rm -rf .figures-check && mkdir .figures-check && echo "$$host" > .figures-check/TOOLCHAIN && \
	for e in fig4 fig6 fig8b fig9a fig12 fig13; do \
		$(GO) run ./cmd/bloc-bench -exp $$e -positions 100 -seed 7 -out .figures-check > /dev/null || exit 1; \
	done && \
	diff -r testdata/figures .figures-check && echo "figures-check: byte-identical to testdata/figures ($$host)"

clean:
	rm -rf results test_output.txt bench_output.txt .figures-check
