package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"bloc/internal/core"
	"bloc/internal/eval"
)

// perfNumbers is one latency/allocation operating point of the fix path.
type perfNumbers struct {
	NsPerFix     float64 `json:"ns_per_fix"`
	BytesPerFix  float64 `json:"bytes_per_fix"`
	AllocsPerFix float64 `json:"allocs_per_fix"`
}

// workPerFix is the engine's exact work per fix at one operating point
// (core.Stats deltas over the point's fixes): row-kernel complex
// multiply-accumulates and XY cells painted. Unlike the timings it does
// not depend on the host.
type workPerFix struct {
	PolarSamples float64 `json:"polar_samples"`
	CellsPainted float64 `json:"cells_painted"`
}

// perfReport is the JSON document written to -bench-out (BENCH_3.json):
// the frozen pre-optimization baseline, the measured post-optimization
// numbers, the worker-count throughput sweeps of both the full-grid and
// the tracked (prior-gated) paths, the exact work per fix of both paths
// and the engine's counters. Every timed point is the median of Passes
// interleaved passes.
type perfReport struct {
	Baseline    perfNumbers          `json:"baseline"`
	After       perfNumbers          `json:"after"`
	SpeedupX    float64              `json:"speedup_x"`
	Throughput  []eval.PerfResult    `json:"throughput"`
	Tracked     []eval.TrackedResult `json:"tracked,omitempty"`
	FullWork    workPerFix           `json:"full_work_per_fix"`
	TrackedWork workPerFix           `json:"tracked_work_per_fix"`
	Passes      int                  `json:"passes"`
	Stats       core.Stats           `json:"engine_stats"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	Positions   int                  `json:"positions"`
	Seed        uint64               `json:"seed"`
}

// perfPasses is how many interleaved passes time each operating point;
// a point reports its median pass. Single passes of identical code
// spread by more than 2x on a noisy VM, which a 2x gate cannot absorb.
const perfPasses = 5

// workDelta is the per-fix work between two engine snapshots.
func workDelta(before, after core.Stats) workPerFix {
	fixes := after.Fixes - before.Fixes
	if fixes == 0 {
		return workPerFix{}
	}
	n := float64(fixes)
	return workPerFix{
		PolarSamples: float64(after.PolarSamples-before.PolarSamples) / n,
		CellsPainted: float64(after.CellsPainted-before.CellsPainted) / n,
	}
}

// medianPass returns the pass with the median ns/fix (the lower median
// for an even count) and the passes' min–max spread, formatted.
func medianPass[T any](passes []T, ns func(T) float64) (T, string) {
	sorted := append([]T(nil), passes...)
	sort.Slice(sorted, func(i, j int) bool { return ns(sorted[i]) < ns(sorted[j]) })
	return sorted[(len(sorted)-1)/2], fmt.Sprintf("%d passes %.0f–%.0f ns/fix",
		len(sorted), ns(sorted[0]), ns(sorted[len(sorted)-1]))
}

func fullNs(r eval.PerfResult) float64       { return r.NsPerFix }
func trackedNs(r eval.TrackedResult) float64 { return r.NsPerFix }

// runPerf measures the steady-state fix path of one shared engine:
// single-worker latency and allocation rate, then throughput sweeps of
// the full-grid and tracked (prior-gated) paths at 1, 4 and GOMAXPROCS
// workers. Every point runs once per pass, the passes interleaved so
// host drift reaches every point alike, and reports its median pass.
// With -bench-out the report is written as JSON; with -check the
// medians are compared against a committed report and the process
// exits non-zero on a >2x latency regression on either path (the CI
// smoke gate).
func runPerf(seed uint64, fixes int, baseline perfNumbers, cpuprofile, memprofile, benchOut, check string) {
	suite, err := eval.NewSuite(eval.SuiteOptions{Seed: seed, Positions: 16})
	if err != nil {
		log.Fatal(err)
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Sweep 1, 4 and all-CPUs workers — but never time more workers than
	// the machine has CPUs: that measures goroutine multiplexing, not
	// parallel throughput (the BENCH_3 anomaly was a 4-worker point taken
	// at GOMAXPROCS=1). Each kept point runs with GOMAXPROCS matched to
	// its worker count and records it in the result. The sweep over the
	// tracked path has settled Kalman priors gating the search, the
	// serving plane's steady-state regime.
	workerCounts := sweepWorkers()
	var (
		singles     []eval.PerfResult
		fulls       = make([][]eval.PerfResult, len(workerCounts))
		trackeds    = make([][]eval.TrackedResult, len(workerCounts))
		fullWork    workPerFix
		trackedWork workPerFix
	)
	for pass := 0; pass < perfPasses; pass++ {
		before := suite.Eng.Stats()
		single, err := suite.MeasureFixes(fixes, 1)
		if err != nil {
			log.Fatal(err)
		}
		fullWork = workDelta(before, suite.Eng.Stats())
		singles = append(singles, single)
		for i, w := range workerCounts {
			prev := runtime.GOMAXPROCS(w)
			r, err := suite.MeasureFixes(fixes, w)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				log.Fatal(err)
			}
			fulls[i] = append(fulls[i], r)
		}
		for i, w := range workerCounts {
			prev := runtime.GOMAXPROCS(w)
			before := suite.Eng.Stats()
			r, err := suite.MeasureTracked(fixes, w)
			if w == 1 {
				trackedWork = workDelta(before, suite.Eng.Stats())
			}
			runtime.GOMAXPROCS(prev)
			if err != nil {
				log.Fatal(err)
			}
			trackeds[i] = append(trackeds[i], r)
		}
	}
	single, singleSpread := medianPass(singles, fullNs)
	sweep := make([]eval.PerfResult, len(workerCounts))
	tracked := make([]eval.TrackedResult, len(workerCounts))
	sweepSpread := make([]string, len(workerCounts))
	trackedSpread := make([]string, len(workerCounts))
	for i := range workerCounts {
		sweep[i], sweepSpread[i] = medianPass(fulls[i], fullNs)
		tracked[i], trackedSpread[i] = medianPass(trackeds[i], trackedNs)
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	report := perfReport{
		Baseline:    baseline,
		After:       perfNumbers{NsPerFix: single.NsPerFix, BytesPerFix: single.BytesPerFix, AllocsPerFix: single.AllocsPerFix},
		SpeedupX:    baseline.NsPerFix / single.NsPerFix,
		Throughput:  sweep,
		Tracked:     tracked,
		FullWork:    fullWork,
		TrackedWork: trackedWork,
		Passes:      perfPasses,
		Stats:       suite.Eng.Stats(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Positions:   16,
		Seed:        seed,
	}

	fmt.Printf("fix path, steady state (%d fixes per point per pass, median of %d interleaved passes):\n", fixes, perfPasses)
	fmt.Printf("  baseline  %11.0f ns/fix  %9.0f B/fix  %6.0f allocs/fix\n",
		baseline.NsPerFix, baseline.BytesPerFix, baseline.AllocsPerFix)
	fmt.Printf("  after     %11.0f ns/fix  %9.0f B/fix  %6.1f allocs/fix   (%.1fx faster; %s)\n",
		report.After.NsPerFix, report.After.BytesPerFix, report.After.AllocsPerFix, report.SpeedupX, singleSpread)
	fmt.Println("throughput sweep (full grid):")
	for i, r := range sweep {
		fmt.Printf("  %s  (%s)\n", r, sweepSpread[i])
	}
	fmt.Println("throughput sweep (tracked, prior-gated):")
	for i, r := range tracked {
		fmt.Printf("  %s  (%s)\n", r, trackedSpread[i])
	}
	if len(tracked) > 0 && tracked[0].NsPerFix > 0 {
		fmt.Printf("  tracked speedup vs full grid: %.1fx\n", single.NsPerFix/tracked[0].NsPerFix)
	}
	fmt.Printf("work per fix: full grid %.0f polar samples, %.0f cells painted; tracked %.0f polar samples, %.0f cells painted\n",
		fullWork.PolarSamples, fullWork.CellsPainted, trackedWork.PolarSamples, trackedWork.CellsPainted)
	st := report.Stats
	fmt.Printf("engine: %d fixes, %d plane builds, %.1f KiB tables, %d pool hits / %d misses\n",
		st.Fixes, st.PlaneBuilds, float64(st.TableBytes)/1024, st.PoolHits, st.PoolMisses)

	if benchOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(benchOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}

	if check != "" {
		buf, err := os.ReadFile(check)
		if err != nil {
			log.Fatal(err)
		}
		var committed perfReport
		if err := json.Unmarshal(buf, &committed); err != nil {
			log.Fatal(err)
		}
		limit := 2 * committed.After.NsPerFix
		if single.NsPerFix > limit {
			fmt.Printf("PERF REGRESSION: median %.0f ns/fix exceeds 2x the committed %.0f ns/fix\n",
				single.NsPerFix, committed.After.NsPerFix)
			os.Exit(1)
		}
		fmt.Printf("perf check OK: median %.0f ns/fix within 2x of committed %.0f ns/fix\n",
			single.NsPerFix, committed.After.NsPerFix)
		// Gate the tracked path too — a report predating it passes
		// vacuously rather than failing the smoke check.
		if len(committed.Tracked) > 0 && len(tracked) > 0 {
			tLimit := 2 * committed.Tracked[0].NsPerFix
			if tracked[0].NsPerFix > tLimit {
				fmt.Printf("PERF REGRESSION (tracked): median %.0f ns/fix exceeds 2x the committed %.0f ns/fix\n",
					tracked[0].NsPerFix, committed.Tracked[0].NsPerFix)
				os.Exit(1)
			}
			fmt.Printf("tracked check OK: median %.0f ns/fix within 2x of committed %.0f ns/fix\n",
				tracked[0].NsPerFix, committed.Tracked[0].NsPerFix)
		} else if len(committed.Tracked) == 0 {
			fmt.Println("tracked check skipped: committed report has no tracked section")
		}
	}
}

// sweepWorkers returns the deduplicated worker counts of the throughput
// sweeps, dropping any point beyond the CPU count (parallelism would be
// simulated by the scheduler, not measured).
func sweepWorkers() []int {
	var out []int
	seen := map[int]bool{}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		if seen[w] {
			continue
		}
		seen[w] = true
		if w > runtime.NumCPU() {
			fmt.Printf("  skipping %d-worker point: only %d CPU(s), parallelism would be simulated\n",
				w, runtime.NumCPU())
			continue
		}
		out = append(out, w)
	}
	return out
}
