package eval

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bloc/internal/core"
)

// PerfResult is one throughput measurement of the localization fix path.
// GOMAXPROCS is captured at measurement time so a sweep point can never
// silently claim parallelism the scheduler did not have (the BENCH_3
// anomaly: 4 workers timed at GOMAXPROCS=1).
type PerfResult struct {
	Workers      int     `json:"workers"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Fixes        int     `json:"fixes"`
	NsPerFix     float64 `json:"ns_per_fix"`
	BytesPerFix  float64 `json:"bytes_per_fix"`
	AllocsPerFix float64 `json:"allocs_per_fix"`
	FixesPerSec  float64 `json:"fixes_per_sec"`
}

func (r PerfResult) String() string {
	return fmt.Sprintf("workers=%d gomaxprocs=%d fixes=%d  %.0f ns/fix  %.0f B/fix  %.1f allocs/fix  %.1f fixes/sec",
		r.Workers, r.GOMAXPROCS, r.Fixes, r.NsPerFix, r.BytesPerFix, r.AllocsPerFix, r.FixesPerSec)
}

// MeasureFixes runs the given number of localizations over the suite's
// dataset snapshots on `workers` goroutines sharing one engine, and
// reports latency, throughput and steady-state allocation rates from
// runtime.MemStats deltas. A warm-up pass populates the engine's plane
// cache and scratch pools first, so the figures reflect steady state.
func (s *Suite) MeasureFixes(fixes, workers int) (PerfResult, error) {
	fixes, workers, err := s.perfCounts(fixes, workers)
	if err != nil {
		return PerfResult{}, err
	}
	fix := func(_, i int) error {
		_, err := s.Eng.LocateOpts(s.DS.Snapshots[i%len(s.DS.Snapshots)], core.LocateOptions{})
		return err
	}
	if err := runFixes(min(2*workers, fixes), workers, fix); err != nil {
		return PerfResult{}, err
	}
	return timeFixes(fixes, workers, fix)
}

// perfCounts checks a throughput measurement's inputs and clamps its fix
// and worker counts to at least 1.
func (s *Suite) perfCounts(fixes, workers int) (int, int, error) {
	if len(s.DS.Snapshots) == 0 {
		return 0, 0, fmt.Errorf("eval: empty dataset")
	}
	return max(fixes, 1), max(workers, 1), nil
}

// timeFixes is the timed window of a throughput measurement: it runs
// runFixes after a GC and reports wall time per fix and the allocation
// rates from runtime.MemStats deltas.
func timeFixes(fixes, workers int, fix func(w, i int) error) (PerfResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:ignore clockcheck throughput is measured against the real monotonic clock
	start := time.Now()
	if err := runFixes(fixes, workers, fix); err != nil {
		return PerfResult{}, err
	}
	//lint:ignore clockcheck see above
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := float64(fixes)
	return PerfResult{
		Workers:      workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Fixes:        fixes,
		NsPerFix:     float64(elapsed.Nanoseconds()) / n,
		BytesPerFix:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerFix: float64(after.Mallocs-before.Mallocs) / n,
		FixesPerSec:  n / elapsed.Seconds(),
	}, nil
}

// runFixes calls fix(w, i) for every fix index i in [0, fixes) on
// `workers` goroutines, w being the calling worker's index, and returns
// the first error; a worker that hits one stops.
func runFixes(fixes, workers int, fix func(w, i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= fixes {
					return
				}
				if err := fix(w, i); err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return fail
}

// MaxKernelDivergence evaluates the combined likelihood of the first n
// dataset snapshots with both the production float32 kernel and the
// float64 reference kernel and returns the largest absolute per-cell
// divergence seen — the eval-level bound on how far the surfaces every
// figure localizes on sit from the reference.
func (s *Suite) MaxKernelDivergence(n int) (float64, error) {
	if n > len(s.DS.Snapshots) {
		n = len(s.DS.Snapshots)
	}
	var worst float64
	for i := 0; i < n; i++ {
		a, err := core.Correct(s.DS.Snapshots[i])
		if err != nil {
			return 0, err
		}
		opt, _, err := s.Eng.Likelihood(a)
		if err != nil {
			return 0, err
		}
		ref, _ := s.Eng.LikelihoodReference(a)
		for c := range ref.Data {
			if d := math.Abs(opt.Data[c] - ref.Data[c]); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}
