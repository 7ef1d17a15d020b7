package eval

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bloc/internal/core"
	"bloc/internal/geom"
	"bloc/internal/testbed"
	"bloc/internal/track"
)

// Steady-state tracked serving: once a tag's Kalman track has settled,
// the engine localizes it through the prior-gated coarse-to-fine search
// (DESIGN.md §14). These measurements price that path — the tracked
// latency headline — and stress the gate's fallback triggers under
// increasing tag mobility.

// TrackedResult is one throughput measurement of the tracked
// (prior-gated) fix path, extending PerfResult with the gate's
// effectiveness counters taken from engine-stat deltas over the timed
// window.
type TrackedResult struct {
	PerfResult
	// GatedFrac is the fraction of fixes served by the gated path
	// (the rest fell back to the full grid).
	GatedFrac float64 `json:"gated_frac"`
	// FallbackRate is the fraction of gated attempts refused by a
	// fallback trigger.
	FallbackRate float64 `json:"fallback_rate"`
	// TileFrac is the mean fraction of refinement tiles evaluated per
	// gated fix.
	TileFrac float64 `json:"tile_frac"`
}

func (r TrackedResult) String() string {
	return fmt.Sprintf("%s  gated=%.0f%% fallback=%.1f%% tiles=%.0f%%",
		r.PerfResult, 100*r.GatedFrac, 100*r.FallbackRate, 100*r.TileFrac)
}

// trackedTag is one simulated tracked tag: its snapshot, Kalman track
// and gating hysteresis, owned by a single measurement worker.
type trackedTag struct {
	suite *Suite
	snap  int
	f     *track.Filter
	g     *core.GatePolicy
}

// fix runs one tracked localization: prior from the settled track,
// gated search, hysteresis and track update — the serving plane's
// steady-state per-round work.
func (tt *trackedTag) fix() error {
	s := tt.suite
	var prior *core.Prior
	if ell, ok := tt.f.ConfidenceEllipse(1); ok {
		p := tt.g.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
		prior = &p
	}
	res, err := s.Eng.LocateOpts(s.DS.Snapshots[tt.snap], core.LocateOptions{Prior: prior})
	if err != nil {
		return err
	}
	if prior != nil {
		tt.g.Observe(res)
	}
	// A tag reporting at 40 Hz: the tracked regime the gate targets.
	_, _, err = tt.f.Update(res.Estimate, 0.025)
	return err
}

// MeasureTracked runs `fixes` localizations of settled tracked tags on
// `workers` goroutines sharing the suite's engine — the steady-state
// regime of a tag reporting at a constant cadence from a stable
// position. Each worker owns one tag (its own snapshot, Kalman track
// and GatePolicy); a warm-up pass settles every track and the engine's
// caches before the timed window, and the gate counters are reported as
// deltas over that window only.
func (s *Suite) MeasureTracked(fixes, workers int) (TrackedResult, error) {
	if len(s.DS.Snapshots) == 0 {
		return TrackedResult{}, fmt.Errorf("eval: empty dataset")
	}
	if fixes < 1 {
		fixes = 1
	}
	if workers < 1 {
		workers = 1
	}
	tags := make([]*trackedTag, workers)
	for w := range tags {
		f, err := track.New(track.DefaultConfig())
		if err != nil {
			return TrackedResult{}, err
		}
		tags[w] = &trackedTag{
			suite: s,
			snap:  w % len(s.DS.Snapshots),
			f:     f,
			g:     core.NewGatePolicy(),
		}
	}
	// Warm-up: settle each track's covariance (and the engine's plane
	// cache and scratch pools) so the timed window starts gated.
	const settle = 8
	for _, tt := range tags {
		for i := 0; i < settle; i++ {
			if err := tt.fix(); err != nil {
				return TrackedResult{}, err
			}
		}
	}

	runtime.GC()
	before := s.Eng.Stats()
	var beforeMem, afterMem runtime.MemStats
	runtime.ReadMemStats(&beforeMem)
	//lint:ignore clockcheck throughput is measured against the real monotonic clock
	start := time.Now()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		tt := tags[w]
		go func() {
			defer wg.Done()
			for int(next.Add(1)) <= fixes {
				if err := tt.fix(); err != nil {
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
	//lint:ignore clockcheck see above
	elapsed := time.Since(start)
	runtime.ReadMemStats(&afterMem)
	if fail != nil {
		return TrackedResult{}, fail
	}
	after := s.Eng.Stats()

	n := float64(fixes)
	res := TrackedResult{PerfResult: PerfResult{
		Workers:      workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Fixes:        fixes,
		NsPerFix:     float64(elapsed.Nanoseconds()) / n,
		BytesPerFix:  float64(afterMem.TotalAlloc-beforeMem.TotalAlloc) / n,
		AllocsPerFix: float64(afterMem.Mallocs-beforeMem.Mallocs) / n,
		FixesPerSec:  n / elapsed.Seconds(),
	}}
	gated := after.GatedFixes - before.GatedFixes
	total := after.Fixes - before.Fixes
	fallbacks := (after.FallbackDisagree - before.FallbackDisagree) +
		(after.FallbackLowConf - before.FallbackLowConf) +
		(after.FallbackNoPeaks - before.FallbackNoPeaks)
	if total > 0 {
		res.GatedFrac = float64(gated) / float64(total)
	}
	if attempts := gated + fallbacks; attempts > 0 {
		res.FallbackRate = float64(fallbacks) / float64(attempts)
	}
	if dt := after.TilesTotal - before.TilesTotal; dt > 0 {
		res.TileFrac = float64(after.TilesRefined-before.TilesRefined) / float64(dt)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Gated-vs-full ablation: does the gate hold CDF parity as the tag
// moves, and what does each mobility regime cost in fallbacks?

// GatedPoint is one mobility scenario of the gated ablation.
type GatedPoint struct {
	Name         string
	Gated        ErrorStats
	Full         ErrorStats
	FallbackRate float64 // gated attempts refused by a trigger
	// Fallbacks counts the gated attempts that fell back to the full
	// grid; TrackRejected counts those whose full-grid fix the Kalman
	// track gate then rejected — full-grid work bought for a fix the
	// tracker discards.
	Fallbacks, TrackRejected int
	GatedNs                  float64 // mean ns per gated-path localization
	FullNs                   float64 // mean ns per full-grid localization
}

// AblationGated walks one tag through increasingly adversarial motion —
// random walks of growing step size, then outright teleports — and
// localizes every step through both the full grid and the tracker-
// prior-gated search. The gated estimates must match the full-grid CDF
// (the gate only decides where to look); the fallback rate shows the
// hysteresis pricing each regime, and the count of fallback fixes the
// track gate rejects prices a cheaper fallback.
func AblationGated(seed uint64, steps int) ([]GatedPoint, error) {
	type scenario struct {
		name     string
		sigma    float64 // per-step displacement std (m)
		teleport int     // every n-th step jumps to a fresh uniform point (0 disables)
	}
	scenarios := []scenario{
		{name: "random walk σ=0.10 m", sigma: 0.10},
		{name: "random walk σ=0.30 m", sigma: 0.30},
		{name: "random walk σ=1.00 m", sigma: 1.00},
		{name: "teleport every 10 steps", sigma: 0.10, teleport: 10},
	}
	dep, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	room := dep.Env.Room.Inset(0.6)
	out := make([]GatedPoint, 0, len(scenarios))
	for si, sc := range scenarios {
		rng := rand.New(rand.NewPCG(seed, uint64(si)^0x6A7ED))
		f, err := track.New(track.DefaultConfig())
		if err != nil {
			return nil, err
		}
		g := core.NewGatePolicy()
		pos := room.Clamp(geom.Pt(
			room.Min.X+rng.Float64()*room.Width(),
			room.Min.Y+rng.Float64()*room.Height(),
		))
		var (
			gatedErrs, fullErrs []float64
			attempts, fallbacks int
			rejected            int
			gatedNs, fullNs     int64
		)
		for i := 0; i < steps; i++ {
			if sc.teleport > 0 && i > 0 && i%sc.teleport == 0 {
				pos = geom.Pt(
					room.Min.X+rng.Float64()*room.Width(),
					room.Min.Y+rng.Float64()*room.Height(),
				)
			} else {
				pos = room.Clamp(pos.Add(geom.Vec(
					rng.NormFloat64()*sc.sigma,
					rng.NormFloat64()*sc.sigma,
				)))
			}
			snap := dep.Fork(uint64(si)<<32 | uint64(i)).Sounding(pos)

			//lint:ignore clockcheck latency comparison needs the real monotonic clock
			t0 := time.Now()
			full, err := eng.LocateOpts(snap, core.LocateOptions{})
			if err != nil {
				return nil, fmt.Errorf("gated ablation %q step %d (full): %w", sc.name, i, err)
			}
			//lint:ignore clockcheck see above
			fullNs += time.Since(t0).Nanoseconds()

			var prior *core.Prior
			if ell, ok := f.ConfidenceEllipse(1); ok {
				p := g.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
				prior = &p
			}
			//lint:ignore clockcheck see above
			t0 = time.Now()
			res, err := eng.LocateOpts(snap, core.LocateOptions{Prior: prior})
			if err != nil {
				return nil, fmt.Errorf("gated ablation %q step %d (gated): %w", sc.name, i, err)
			}
			//lint:ignore clockcheck see above
			gatedNs += time.Since(t0).Nanoseconds()
			if prior != nil {
				g.Observe(res)
				attempts++
				if !res.Gated {
					fallbacks++
				}
			}
			gatedErrs = append(gatedErrs, res.Estimate.Dist(pos))
			fullErrs = append(fullErrs, full.Estimate.Dist(pos))
			_, ok, err := f.Update(res.Estimate, 0.1)
			if err != nil {
				return nil, fmt.Errorf("gated ablation %q step %d (track): %w", sc.name, i, err)
			}
			if res.Fallback != "" && !ok {
				rejected++
			}
		}
		p := GatedPoint{
			Name:          sc.name,
			Gated:         NewErrorStats(gatedErrs),
			Full:          NewErrorStats(fullErrs),
			Fallbacks:     fallbacks,
			TrackRejected: rejected,
			GatedNs:       float64(gatedNs) / float64(steps),
			FullNs:        float64(fullNs) / float64(steps),
		}
		if attempts > 0 {
			p.FallbackRate = float64(fallbacks) / float64(attempts)
		}
		out = append(out, p)
	}
	return out, nil
}

// GatedTable renders the mobility ladder.
func GatedTable(ps []GatedPoint) *Table {
	t := &Table{
		Title:   "Ablation — prior-gated search vs full grid under tag mobility",
		Columns: []string{"scenario", "gated median (cm)", "full median (cm)", "gated p90 (cm)", "full p90 (cm)", "fallback", "track-rejected fallbacks", "gated µs/fix", "full µs/fix"},
	}
	for _, p := range ps {
		t.AddRow(p.Name, Cm(p.Gated.Median), Cm(p.Full.Median),
			Cm(p.Gated.P90), Cm(p.Full.P90),
			fmt.Sprintf("%.0f%%", 100*p.FallbackRate),
			fmt.Sprintf("%d of %d", p.TrackRejected, p.Fallbacks),
			fmt.Sprintf("%.0f", p.GatedNs/1e3), fmt.Sprintf("%.0f", p.FullNs/1e3))
	}
	return t
}
