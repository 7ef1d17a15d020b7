package eval

import (
	"fmt"
	"runtime"
	"sync"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/testbed"
)

// Estimator is a localization scheme under test.
type Estimator func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error)

// Named estimators for the compared schemes.
var (
	EstimatorBLoc Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateOpts(s, core.LocateOptions{})
	}
	EstimatorAoA Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateAoA(s)
	}
	EstimatorShortestDistance Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateShortestDistance(s)
	}
	EstimatorRSSI Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateRSSI(s)
	}
	EstimatorAoASoft Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateAoASoft(s)
	}
	EstimatorMUSIC Estimator = func(eng *core.Engine, s *csi.Snapshot) (*core.Result, error) {
		return eng.LocateMUSIC(s)
	}
)

// Suite runs the paper's experiments on one shared dataset, exactly as the
// evaluation reuses its 1700 measured positions across §8.2–§8.8.
type Suite struct {
	Dep     *testbed.Deployment
	Eng     *core.Engine
	DS      *Dataset
	Seed    uint64
	Workers int
}

// SuiteOptions configures NewSuite.
type SuiteOptions struct {
	Seed      uint64
	Positions int // dataset size (paper: 1700)
	Workers   int
	Progress  func(done, total int)
	// Deployment overrides the default paper testbed (nil → testbed.Paper).
	Deployment *testbed.Deployment
}

// NewSuite builds the paper testbed, acquires the shared dataset and
// prepares the localization engine.
func NewSuite(opts SuiteOptions) (*Suite, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	dep := opts.Deployment
	if dep == nil {
		var err error
		dep, err = testbed.Paper(opts.Seed)
		if err != nil {
			return nil, err
		}
	}
	eng, err := core.NewEngine(dep.Anchors, core.DefaultConfig(dep.Env.Room))
	if err != nil {
		return nil, err
	}
	ds, err := Acquire(dep, AcquireOptions{
		Positions: opts.Positions,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Progress:  opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Suite{Dep: dep, Eng: eng, DS: ds, Seed: opts.Seed, Workers: opts.Workers}, nil
}

// Errors localizes every dataset position with the estimator on the given
// engine (which may differ from s.Eng for sweep variants) and returns the
// per-position errors in dataset order. Snapshots may be transformed first
// (band/anchor/antenna selection) via prep; pass nil for identity.
func (s *Suite) Errors(eng *core.Engine, est Estimator, prep func(*csi.Snapshot) (*csi.Snapshot, error)) ([]float64, error) {
	n := s.DS.Len()
	errs := make([]float64, n)
	firstErr := make([]error, 1)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < s.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				snap := s.DS.Snapshots[i]
				if prep != nil {
					var err error
					snap, err = prep(snap)
					if err != nil {
						mu.Lock()
						if firstErr[0] == nil {
							firstErr[0] = fmt.Errorf("position %d: %w", i, err)
						}
						mu.Unlock()
						continue
					}
				}
				res, err := est(eng, snap)
				if err != nil {
					mu.Lock()
					if firstErr[0] == nil {
						firstErr[0] = fmt.Errorf("position %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				errs[i] = res.Estimate.Dist(s.DS.Truth[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr[0] != nil {
		return nil, firstErr[0]
	}
	return errs, nil
}
