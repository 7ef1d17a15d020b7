package eval

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/durable"
	"bloc/internal/faultnet"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
	"bloc/internal/wire"
)

// ---------------------------------------------------------------------------
// Cell-kill drill: the supervised fleet (DESIGN.md §15) exists so a cell
// crashing mid-service costs exactly its own blast radius — its tags
// degrade to flagged coarse fallback fixes from a neighbor until the
// supervisor warm-restarts the cell from its durable checkpoint — while
// every other cell's output stays bit-identical to a run with no fault
// at all. This ablation runs the full pipeline twice on the same
// deterministic soundings (real per-cell engines on the paper testbed,
// one tracked tag per cell) and prices the episode: surviving-cell
// divergence, victim accuracy before/after, fallback accuracy while
// down, rounds lost, and the observed restart latency.

// CellKillPhase is one slice of the episode's accuracy.
type CellKillPhase struct {
	Fixes int        // fixes delivered
	Err   ErrorStats // localization error vs ground truth
}

// CellKillResult is the measured cell-kill episode.
type CellKillResult struct {
	Cells          int // fleet size
	AnchorsPerCell int
	Rounds         int    // acquisition rounds offered per tag
	Victim         int    // cell killed
	KillRound      uint32 // round the panic landed in

	// SurvivorMaxDeltaM is the largest distance between a surviving
	// cell's fix in the fault run and the same (tag, round) fix in the
	// no-fault run — the measured cross-cell blast radius, which the
	// isolation design requires to be exactly zero.
	SurvivorMaxDeltaM float64
	Survivor          CellKillPhase // surviving cells, fault run
	SurvivorBaseline  CellKillPhase // same cells and rounds, no-fault run

	VictimNormal CellKillPhase // victim rounds served CSI-grade (pre-kill + post-restart)
	Fallback     CellKillPhase // flagged coarse neighbor fixes while the victim was down
	MissedRounds int           // victim rounds that produced no fix at all

	// DowntimeObserved is kill-detected → running-again as seen by the
	// drill's poller (includes the supervisor's deliberate backoff).
	DowntimeObserved time.Duration

	Final locserver.FleetStats // fleet counters at the end of the fault run
}

const (
	ckCells     = 3
	ckRounds    = 12
	ckKillRound = 6
	ckVictim    = 1
)

// ckTag is the tracked tag of one cell; the hundreds digit encodes the
// home cell so the fallback path's engine choice stays self-describing.
func ckTag(cell int) uint16 { return uint16(cell*100 + 1) }

func ckTagPos(cell int) geom.Point {
	return geom.Pt(-1.2+1.1*float64(cell), -0.8+0.6*float64(cell))
}

// ckFixKey identifies one delivered fix; ckFix is what arrived.
type ckFixKey struct {
	cell  int
	tag   uint16
	round uint32
}

type ckFix struct {
	p        geom.Point
	fallback bool
	n        int // delivery count; exactly-once means 1
}

type ckCollector struct {
	mu  sync.Mutex
	got map[ckFixKey]ckFix // guarded by mu
}

func (c *ckCollector) record(cell int, info locserver.RoundInfo, fix wire.Fix) {
	c.mu.Lock()
	k := ckFixKey{cell: cell, tag: info.Tag, round: info.Round}
	f := c.got[k]
	f.p = geom.Pt(fix.X, fix.Y)
	f.fallback = info.Fallback
	f.n++
	c.got[k] = f
	c.mu.Unlock()
}

func (c *ckCollector) lookup(k ckFixKey) (ckFix, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.got[k]
	return f, ok
}

// ckWait polls cond until it holds or the budget expires.
func ckWait(budget time.Duration, cond func() bool) bool {
	//lint:ignore clockcheck drill harness polls real wall time; it is the test driver, not the server
	deadline := time.Now().Add(budget)
	for !cond() {
		//lint:ignore clockcheck see above
		if time.Now().After(deadline) {
			return false
		}
		//lint:ignore clockcheck see above
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// ckFeedRound offers one acquisition round to every cell: each cell's
// tag sounded by the cell's own deployment fork, reported row by row
// under global anchor IDs, exactly as that cell's anchor daemons would.
func ckFeedRound(f *locserver.Fleet, deps []*testbed.Deployment, round uint32) {
	for cell := 0; cell < ckCells; cell++ {
		tag := ckTag(cell)
		// Same fork-salt convention as anchor.Daemon.MeasureAndReport, so
		// both runs of the drill sound identical channels.
		snap := deps[cell].Fork(uint64(tag)<<32 | uint64(round)).Sounding(ckTagPos(cell))
		anchors := len(deps[cell].Anchors)
		for a := 0; a < anchors; a++ {
			for b := range snap.Bands {
				f.IngestRow(&wire.CSIRow{
					Round:    round,
					TagID:    tag,
					AnchorID: uint8(cell*anchors + a),
					BandIdx:  uint16(b),
					Tag:      snap.Tag[b][a],
					Master:   snap.Master[b][a],
				})
			}
		}
	}
}

// ckRun drives one full episode. With a killer the victim cell panics
// mid-round ckKillRound, two rounds are offered while it is down, and
// the drill waits out the supervised restart before finishing the
// schedule; without one the same rounds run fault-free.
func ckRun(seed uint64, deps []*testbed.Deployment, engines []*core.Engine,
	killer *faultnet.CellKiller) (*ckCollector, locserver.FleetStats, time.Duration, error) {

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir, err := os.MkdirTemp("", "bloc-cellkill-*")
	if err != nil {
		return nil, locserver.FleetStats{}, 0, err
	}
	defer os.RemoveAll(dir)
	stores := make([]*durable.Store, ckCells)
	for i := range stores {
		st, err := durable.Open(fmt.Sprintf("%s/cell-%d", dir, i))
		if err != nil {
			return nil, locserver.FleetStats{}, 0, err
		}
		stores[i] = st
	}

	rec := &ckCollector{got: make(map[ckFixKey]ckFix)}
	cfg := locserver.FleetConfig{
		Cells: ckCells,
		Cell: locserver.Config{
			Anchors:       len(deps[0].Anchors),
			Antennas:      deps[0].Anchors[0].N,
			Bands:         deps[0].Bands,
			RoundDeadline: 200 * time.Millisecond,
			FixQueueDepth: 64,
			Health:        locserver.HealthConfig{Seed: seed},
		},
		OnSnapshot: func(cell int, info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
			// The home cell's engine carries the geometry and calibration
			// for the tag's anchors; for a fallback round the compute runs
			// on a neighbor, but the victim's engine config still applies.
			home := int(info.Tag) / 100
			if home < 0 || home >= len(engines) {
				return geom.Point{}, fmt.Errorf("cellkill: tag %d maps outside the fleet", info.Tag)
			}
			if info.Coarse {
				res, err := engines[home].LocateRSSI(snap)
				if err != nil {
					return geom.Point{}, err
				}
				return res.Estimate, nil
			}
			res, err := engines[home].LocateOpts(snap, core.LocateOptions{Ref: info.Ref})
			if err != nil {
				return geom.Point{}, err
			}
			return res.Estimate, nil
		},
		OnFix: rec.record,
		Checkpoint: func(cell int) *locserver.CheckpointConfig {
			return &locserver.CheckpointConfig{Store: stores[cell], Interval: 25 * time.Millisecond}
		},
		Supervisor: locserver.SupervisorConfig{
			// A deliberate backoff floor: the drill feeds the down window
			// in microseconds, so 100ms guarantees the fallback rounds land
			// while the victim is genuinely gone.
			BackoffInitial: 100 * time.Millisecond,
			BackoffMax:     200 * time.Millisecond,
			RestartWindow:  5 * time.Second,
			Seed:           seed,
		},
		Logger: quiet,
	}
	if killer != nil {
		cfg.Hooks = killer.Hook
	}
	f, err := locserver.NewFleet(cfg)
	if err != nil {
		return nil, locserver.FleetStats{}, 0, err
	}
	defer f.Close()

	awaitRound := func(round uint32, cells []int) error {
		for _, cell := range cells {
			k := ckFixKey{cell: cell, tag: ckTag(cell), round: round}
			if !ckWait(10*time.Second, func() bool { _, ok := rec.lookup(k); return ok }) {
				return fmt.Errorf("cellkill: cell %d round %d never delivered (stats %+v)",
					cell, round, f.Stats().Agg)
			}
		}
		return nil
	}
	allCells := []int{0, 1, 2}
	survivors := []int{0, 2}

	// Pre-kill steady state; every cell must also have checkpointed at
	// least once so the victim has something to warm-restart from.
	for r := uint32(1); r < ckKillRound; r++ {
		ckFeedRound(f, deps, r)
		if err := awaitRound(r, allCells); err != nil {
			return nil, locserver.FleetStats{}, 0, err
		}
	}
	if killer != nil {
		if !ckWait(2*time.Second, func() bool {
			return f.Stats().Cells[ckVictim].Stats.Checkpoints >= 1
		}) {
			return nil, locserver.FleetStats{}, 0, fmt.Errorf("cellkill: victim never checkpointed")
		}
	}

	// The kill round: with a killer armed the panic lands mid-round and
	// the victim's round may or may not complete before the supervisor
	// tears the incarnation down — that sliver of nondeterminism is part
	// of what the drill prices (MissedRounds).
	ckFeedRound(f, deps, ckKillRound)
	if err := awaitRound(ckKillRound, survivors); err != nil {
		return nil, locserver.FleetStats{}, 0, err
	}
	var downtime time.Duration
	if killer != nil {
		if !ckWait(2*time.Second, func() bool { return !f.Stats().Cells[ckVictim].Running }) {
			return nil, locserver.FleetStats{}, 0, fmt.Errorf("cellkill: victim never went down")
		}
		//lint:ignore clockcheck the drill measures real restart latency on purpose
		downStart := time.Now()

		// Two rounds offered while the victim is down: survivors serve
		// normally, the victim's tag degrades to neighbor fallback fixes.
		for r := uint32(ckKillRound + 1); r <= ckKillRound+2; r++ {
			ckFeedRound(f, deps, r)
			if err := awaitRound(r, allCells); err != nil {
				return nil, locserver.FleetStats{}, 0, err
			}
		}
		if !ckWait(3*time.Second, func() bool {
			cs := f.Stats().Cells[ckVictim]
			return cs.Running && cs.Restarts == 1
		}) {
			return nil, locserver.FleetStats{}, 0, fmt.Errorf("cellkill: victim never restarted")
		}
		//lint:ignore clockcheck see above
		downtime = time.Since(downStart)
	} else {
		for r := uint32(ckKillRound + 1); r <= ckKillRound+2; r++ {
			ckFeedRound(f, deps, r)
			if err := awaitRound(r, allCells); err != nil {
				return nil, locserver.FleetStats{}, 0, err
			}
		}
	}

	// Post-restart rounds: the revived victim serves CSI-grade again.
	for r := uint32(ckKillRound + 3); r <= ckRounds; r++ {
		ckFeedRound(f, deps, r)
		if err := awaitRound(r, allCells); err != nil {
			return nil, locserver.FleetStats{}, 0, err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		return nil, locserver.FleetStats{}, 0, err
	}
	return rec, f.Stats(), downtime, nil
}

// AblationCellKill runs the cell-kill episode against its own no-fault
// twin on identical soundings and reports the measured blast radius.
func AblationCellKill(seed uint64) (*CellKillResult, error) {
	base, err := testbed.Paper(seed)
	if err != nil {
		return nil, err
	}
	deps := make([]*testbed.Deployment, ckCells)
	engines := make([]*core.Engine, ckCells)
	for c := 0; c < ckCells; c++ {
		// Each cell is its own room instance: same geometry, independent
		// channel realization.
		deps[c] = base.Fork(0xCE11 + uint64(c))
		eng, err := core.NewEngine(deps[c].Anchors, core.DefaultConfig(deps[c].Env.Room))
		if err != nil {
			return nil, err
		}
		engines[c] = eng
	}
	rowsPerRound := len(deps[0].Anchors) * len(deps[0].Bands)
	killer, err := faultnet.NewCellKiller(faultnet.KillSpec{
		Cell:  ckVictim,
		Event: locserver.HookIngest,
		// Mid-round: half the victim's rows of the kill round have landed.
		Seq: uint64(rowsPerRound)*(ckKillRound-1) + uint64(rowsPerRound)/2,
	})
	if err != nil {
		return nil, err
	}

	baseline, _, _, err := ckRun(seed, deps, engines, nil)
	if err != nil {
		return nil, fmt.Errorf("no-fault run: %w", err)
	}
	fault, fs, downtime, err := ckRun(seed, deps, engines, killer)
	if err != nil {
		return nil, fmt.Errorf("fault run: %w", err)
	}
	if got := len(killer.Fired()); got != 1 {
		return nil, fmt.Errorf("cellkill: scheduled panic fired %d times, want 1", got)
	}

	r := &CellKillResult{
		Cells:            ckCells,
		AnchorsPerCell:   len(deps[0].Anchors),
		Rounds:           ckRounds,
		Victim:           ckVictim,
		KillRound:        ckKillRound,
		DowntimeObserved: downtime,
		Final:            fs,
	}
	var survErrs, survBaseErrs, victimErrs, fallbackErrs []float64
	for cell := 0; cell < ckCells; cell++ {
		truth := ckTagPos(cell)
		for round := uint32(1); round <= ckRounds; round++ {
			k := ckFixKey{cell: cell, tag: ckTag(cell), round: round}
			ff, fok := fault.lookup(k)
			bf, bok := baseline.lookup(k)
			if (fok && ff.n != 1) || (bok && bf.n != 1) {
				return nil, fmt.Errorf("cellkill: %+v delivered more than once", k)
			}
			if cell != ckVictim {
				if !fok || !bok {
					return nil, fmt.Errorf("cellkill: surviving cell %d round %d missing a fix", cell, round)
				}
				if d := ff.p.Dist(bf.p); d > r.SurvivorMaxDeltaM {
					r.SurvivorMaxDeltaM = d
				}
				survErrs = append(survErrs, ff.p.Dist(truth))
				survBaseErrs = append(survBaseErrs, bf.p.Dist(truth))
				continue
			}
			switch {
			case !fok:
				r.MissedRounds++
			case ff.fallback:
				fallbackErrs = append(fallbackErrs, ff.p.Dist(truth))
			default:
				victimErrs = append(victimErrs, ff.p.Dist(truth))
			}
		}
	}
	sort.Float64s(survErrs)
	sort.Float64s(survBaseErrs)
	sort.Float64s(victimErrs)
	sort.Float64s(fallbackErrs)
	r.Survivor = CellKillPhase{Fixes: len(survErrs), Err: NewErrorStats(survErrs)}
	r.SurvivorBaseline = CellKillPhase{Fixes: len(survBaseErrs), Err: NewErrorStats(survBaseErrs)}
	r.VictimNormal = CellKillPhase{Fixes: len(victimErrs), Err: NewErrorStats(victimErrs)}
	r.Fallback = CellKillPhase{Fixes: len(fallbackErrs), Err: NewErrorStats(fallbackErrs)}
	return r, nil
}

// CellKillTable renders the cell-kill episode.
func CellKillTable(r *CellKillResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation — cell-kill drill (fault isolation; %d cells × %d anchors, "+
			"cell %d killed mid-round %d of %d)", r.Cells, r.AnchorsPerCell, r.Victim, r.KillRound, r.Rounds),
		Columns: []string{"measure", "value"},
	}
	t.AddRow("surviving-cell max divergence vs no-fault run (cm)", Cm(r.SurvivorMaxDeltaM))
	t.AddRow("surviving-cell median, fault run (cm)", Cm(r.Survivor.Err.Median))
	t.AddRow("surviving-cell median, no-fault run (cm)", Cm(r.SurvivorBaseline.Err.Median))
	t.AddRow("victim CSI-grade median (cm)", Cm(r.VictimNormal.Err.Median))
	t.AddRow("victim fallback fixes while down / median (cm)",
		fmt.Sprintf("%d / %s", r.Fallback.Fixes, Cm(r.Fallback.Err.Median)))
	t.AddRow("victim rounds lost outright", fmt.Sprintf("%d", r.MissedRounds))
	t.AddRow("observed downtime incl. backoff (ms)",
		fmt.Sprintf("%d", r.DowntimeObserved.Milliseconds()))
	t.AddRow("cell restarts / panics recovered", fmt.Sprintf("%d / %d",
		r.Final.Agg.CellRestarts, r.Final.Agg.PanicsRecovered))
	t.AddRow("warm restores after the kill", fmt.Sprintf("%d",
		r.Final.Cells[r.Victim].Stats.WarmRestores))
	t.AddRow("cells quarantined / breaker opens", fmt.Sprintf("%d / %d",
		r.Final.Agg.CellsQuarantined, r.Final.Agg.BreakerOpens))
	return t
}
