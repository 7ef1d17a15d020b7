package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bloc/internal/geom"
)

// Config holds the tunable parameters of the localization engine. The
// defaults reproduce §7: score weights a = 0.1, b = 0.05 and a circular
// 7×7 entropy window.
type Config struct {
	// Room bounds the XY search grid.
	Room geom.Rect
	// CellM is the XY grid cell size in meters.
	CellM float64
	// ThetaStepDeg is the angular resolution of the polar likelihood.
	ThetaStepDeg float64
	// DeltaStepM is the relative-distance resolution of the polar
	// likelihood.
	DeltaStepM float64
	// ScoreA and ScoreB weight distance and entropy in Eq. 18.
	ScoreA, ScoreB float64
	// EntropyWindow is the circular neighborhood diameter (in window
	// samples) for the peak entropy H; EntropyStride is the spacing in
	// grid cells between window samples, scaling the window's physical
	// footprint (7 samples × stride 4 × 5 cm cells ≈ a 1.4 m
	// neighborhood).
	EntropyWindow int
	EntropyStride int
	// PeakMinFrac drops likelihood peaks below this fraction of the
	// global maximum.
	PeakMinFrac float64
	// PeakMinSepCells suppresses peaks within this Chebyshev distance of
	// a stronger peak.
	PeakMinSepCells int
	// NormalizePerAnchor scales each anchor's XY likelihood to unit
	// maximum before summing, so near anchors do not drown far ones.
	NormalizePerAnchor bool
	// Gate tunes the prior-gated coarse-to-fine search and the
	// refinement sweep every fix runs (gated.go). Zero fields take their
	// defaults in NewEngine.
	Gate GateConfig
}

// GateConfig tunes the two-stage gated search of LocateOpts: how much the
// coarse pass decimates each grid, how refinement tiles are selected, and
// when the gate refuses and falls back to the full-grid path. The
// refinement strides and the tile size also shape every full-grid fix,
// which runs the same refinement over every tile.
type GateConfig struct {
	// CoarseStep is the XY decimation of the coarse pass: every
	// CoarseStep-th cell in each dimension is evaluated (default 4).
	CoarseStep int
	// CoarseThetaStep / CoarseDeltaStep decimate the polar grid the coarse
	// pass samples (defaults 4 and 16). θ is sampled nearest-row and its
	// error absorbed by the selection safety margin; Δ is projected with
	// a two-tap linear interpolation (the magnitude is smooth along Δ),
	// which is what lets the Δ stride run twice as coarse as θ.
	CoarseThetaStep int
	CoarseDeltaStep int
	// RefineDeltaStep is the Δ sampling stride of the full-resolution
	// refinement sweep of every fix (default 4): polarFill32 evaluates
	// every RefineDeltaStep-th column exactly and linearly interpolates
	// the rest. The Δ magnitude profile is band-limited by the channel
	// spread (correlation scale of meters against a few-centimeter
	// grid), so 4 keeps the peak-cell error under 1%; 1 disables
	// interpolation and recovers the exact sweep.
	RefineDeltaStep int
	// RefineThetaStep is the θ sampling stride of the refinement sweep
	// (default 2): every RefineThetaStep-th row (plus the last) is
	// evaluated and skipped rows are interpolated. A J-element array's
	// beam pattern has only ~J degrees of freedom across the aperture,
	// so the 1° row grid heavily oversamples it; 1 disables row
	// interpolation.
	RefineThetaStep int
	// TileCells is the edge length, in XY cells, of a refinement tile
	// (default 16 → 0.8 m at the paper's 5 cm grid).
	TileCells int
	// SelectSafety scales the coarse tile-selection threshold below
	// PeakMinFrac (default 0.8): a tile is refined when it holds a
	// coarse local maximum at SelectSafety·PeakMinFrac of the coarse
	// global maximum. Measured decimation undershoot at true peaks is
	// under 10%, so 0.8 keeps every full-grid candidate selectable while
	// rejecting background ripple.
	SelectSafety float64
	// MaxTileFrac aborts the gate when the value-selected tile fraction
	// exceeds it (default 0.35): a flat coarse surface means low peak
	// confidence, and refining most of the room costs more than the full
	// path it is supposed to replace.
	MaxTileFrac float64
	// DisagreeMarginM grows the prior ellipse for the coarse/prior
	// agreement check (default 0.5 m): a coarse argmax outside the grown
	// ellipse falls back to the full grid.
	DisagreeMarginM float64
}

// DefaultGateConfig returns the gated-search defaults.
func DefaultGateConfig() GateConfig {
	return GateConfig{
		CoarseStep:      4,
		CoarseThetaStep: 4,
		CoarseDeltaStep: 16,
		RefineDeltaStep: 4,
		RefineThetaStep: 2,
		TileCells:       16,
		SelectSafety:    0.8,
		MaxTileFrac:     0.35,
		DisagreeMarginM: 0.5,
	}
}

// withDefaults fills zero fields from DefaultGateConfig.
func (g GateConfig) withDefaults() GateConfig {
	d := DefaultGateConfig()
	if g.CoarseStep == 0 {
		g.CoarseStep = d.CoarseStep
	}
	if g.CoarseThetaStep == 0 {
		g.CoarseThetaStep = d.CoarseThetaStep
	}
	if g.CoarseDeltaStep == 0 {
		g.CoarseDeltaStep = d.CoarseDeltaStep
	}
	if g.RefineDeltaStep == 0 {
		g.RefineDeltaStep = d.RefineDeltaStep
	}
	if g.RefineThetaStep == 0 {
		g.RefineThetaStep = d.RefineThetaStep
	}
	if g.TileCells == 0 {
		g.TileCells = d.TileCells
	}
	//lint:ignore floateq zero value means "use the default", an exact sentinel
	if g.SelectSafety == 0 {
		g.SelectSafety = d.SelectSafety
	}
	//lint:ignore floateq zero value means "use the default", an exact sentinel
	if g.MaxTileFrac == 0 {
		g.MaxTileFrac = d.MaxTileFrac
	}
	//lint:ignore floateq zero value means "use the default", an exact sentinel
	if g.DisagreeMarginM == 0 {
		g.DisagreeMarginM = d.DisagreeMarginM
	}
	return g
}

func (g GateConfig) valid() bool {
	return g.CoarseStep >= 2 && g.CoarseThetaStep >= 1 && g.CoarseDeltaStep >= 1 &&
		g.RefineDeltaStep >= 1 && g.RefineThetaStep >= 1 &&
		g.TileCells >= 4 && g.SelectSafety > 0 && g.SelectSafety <= 1 &&
		g.MaxTileFrac > 0 && g.MaxTileFrac <= 1 && g.DisagreeMarginM > 0
}

// DefaultConfig returns the paper's parameters for the given room.
func DefaultConfig(room geom.Rect) Config {
	return Config{
		Room:               room,
		CellM:              0.05,
		ThetaStepDeg:       1.0,
		DeltaStepM:         0.05,
		ScoreA:             0.1,
		ScoreB:             0.05,
		EntropyWindow:      7,
		EntropyStride:      4,
		PeakMinFrac:        0.5,
		PeakMinSepCells:    4,
		NormalizePerAnchor: true,
		Gate:               DefaultGateConfig(),
	}
}

// Engine localizes tags from corrected channels for a fixed anchor
// deployment. It precomputes the geometry-dependent tables once (see
// planes.go) and can then process many snapshots concurrently; every
// fix draws one pooled workspace (pool.go) and, in steady state,
// allocates only what it returns — the Result and its candidates.
type Engine struct {
	cfg     Config
	anchors []geom.Array

	thetas    []float64 // polar θ grid, radians
	sinThetas []float64 // sin of each θ grid point
	deltas    []float64 // polar Δd grid, meters (relative distance d_i0T − d_00T)

	// anchorDist[i] is d^{i0}_{00}: antenna 0 of anchor i to antenna 0 of
	// anchor 0 — known at deployment time (§5.3). The inter-anchor
	// sounding is always transmitted by anchor 0, so these distances stay
	// fixed even when the α reference is re-elected; the steering offset
	// for reference r is anchorDist[i] − anchorDist[r].
	anchorDist []float64

	// spacings lists the distinct antenna spacings of the deployment;
	// spacingIdx[i] selects anchor i's entry (the angle-rotor tables in a
	// planeSet are shared per spacing).
	spacings   []float64
	spacingIdx []int

	// projMu guards projSets.
	projMu sync.RWMutex
	// projSets holds the per-anchor Fig. 6 line-projection tables
	// (planes.go), one set per reference anchor because Δ is measured
	// relative to the reference's antenna 0. Each set is built on first
	// use: only AngleLikelihoodXY, DistanceLikelihoodXY and LocateAoASoft
	// read them, never a BLoc fix. Guarded by projMu.
	projSets map[int][]anchorProj

	// XY grid geometry.
	nx, ny int
	x0, y0 float64

	// planeMu guards planes.
	planeMu sync.RWMutex
	planes  map[uint64][]*planeSet // guarded by planeMu

	// gatedMu guards gatedSets, the per-reference coarse + tiled float32
	// SoA projection tables of the gated search (gated.go), built lazily
	// on the first prior-carrying fix per reference.
	gatedMu   sync.RWMutex
	gatedSets map[int]*gatedTables // guarded by gatedMu

	// The per-fix workspace pool (pool.go) and Stats counters.
	runPool sync.Pool // *fixRun

	statFixes       atomic.Uint64
	statPlaneBuilds atomic.Uint64
	statProjBuilds  atomic.Uint64
	statTableBytes  atomic.Uint64
	statPoolHits    atomic.Uint64
	statPoolMisses  atomic.Uint64
	statRowsMasked  atomic.Uint64

	statGatedFixes       atomic.Uint64
	statFullFixes        atomic.Uint64
	statFallbackDisagree atomic.Uint64
	statFallbackLowConf  atomic.Uint64
	statFallbackNoPeaks  atomic.Uint64
	statTilesRefined     atomic.Uint64
	statTilesTotal       atomic.Uint64
	statPolarSamples     atomic.Uint64
	statCellsPainted     atomic.Uint64
}

// Stats is a snapshot of the engine's performance counters.
type Stats struct {
	// Fixes counts successful BLoc fixes: every LocateOpts and
	// LocateShortestDistance call that returned a Result, gated or
	// full-grid. The baselines (AoA, MUSIC, RSSI, CTE) are not counted.
	Fixes uint64
	// PlaneBuilds counts steering-plane constructions: one per band plan
	// the engine has served (a stable deployment sits at 1).
	PlaneBuilds uint64
	// TableBytes is the resident footprint of all precomputed tables
	// (projection tables plus every cached steering plane).
	TableBytes uint64
	// PoolHits/PoolMisses count workspace acquisitions served from
	// (resp. missing) the engine's pool: one per fix and per Likelihood
	// call; steady state is all hits.
	PoolHits, PoolMisses uint64
	// ProjBuilds counts Fig. 6 line-projection table constructions: one
	// per reference anchor that AngleLikelihoodXY, DistanceLikelihoodXY or
	// LocateAoASoft has painted against. The BLoc fixes never build them,
	// so a serving engine sits at 0.
	ProjBuilds uint64
	// RowsMasked counts α rows that arrived in a snapshot but were zeroed
	// by the finite/denormal guard (NaN/Inf products or zero/denormal
	// reference tones) on the pooled fix path.
	RowsMasked uint64
	// GatedFixes counts fixes served by the prior-gated coarse-to-fine
	// path; FullFixes counts full-grid likelihood fixes (including gated
	// attempts that fell back). Fixes = GatedFixes + FullFixes for the
	// BLoc estimators.
	GatedFixes, FullFixes uint64
	// FallbackDisagree/FallbackLowConf/FallbackNoPeaks count gated
	// attempts that fell back to the full grid, by trigger: coarse argmax
	// outside the prior ellipse, a flat coarse surface selecting too many
	// tiles, and a refined surface yielding no scoreable peak.
	FallbackDisagree, FallbackLowConf, FallbackNoPeaks uint64
	// TilesRefined/TilesTotal accumulate, over gated fixes, how many
	// refinement tiles were evaluated out of how many the room has — the
	// refined-area fraction is TilesRefined/TilesTotal.
	TilesRefined, TilesTotal uint64
	// PolarSamples counts the complex multiply-accumulates the polar row
	// kernel issued (one per band per evaluated (θ, Δ) sample, coarse
	// and refinement passes alike); CellsPainted counts the XY cells
	// the refinement painted. Both are exact work counts: they depend
	// on the snapshots and the configuration, not on the host or on
	// which row kernel ran.
	PolarSamples, CellsPainted uint64
}

// Stats returns the engine's cumulative performance counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Fixes:            e.statFixes.Load(),
		PlaneBuilds:      e.statPlaneBuilds.Load(),
		TableBytes:       e.statTableBytes.Load(),
		PoolHits:         e.statPoolHits.Load(),
		PoolMisses:       e.statPoolMisses.Load(),
		ProjBuilds:       e.statProjBuilds.Load(),
		RowsMasked:       e.statRowsMasked.Load(),
		GatedFixes:       e.statGatedFixes.Load(),
		FullFixes:        e.statFullFixes.Load(),
		FallbackDisagree: e.statFallbackDisagree.Load(),
		FallbackLowConf:  e.statFallbackLowConf.Load(),
		FallbackNoPeaks:  e.statFallbackNoPeaks.Load(),
		TilesRefined:     e.statTilesRefined.Load(),
		TilesTotal:       e.statTilesTotal.Load(),
		PolarSamples:     e.statPolarSamples.Load(),
		CellsPainted:     e.statCellsPainted.Load(),
	}
}

// NewEngine validates the configuration and precomputes grids.
func NewEngine(anchors []geom.Array, cfg Config) (*Engine, error) {
	if len(anchors) < 2 {
		return nil, fmt.Errorf("core: need at least 2 anchors, got %d", len(anchors))
	}
	if cfg.CellM <= 0 || cfg.ThetaStepDeg <= 0 || cfg.DeltaStepM <= 0 {
		return nil, fmt.Errorf("core: non-positive grid resolution in config")
	}
	if cfg.Room.Width() <= 0 || cfg.Room.Height() <= 0 {
		return nil, fmt.Errorf("core: degenerate room %v", cfg.Room)
	}
	if cfg.EntropyWindow < 3 {
		return nil, fmt.Errorf("core: entropy window %d too small", cfg.EntropyWindow)
	}
	if cfg.EntropyStride < 1 {
		return nil, fmt.Errorf("core: entropy stride %d must be positive", cfg.EntropyStride)
	}
	cfg.Gate = cfg.Gate.withDefaults()
	if !cfg.Gate.valid() {
		return nil, fmt.Errorf("core: invalid gate config %+v", cfg.Gate)
	}
	e := &Engine{cfg: cfg, anchors: anchors}

	// θ grid spans the front half-plane of each array.
	step := geom.Rad(cfg.ThetaStepDeg)
	for t := -math.Pi / 2; t <= math.Pi/2+1e-9; t += step {
		e.thetas = append(e.thetas, t)
	}

	// Δd grid: relative distances are bounded by the room diagonal (the
	// triangle inequality: |d_i − d_0| ≤ |anchor_i − anchor_0| ≤ diag,
	// and candidate points inside the room keep |Δ| under the diagonal).
	diag := math.Hypot(cfg.Room.Width(), cfg.Room.Height())
	for d := -diag; d <= diag+1e-9; d += cfg.DeltaStepM {
		e.deltas = append(e.deltas, d)
	}

	if len(e.thetas) < 2 || len(e.deltas) < 2 {
		return nil, fmt.Errorf("core: polar grid %dx%d too coarse (θ or Δ resolution larger than its span)",
			len(e.thetas), len(e.deltas))
	}
	e.sinThetas = make([]float64, len(e.thetas))
	for t, theta := range e.thetas {
		e.sinThetas[t] = math.Sin(theta)
	}

	e.anchorDist = make([]float64, len(anchors))
	m0 := anchors[0].Antenna(0)
	for i, a := range anchors {
		e.anchorDist[i] = a.Antenna(0).Dist(m0)
	}

	// Distinct antenna spacings (almost always one): the per-spacing
	// angle-rotor tables are shared by every anchor with that spacing.
	e.spacingIdx = make([]int, len(anchors))
	for i, a := range anchors {
		idx := -1
		for si, l := range e.spacings {
			if math.Float64bits(l) == math.Float64bits(a.Spacing) {
				idx = si
				break
			}
		}
		if idx < 0 {
			idx = len(e.spacings)
			e.spacings = append(e.spacings, a.Spacing)
		}
		e.spacingIdx[i] = idx
	}

	e.nx = int(math.Ceil(cfg.Room.Width()/cfg.CellM)) + 1
	e.ny = int(math.Ceil(cfg.Room.Height()/cfg.CellM)) + 1
	e.x0, e.y0 = cfg.Room.Min.X, cfg.Room.Min.Y

	e.projSets = make(map[int][]anchorProj)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Anchors returns the deployment geometry.
func (e *Engine) Anchors() []geom.Array { return e.anchors }

// GridSize returns the XY grid dimensions.
func (e *Engine) GridSize() (nx, ny int) { return e.nx, e.ny }

// CellCenter returns the room coordinates of cell (ix, iy).
func (e *Engine) CellCenter(ix, iy int) geom.Point {
	return geom.Pt(e.x0+float64(ix)*e.cfg.CellM, e.y0+float64(iy)*e.cfg.CellM)
}

// cellOf returns fractional cell coordinates of a point.
func (e *Engine) cellOf(p geom.Point) (fx, fy float64) {
	return (p.X - e.x0) / e.cfg.CellM, (p.Y - e.y0) / e.cfg.CellM
}
