package core

import (
	"math"

	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Prior-gated coarse-to-fine search. Once a tag is tracked, its Kalman
// confidence ellipse bounds where the next fix can plausibly land, and
// the likelihood surface is sharply peaked — evaluating the whole grid
// is wasted work. LocateOpts runs a two-stage search instead:
//
//  1. A coarse pass evaluates every CoarseStep-th XY cell against a
//     (θ/CoarseThetaStep, Δ/CoarseDeltaStep)-decimated polar grid using
//     float32 SoA kernels (polar32.go). The coarse surface selects
//     refinement tiles (any coarse cell ≥ SelectSafety·PeakMinFrac of
//     the coarse maximum), unioned with every tile the prior ellipse
//     touches, dilated by one tile ring so peak neighborhoods and the
//     entropy window stay covered.
//  2. Only the selected tiles are refined at full resolution (refine):
//     the float32 polar kernel fills just the θ-row/Δ spans the tiles'
//     projection cells sample, and the tiled SoA projection paints the
//     selected cells into the fix workspace's full-resolution grid,
//     cleared per fix, whose peaks pick (score.go) extracts and scores
//     with Eq. 18.
//
// Stage 2 is the only likelihood kernel: a full-grid fix (no prior,
// track loss, or a gate fallback) runs the same refine and pick with
// every tile selected, in the same workspace (locate, estimate.go). The
// gate refuses — and the fix falls back to that full-grid refinement on
// the same corrected channels — whenever its assumptions
// fail: the coarse argmax lands outside the (margin-grown) prior
// ellipse, the coarse surface is too flat to select a small tile set, or
// the refined surface yields no scoreable peak. The gated path only
// decides *where* to look: a looked-at cell goes through the kernel the
// full-grid fix runs, and only the interpolation's sample phase (set by
// the span) and the per-anchor normalization can differ.
//
// Every fix runs sequentially on the calling goroutine: serving-plane
// parallelism comes from concurrent fixes, not from splitting one.

// Prior is a spatial prior for the gated search: the tracker's
// confidence ellipse (center, semi-axes in meters, orientation in
// radians CCW from +x), typically produced by GatePolicy.Prior from
// track.Filter.ConfidenceEllipse.
type Prior struct {
	Center               geom.Point
	SemiMajor, SemiMinor float64
	Theta                float64
}

// Contains reports whether q lies inside the prior ellipse grown by
// margin meters on both axes.
func (p *Prior) Contains(q geom.Point, margin float64) bool {
	a := p.SemiMajor + margin
	b := p.SemiMinor + margin
	if a <= 0 || b <= 0 {
		return false
	}
	d := q.Sub(p.Center)
	s, c := math.Sincos(p.Theta)
	u := d.X*c + d.Y*s
	v := -d.X*s + d.Y*c
	return (u/a)*(u/a)+(v/b)*(v/b) <= 1
}

// Gate-refusal reasons, reported in Result.Fallback and counted in
// Stats.
const (
	FallbackDisagree = "disagree" // coarse argmax outside the prior ellipse
	FallbackLowConf  = "lowconf"  // flat coarse surface selected too many tiles
	FallbackNoPeaks  = "nopeaks"  // refined surface yielded no scoreable peak
)

// GatePolicy turns a tracker's 1σ confidence ellipse into a search Prior
// with hysteretic inflation: every fallback doubles the prior's scale
// (the covariance is evidently under-selling the tag's mobility), every
// gated success halves it back toward 1. A GatePolicy is not safe for
// concurrent use; serving planes hold one per tag under the tag-state
// lock.
type GatePolicy struct {
	// Sigmas is the k of the k·σ ellipse (default 3).
	Sigmas float64
	// InflateOnFallback multiplies the inflation after a fallback
	// (default 2); MaxInflate caps it (default 8).
	InflateOnFallback float64
	MaxInflate        float64
	// MinRadiusM floors each semi-axis in meters (default 0.25), so a
	// fully settled filter still admits measurement-noise-sized motion.
	MinRadiusM float64

	inflate float64
}

// NewGatePolicy returns a policy with the default hysteresis parameters.
func NewGatePolicy() *GatePolicy {
	return &GatePolicy{Sigmas: 3, InflateOnFallback: 2, MaxInflate: 8, MinRadiusM: 0.25, inflate: 1}
}

// scale is the current total k·inflation factor, tolerant of zero-value
// fields so a literal GatePolicy{} still behaves like the defaults.
func (g *GatePolicy) scale() float64 {
	s := g.Sigmas
	if s <= 0 {
		s = 3
	}
	i := g.inflate
	if i < 1 {
		i = 1
	}
	return s * i
}

// Prior scales a 1σ ellipse (center, semi-axes, orientation — the shape
// track.Filter.ConfidenceEllipse(1) reports) by the current
// k·inflation and applies the radius floor.
func (g *GatePolicy) Prior(center geom.Point, semiMajor, semiMinor, theta float64) Prior {
	s := g.scale()
	a, b := semiMajor*s, semiMinor*s
	min := g.MinRadiusM
	if min <= 0 {
		min = 0.25
	}
	if a < min {
		a = min
	}
	if b < min {
		b = min
	}
	return Prior{Center: center, SemiMajor: a, SemiMinor: b, Theta: theta}
}

// Observe updates the hysteresis from a fix outcome: gated successes
// decay the inflation, fallbacks grow it. Full-grid fixes that never
// attempted the gate (Fallback == "") leave it unchanged.
func (g *GatePolicy) Observe(res *Result) {
	if g.inflate < 1 {
		g.inflate = 1
	}
	switch {
	case res == nil:
	case res.Gated:
		g.inflate /= 2
		if g.inflate < 1 {
			g.inflate = 1
		}
	case res.Fallback != "":
		f := g.InflateOnFallback
		if f <= 1 {
			f = 2
		}
		max := g.MaxInflate
		if max < 1 {
			max = 8
		}
		g.inflate *= f
		if g.inflate > max {
			g.inflate = max
		}
	}
}

// gatedTables holds the precomputed coarse and tiled projection tables
// of the gated search for one reference anchor. Immutable after
// construction.
type gatedTables struct {
	cnx, cny int // coarse XY grid dims (every CoarseStep-th cell)
	cT, cD   int // decimated polar dims
	tnx, tny int // refinement tiling dims (TileCells edge)

	coarse []coarseProj  // per anchor
	tiles  []anchorTiles // per anchor
	bytes  int
}

// coarseProj maps each in-range coarse XY cell of one anchor to its
// decimated polar sources: the nearest decimated θ row, and a two-tap
// linear interpolation between adjacent decimated Δ columns (src and
// src+1, weighted w). The Δ magnitude profile is smooth (see
// polar32.go), so interpolating Δ lets the coarse pass halve its Δ
// sample count without widening the undershoot that SelectSafety must
// absorb; θ stays nearest-row, which dominates the residual undershoot.
type coarseProj struct {
	xy  []int32   // coarse XY index (ciy*cnx + cix)
	src []int32   // low decimated polar tap (ct*cD + cd); src+1 in-row
	w   []float32 // Δ interpolation weight of the src+1 tap
	// dLo/dHi give, per decimated θ row, the half-open decimated-Δ span
	// any coarse cell samples; rows nobody samples have dLo >= dHi.
	dLo, dHi []int32
}

// anchorTiles regroups one anchor's full-resolution projection cells
// (polarCells) by refinement tile, in SoA float32 lanes: tile ti's
// cells occupy lane indices [off[ti], off[ti+1]). tLo/tHi and dLo/dHi
// bound, per tile, the polar rows and Δ columns the tile's cells sample
// (half-open), so the refinement kernel fills only what the selected
// tiles will read.
type anchorTiles struct {
	off                []int32
	tLo, tHi, dLo, dHi []int32

	xy                 []int32
	i00, i10, i01, i11 []int32
	w00, w10, w01, w11 []float32
}

// gatedFor returns the gated tables for the given reference anchor,
// building and caching on first use (same pattern as projections).
func (e *Engine) gatedFor(ref int) *gatedTables {
	e.gatedMu.RLock()
	gt, ok := e.gatedSets[ref]
	e.gatedMu.RUnlock()
	if ok {
		return gt
	}
	e.gatedMu.Lock()
	defer e.gatedMu.Unlock()
	if gt, ok := e.gatedSets[ref]; ok {
		return gt
	}
	gt = e.buildGatedFor(ref)
	if e.gatedSets == nil {
		e.gatedSets = make(map[int]*gatedTables)
	}
	e.gatedSets[ref] = gt
	return gt
}

// buildGatedFor derives the coarse nearest-sample tables from the
// deployment geometry and regroups the full-resolution projection cells
// by tile.
func (e *Engine) buildGatedFor(ref int) *gatedTables {
	g := &e.cfg.Gate
	cs, ts, ds, tc := g.CoarseStep, g.CoarseThetaStep, g.CoarseDeltaStep, g.TileCells
	T, D := len(e.thetas), len(e.deltas)
	gt := &gatedTables{
		cnx: (e.nx + cs - 1) / cs, cny: (e.ny + cs - 1) / cs,
		cT: (T + ts - 1) / ts, cD: (D + ds - 1) / ds,
		tnx: (e.nx + tc - 1) / tc, tny: (e.ny + tc - 1) / tc,
	}

	tStep := e.thetas[1] - e.thetas[0]
	dStep := e.deltas[1] - e.deltas[0]
	tMin, tMax := e.thetas[0], e.thetas[len(e.thetas)-1]
	dMin, dMax := e.deltas[0], e.deltas[len(e.deltas)-1]
	master0 := e.anchors[ref].Antenna(0)

	gt.coarse = make([]coarseProj, len(e.anchors))
	for i, arr := range e.anchors {
		cp := &gt.coarse[i]
		cp.dLo = make([]int32, gt.cT)
		cp.dHi = make([]int32, gt.cT)
		for ct := range cp.dLo {
			cp.dLo[ct] = int32(gt.cD)
		}
		ant0 := arr.Antenna(0)
		for ciy := 0; ciy < gt.cny; ciy++ {
			for cix := 0; cix < gt.cnx; cix++ {
				p := e.CellCenter(cix*cs, ciy*cs)
				theta := arr.AngleTo(p)
				delta := p.Dist(ant0) - p.Dist(master0)
				if theta < tMin || theta > tMax || delta < dMin || delta > dMax {
					continue
				}
				ct := int((theta-tMin)/tStep/float64(ts) + 0.5)
				if ct > gt.cT-1 {
					ct = gt.cT - 1
				}
				fd := (delta - dMin) / dStep / float64(ds)
				cd := int(fd)
				w := float32(fd - float64(cd))
				// Keep both taps inside the row; past the last sample
				// pair the low tap is held and the weight saturates.
				if cd > gt.cD-2 {
					cd = gt.cD - 2
					w = 1
					if cd < 0 { // degenerate single-column grid
						cd, w = 0, 0
					}
				}
				cdHi := cd + 1
				if cdHi > gt.cD-1 {
					cdHi = gt.cD - 1
				}
				cp.xy = append(cp.xy, int32(ciy*gt.cnx+cix))
				cp.src = append(cp.src, int32(ct*gt.cD+cd))
				cp.w = append(cp.w, w)
				if int32(cd) < cp.dLo[ct] {
					cp.dLo[ct] = int32(cd)
				}
				if int32(cdHi+1) > cp.dHi[ct] {
					cp.dHi[ct] = int32(cdHi + 1)
				}
			}
		}
	}

	nt := gt.tnx * gt.tny
	gt.tiles = make([]anchorTiles, len(e.anchors))
	for i := range e.anchors {
		cells := e.polarCells(i, ref)
		at := &gt.tiles[i]
		at.off = make([]int32, nt+1)
		at.tLo, at.tHi = make([]int32, nt), make([]int32, nt)
		at.dLo, at.dHi = make([]int32, nt), make([]int32, nt)
		for ti := range at.tLo {
			at.tLo[ti], at.dLo[ti] = int32(T), int32(D)
		}
		for ci := range cells {
			at.off[e.tileOf(int(cells[ci].xy), gt.tnx)+1]++
		}
		for ti := 0; ti < nt; ti++ {
			at.off[ti+1] += at.off[ti]
		}
		n := len(cells)
		at.xy = make([]int32, n)
		at.i00, at.i10 = make([]int32, n), make([]int32, n)
		at.i01, at.i11 = make([]int32, n), make([]int32, n)
		at.w00, at.w10 = make([]float32, n), make([]float32, n)
		at.w01, at.w11 = make([]float32, n), make([]float32, n)
		cursor := make([]int32, nt)
		copy(cursor, at.off[:nt])
		for ci := range cells {
			c := &cells[ci]
			ti := e.tileOf(int(c.xy), gt.tnx)
			k := cursor[ti]
			cursor[ti]++
			at.xy[k] = c.xy
			at.i00[k], at.i10[k], at.i01[k], at.i11[k] = c.i00, c.i10, c.i01, c.i11
			at.w00[k], at.w10[k] = float32(c.w00), float32(c.w10)
			at.w01[k], at.w11[k] = float32(c.w01), float32(c.w11)
			// Polar bounding box: i00 is the (low θ, low Δ) corner and i11
			// the (high θ, high Δ) corner by construction.
			t0, t1 := c.i00/int32(D), c.i11/int32(D)
			d0, d1 := c.i00%int32(D), c.i11%int32(D)
			if t0 < at.tLo[ti] {
				at.tLo[ti] = t0
			}
			if t1+1 > at.tHi[ti] {
				at.tHi[ti] = t1 + 1
			}
			if d0 < at.dLo[ti] {
				at.dLo[ti] = d0
			}
			if d1+1 > at.dHi[ti] {
				at.dHi[ti] = d1 + 1
			}
		}
	}

	for i := range gt.coarse {
		cp := &gt.coarse[i]
		gt.bytes += (len(cp.xy) + len(cp.src) + len(cp.w) + len(cp.dLo) + len(cp.dHi)) * 4
		at := &gt.tiles[i]
		gt.bytes += (len(at.off) + 5*nt) * 4 // off + four bbox lanes
		gt.bytes += len(at.xy) * 4 * 9       // nine 4-byte SoA lanes
	}
	e.statTableBytes.Add(uint64(gt.bytes))
	return gt
}

// tileOf maps a full-resolution XY cell index to its refinement tile.
func (e *Engine) tileOf(xy, tnx int) int {
	tc := e.cfg.Gate.TileCells
	return (xy / e.nx / tc * tnx) + (xy % e.nx / tc)
}

// gate runs stage 1 of a prior-gated fix on checked, corrected
// channels: the coarse pass, the coarse/prior agreement check and tile
// selection. On success it leaves the refined tile mask in r.tiles and
// the per-anchor coarse maxima in r.cmax, and returns ("", the number of
// tiles to refine); otherwise it returns the refusal reason and the
// caller falls back to the full grid.
func (e *Engine) gate(r *fixRun, ps *planeSet, gt *gatedTables, a *Alpha, prior *Prior) (string, int) {
	g := &e.cfg.Gate
	I := a.NumAnchors()

	// ---- Stage 1: coarse decimated pass. ----
	nc := gt.cnx * gt.cny
	r.ccomb = growF32(r.ccomb, nc)
	clear(r.ccomb)
	r.cpolar = growF32(r.cpolar, gt.cT*gt.cD+1)
	r.cpolar[gt.cT*gt.cD] = 0 // headroom slot for the saturated last Δ tap
	r.cmax = growF64(r.cmax, I)
	r.avp = growC128(r.avp, a.NumBands()*a.NumAntennas())
	for i := 0; i < I; i++ {
		if a.PresentBands(i) == 0 {
			continue
		}
		cp := &gt.coarse[i]
		bfCoeffs(ps, a, i, r.avp)
		e.statPolarSamples.Add(e.coarsePolarFill32(ps, cp, a, i, gt.cT, gt.cD, r.cpolar, &r.row, r.avp))
		r.cvals = growF32(r.cvals, len(cp.src))
		var m float32
		for c, src := range cp.src {
			v := r.cpolar[src]
			v += (r.cpolar[src+1] - v) * cp.w[c]
			r.cvals[c] = v
			if v > m {
				m = v
			}
		}
		r.cmax[i] = float64(m)
		inv := float32(1)
		if e.cfg.NormalizePerAnchor && m > 0 {
			inv = 1 / m
		}
		for c, xy := range cp.xy {
			r.ccomb[xy] += r.cvals[c] * inv
		}
	}
	var cmax float32
	argc := -1
	for c, v := range r.ccomb {
		if v > cmax {
			cmax, argc = v, c
		}
	}
	if argc < 0 || !(cmax > 0) {
		return FallbackNoPeaks, 0
	}
	coarseEst := e.CellCenter(argc%gt.cnx*g.CoarseStep, argc/gt.cnx*g.CoarseStep)
	if !prior.Contains(coarseEst, g.DisagreeMarginM) {
		return FallbackDisagree, 0
	}

	// ---- Tile selection: prior-compatible coarse peaks, one-ring dilation. ----
	// A tile is value-selected when it contains a coarse local maximum
	// at ≥ SelectSafety·PeakMinFrac of the coarse global maximum — the
	// decimated mirror of FindPeaks' acceptance rule, with SelectSafety
	// absorbing decimation undershoot — AND that maximum is compatible
	// with the prior (inside the margin-grown ellipse). This is where
	// the tracker actually prunes work: the multipath surface carries
	// reflection peaks all over the room, but for a tracked tag every
	// peak outside the confidence ellipse is one the downstream track
	// gate would reject anyway, so it is never refined or scored. The
	// dominant peak's compatibility was just established by the
	// disagree check, so at least one tile is always selected.
	nt := gt.tnx * gt.tny
	r.sel = growBools(r.sel, nt)
	clear(r.sel)
	thr := float32(g.SelectSafety*e.cfg.PeakMinFrac) * cmax
	nSel := 0
	for c, v := range r.ccomb {
		if v < thr {
			continue
		}
		cix, ciy := c%gt.cnx, c/gt.cnx
		if !prior.Contains(e.CellCenter(cix*g.CoarseStep, ciy*g.CoarseStep), g.DisagreeMarginM) {
			continue
		}
		localMax := true
		for dy := -1; dy <= 1 && localMax; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := cix+dx, ciy+dy
				if qx < 0 || qx >= gt.cnx || qy < 0 || qy >= gt.cny {
					continue
				}
				if r.ccomb[qy*gt.cnx+qx] > v {
					localMax = false
					break
				}
			}
		}
		if !localMax {
			continue
		}
		ti := e.tileOf((ciy*g.CoarseStep)*e.nx+cix*g.CoarseStep, gt.tnx)
		if !r.sel[ti] {
			r.sel[ti] = true
			nSel++
		}
	}
	if float64(nSel) > g.MaxTileFrac*float64(nt) {
		return FallbackLowConf, 0
	}
	// Peak-bearing tiles get a one-tile ring: it absorbs the coarse→full
	// argmax shift and keeps the Eq. 18 entropy window (±EntropyWindow/2
	// · EntropyStride cells < TileCells) fully painted around any
	// candidate.
	r.tiles = growBools(r.tiles, nt)
	clear(r.tiles)
	refined := 0
	for ti, on := range r.sel {
		if !on {
			continue
		}
		tix, tiy := ti%gt.tnx, ti/gt.tnx
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := tix+dx, tiy+dy
				if qx < 0 || qx >= gt.tnx || qy < 0 || qy >= gt.tny {
					continue
				}
				if !r.tiles[qy*gt.tnx+qx] {
					r.tiles[qy*gt.tnx+qx] = true
					refined++
				}
			}
		}
	}
	// Tiles the prior ellipse touches are refined too (undilated — they
	// carry no coarse peak, they just keep the tag's plausible
	// neighborhood painted): tile-vs-ellipse intersection is
	// approximated conservatively by growing the ellipse by the tile
	// half-diagonal.
	halfDiag := float64(g.TileCells) * e.cfg.CellM * math.Sqrt2 / 2
	for tiy := 0; tiy < gt.tny; tiy++ {
		for tix := 0; tix < gt.tnx; tix++ {
			center := e.CellCenter(tix*g.TileCells+g.TileCells/2, tiy*g.TileCells+g.TileCells/2)
			ti := tiy*gt.tnx + tix
			if !r.tiles[ti] && prior.Contains(center, halfDiag) {
				r.tiles[ti] = true
				refined++
			}
		}
	}
	return "", refined
}

// selectAll marks every refinement tile: the full-grid mask.
func (r *fixRun) selectAll(gt *gatedTables) {
	r.tiles = growBools(r.tiles, gt.tnx*gt.tny)
	for ti := range r.tiles {
		r.tiles[ti] = true
	}
}

// refine is stage 2 of every BLoc fix: for each anchor with a usable
// band it folds the beamforming coefficients (bfCoeffs), fills the
// float32 polar plane over the θ-row/Δ spans the cells of the tiles in
// r.tiles sample (polarFill32), paints those cells through the tiled
// SoA projection and adds the normalized map into r.grid, which it
// clears first, so cells outside the tiles stay 0. Gated fixes mask
// their selected tiles; full-grid fixes and Likelihood mask every tile
// (selectAll). Everything runs on the calling goroutine.
//
// Each anchor's map is normalized by its painted maximum, raised to
// cmax[i] when cmax is non-nil: a gated fix paints a subset of the room,
// and the coarse maximum (an exact float32 evaluation of the same surface
// at decimated points) recovers the anchor's true maximum to within
// decimation error. A non-nil perAnchor receives each anchor's
// normalized map; anchors without a usable band stay nil.
func (e *Engine) refine(r *fixRun, ps *planeSet, gt *gatedTables, a *Alpha, cmax []float64, perAnchor []*dsp.Grid) {
	T, D := len(e.thetas), len(e.deltas)
	r.grid.W, r.grid.H = e.nx, e.ny
	r.grid.Data = growF64(r.grid.Data, e.nx*e.ny)
	clear(r.grid.Data)
	tiles := r.tiles
	r.polar = growF32(r.polar, T*D)
	r.rowLo = growI32(r.rowLo, T)
	r.rowHi = growI32(r.rowHi, T)
	r.avp = growC128(r.avp, a.NumBands()*a.NumAntennas())
	for i := 0; i < a.NumAnchors(); i++ {
		if a.PresentBands(i) == 0 {
			continue
		}
		var xy *dsp.Grid
		if perAnchor != nil {
			xy = dsp.NewGrid(e.nx, e.ny)
			perAnchor[i] = xy
		}
		at := &gt.tiles[i]
		for t := range r.rowLo {
			r.rowLo[t], r.rowHi[t] = int32(D), 0
		}
		painted := false
		for ti, on := range tiles {
			if !on || at.off[ti+1] == at.off[ti] {
				continue
			}
			painted = true
			for t := at.tLo[ti]; t < at.tHi[ti]; t++ {
				if at.dLo[ti] < r.rowLo[t] {
					r.rowLo[t] = at.dLo[ti]
				}
				if at.dHi[ti] > r.rowHi[t] {
					r.rowHi[t] = at.dHi[ti]
				}
			}
		}
		if !painted {
			continue
		}
		bfCoeffs(ps, a, i, r.avp)
		e.statPolarSamples.Add(e.polarFill32(ps, a, i, r.polar, r.rowLo, r.rowHi, &r.row, r.avp))

		// Paint the masked tiles, collecting the painted maximum for the
		// deferred normalization.
		r.vals = growF32(r.vals, len(at.xy))
		n := 0
		var pm float32
		for ti, on := range tiles {
			if !on {
				continue
			}
			c0, c1 := at.off[ti], at.off[ti+1]
			vals := r.vals[n : n+int(c1-c0)]
			pm = paintCells(r.polar, at.i00[c0:c1], at.i10[c0:c1], at.i01[c0:c1], at.i11[c0:c1],
				at.w00[c0:c1], at.w10[c0:c1], at.w01[c0:c1], at.w11[c0:c1], vals, pm)
			n += len(vals)
		}
		e.statCellsPainted.Add(uint64(n))
		denom := float64(pm)
		if cmax != nil && cmax[i] > denom {
			denom = cmax[i]
		}
		inv := 1.0
		if e.cfg.NormalizePerAnchor && denom > 0 {
			inv = 1 / denom
		}
		n = 0
		cd := r.grid.Data
		for ti, on := range tiles {
			if !on {
				continue
			}
			cells := at.xy[at.off[ti]:at.off[ti+1]]
			vals := r.vals[n : n+len(cells)]
			for c, p := range cells {
				cd[p] += float64(vals[c]) * inv
			}
			if xy != nil {
				for c, p := range cells {
					xy.Data[p] = float64(vals[c]) * inv
				}
			}
			n += len(cells)
		}
	}
}
