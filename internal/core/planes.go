package core

import (
	"math"

	"bloc/internal/rfsim"
)

// This file implements the engine's precompute layer. Everything the
// Eq. 15–17 kernels need that depends only on the deployment — anchor
// geometry, the (θ, Δ) polar grids, the XY room grid and the band plan —
// is hoisted out of the per-fix path into two kinds of tables:
//
//   - Projection tables (anchorProj), built once per reference anchor on
//     first use by the Fig. 6 paintings and the soft-AoA baseline: for
//     every XY cell in front of an anchor, the spectrum indices and
//     linear weights that angleSpectrumToXY / DistanceLikelihoodXY would
//     otherwise re-derive with atan2/hypot per cell per fix. Cells that
//     project out of range are simply absent from the packed lists. The
//     joint polar → XY projection lives in the gated tables instead
//     (gated.go), regrouped by refinement tile from polarCells.
//
//   - Steering planes (planeSet), built once per band plan on first use
//     and cached on the engine: the angular frequencies w_k, the base
//     distance steering e^{ι w_k Δ_d} (shared by all anchors, split into
//     re/im planes so the hot loop is scalar FMA-friendly), the
//     per-anchor phase rotors e^{−ι w_k D_i}, and the per-antenna-spacing
//     angle rotors e^{−ι w_k l sinθ_t}. A deployment uses one band plan,
//     so steady state is a read-lock lookup; band-subset sweeps (Fig. 10,
//     Fig. 11) each build and cache their own plane once.

// projCell maps one XY cell to its four bilinear source cells in a polar
// (θ, Δ) grid. Indices address a row-major, D-wide polar plane.
type projCell struct {
	xy                 int32 // XY cell index (iy*nx + ix)
	i00, i10, i01, i11 int32 // polar source indices
	w00, w10, w01, w11 float64
}

// lineCell maps one XY cell to a linear interpolation between two entries
// of a 1-D spectrum (θ-only or Δ-only likelihood painting).
type lineCell struct {
	xy     int32
	i0, i1 int32
	fr     float64
}

// anchorProj holds one anchor's spectrum projection tables.
type anchorProj struct {
	angle []lineCell // θ spectrum → XY (cells with θ in range)
	dist  []lineCell // Δ spectrum → XY (cells with Δ in range)
}

// projections returns the per-anchor projection tables for the given
// reference anchor, building and caching them on first use; later calls
// are a shared-lock map hit.
func (e *Engine) projections(ref int) []anchorProj {
	e.projMu.RLock()
	set, ok := e.projSets[ref]
	e.projMu.RUnlock()
	if ok {
		return set
	}
	e.projMu.Lock()
	defer e.projMu.Unlock()
	if set, ok := e.projSets[ref]; ok {
		return set
	}
	set = e.buildProjectionsFor(ref)
	e.projSets[ref] = set
	return set
}

// buildProjectionsFor derives every anchor's spectrum projection tables
// from the deployment geometry for one reference anchor: Δ at each XY
// cell is the distance to the anchor minus the distance to the
// reference's antenna 0. The per-cell trigonometry (AngleTo, Dist) runs
// once per (engine, reference) instead of once per fix.
func (e *Engine) buildProjectionsFor(ref int) []anchorProj {
	T, D := len(e.thetas), len(e.deltas)
	tStep := e.thetas[1] - e.thetas[0]
	dStep := e.deltas[1] - e.deltas[0]
	tMin, tMax := e.thetas[0], e.thetas[len(e.thetas)-1]
	dMin, dMax := e.deltas[0], e.deltas[len(e.deltas)-1]
	master0 := e.anchors[ref].Antenna(0)

	proj := make([]anchorProj, len(e.anchors))
	for i, arr := range e.anchors {
		ant0 := arr.Antenna(0)
		pr := &proj[i]
		for iy := 0; iy < e.ny; iy++ {
			for ix := 0; ix < e.nx; ix++ {
				p := e.CellCenter(ix, iy)
				xy := int32(iy*e.nx + ix)
				if theta := arr.AngleTo(p); theta >= tMin && theta <= tMax {
					ft := (theta - tMin) / tStep
					t0 := int(ft)
					pr.angle = append(pr.angle, lineCell{
						xy: xy, i0: int32(t0), i1: int32(min(t0+1, T-1)), fr: ft - float64(t0),
					})
				}
				if delta := p.Dist(ant0) - p.Dist(master0); delta >= dMin && delta <= dMax {
					fd := (delta - dMin) / dStep
					d0 := int(fd)
					pr.dist = append(pr.dist, lineCell{
						xy: xy, i0: int32(d0), i1: int32(min(d0+1, D-1)), fr: fd - float64(d0),
					})
				}
			}
		}
	}

	var bytes int
	for i := range proj {
		bytes += (len(proj[i].angle) + len(proj[i].dist)) * lineCellBytes
	}
	e.statTableBytes.Add(uint64(bytes))
	e.statProjBuilds.Add(1)
	return proj
}

// polarCells lists, for one anchor and reference, every XY cell whose θ
// and Δ both fall inside the polar grid, with its four bilinear polar
// sources. The table is transient: buildGatedFor regroups it by tile
// into float32 SoA lanes and drops it.
func (e *Engine) polarCells(anchor, ref int) []projCell {
	T, D := len(e.thetas), len(e.deltas)
	tStep := e.thetas[1] - e.thetas[0]
	dStep := e.deltas[1] - e.deltas[0]
	tMin, tMax := e.thetas[0], e.thetas[len(e.thetas)-1]
	dMin, dMax := e.deltas[0], e.deltas[len(e.deltas)-1]
	arr := e.anchors[anchor]
	ant0, master0 := arr.Antenna(0), e.anchors[ref].Antenna(0)

	var cells []projCell
	for iy := 0; iy < e.ny; iy++ {
		for ix := 0; ix < e.nx; ix++ {
			p := e.CellCenter(ix, iy)
			theta := arr.AngleTo(p)
			delta := p.Dist(ant0) - p.Dist(master0)
			if theta < tMin || theta > tMax || delta < dMin || delta > dMax {
				continue
			}
			// Mirror dsp.Grid.Bilinear's clamping exactly, so the table
			// samples the polar plane where the reference projection does.
			x := min((delta-dMin)/dStep, float64(D-1))
			y := min((theta-tMin)/tStep, float64(T-1))
			x0, y0 := int(x), int(y)
			x1, y1 := min(x0+1, D-1), min(y0+1, T-1)
			fx, fy := x-float64(x0), y-float64(y0)
			cells = append(cells, projCell{
				xy:  int32(iy*e.nx + ix),
				i00: int32(y0*D + x0), i10: int32(y0*D + x1),
				i01: int32(y1*D + x0), i11: int32(y1*D + x1),
				w00: (1 - fx) * (1 - fy), w10: fx * (1 - fy),
				w01: (1 - fx) * fy, w11: fx * fy,
			})
		}
	}
	return cells
}

const lineCellBytes = 4*3 + 8

// planeSet holds every steering table for one band plan (one freqs
// vector). All fields are immutable after construction.
type planeSet struct {
	freqs []float64 // defensive copy; cache identity
	w     []float64 // angular frequency 2π f_k / c per band

	// Base distance steering e^{ι w_k Δ_d}, row-major [k*D + d], split
	// into components so the Eq. 16 distance spectrum runs on flat
	// float64 slices. The anchor-dependent part e^{−ι w_k D_i} is
	// factored into phase below, saving an anchors× multiple of this
	// (large) table.
	baseRe, baseIm []float64

	// phase[i][k] = e^{−ι w_k D_i}: folded into B(θ, k) once per band per
	// θ row instead of into every Δ column.
	phase [][]complex128

	// steps[s][t*K + k] = e^{−ι w_k l_s sinθ_t} for the s-th distinct
	// antenna spacing: the per-antenna rotation of Eq. 15/17's inner sum.
	steps [][]complex128

	// stepPows[s][(t*K+k)*P + p-1] = steps[s][t*K+k]^p for p = 1..P,
	// P = maxAntennas−1. The angle spectrum and the reference kernels
	// compute these powers with a serial rotor chain per band; the
	// chain's multiply latency is what bounds that loop, so the likelihood
	// kernels read the precomputed powers instead and the beamforming sum
	// becomes a short independent dot product. nil when every anchor has
	// a single antenna.
	stepPows [][]complex128
	// stepP is P above: the number of powers stored per (θ row, band).
	stepP int

	// Float32 lanes of the base distance steering for the row kernel
	// (polar32.go): the refinement sweep's stride-refineDeltaStep lanes,
	// one per phase, and the coarse pass's stride-coarseDeltaStep,
	// phase-0 lane. Every Δ run either pass evaluates is contiguous in
	// one of them, at half the memory traffic of the float64 planes.
	fine, coarse deltaLanes

	bytes int
}

// hashFreqs keys the plane cache by the exact bit pattern of the band
// plan (FNV-1a over the float bits; equality is re-checked on lookup).
func hashFreqs(freqs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range freqs {
		b := math.Float64bits(f)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// sameFreqs compares band plans by exact bit pattern (avoiding float ==,
// and treating NaN payloads consistently).
func sameFreqs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// planesFor returns the steering planes for the given band plan, building
// and caching them on first use. Steady state is a shared-lock map hit.
func (e *Engine) planesFor(freqs []float64) *planeSet {
	h := hashFreqs(freqs)
	e.planeMu.RLock()
	for _, ps := range e.planes[h] {
		if sameFreqs(ps.freqs, freqs) {
			e.planeMu.RUnlock()
			return ps
		}
	}
	e.planeMu.RUnlock()

	e.planeMu.Lock()
	defer e.planeMu.Unlock()
	for _, ps := range e.planes[h] {
		if sameFreqs(ps.freqs, freqs) {
			return ps
		}
	}
	ps := e.buildPlanes(freqs)
	if e.planes == nil {
		e.planes = make(map[uint64][]*planeSet)
	}
	e.planes[h] = append(e.planes[h], ps)
	e.statPlaneBuilds.Add(1)
	e.statTableBytes.Add(uint64(ps.bytes))
	return ps
}

// buildPlanes computes a planeSet for one band plan.
func (e *Engine) buildPlanes(freqs []float64) *planeSet {
	K, T, D := len(freqs), len(e.thetas), len(e.deltas)
	ps := &planeSet{
		freqs:  append([]float64(nil), freqs...),
		w:      make([]float64, K),
		baseRe: make([]float64, K*D),
		baseIm: make([]float64, K*D),
		phase:  make([][]complex128, len(e.anchors)),
		steps:  make([][]complex128, len(e.spacings)),
	}
	for k, f := range freqs {
		ps.w[k] = 2 * math.Pi * f / rfsim.SpeedOfLight
	}
	for k := 0; k < K; k++ {
		row := k * D
		for d, delta := range e.deltas {
			s, c := math.Sincos(ps.w[k] * delta)
			ps.baseRe[row+d] = c
			ps.baseIm[row+d] = s
		}
	}
	S := e.gp.refineDeltaStep
	ps.fine = newDeltaLanes(ps.baseRe, ps.baseIm, K, D, S, S)
	ps.coarse = newDeltaLanes(ps.baseRe, ps.baseIm, K, D, e.gp.coarseDeltaStep, 1)
	for i := range e.anchors {
		ph := make([]complex128, K)
		for k := 0; k < K; k++ {
			s, c := math.Sincos(-ps.w[k] * e.anchorDist[i])
			ph[k] = complex(c, s)
		}
		ps.phase[i] = ph
	}
	for si, l := range e.spacings {
		st := make([]complex128, T*K)
		for t, sinT := range e.sinThetas {
			row := t * K
			for k := 0; k < K; k++ {
				s, c := math.Sincos(-ps.w[k] * l * sinT)
				st[row+k] = complex(c, s)
			}
		}
		ps.steps[si] = st
	}
	maxJ := 0
	for _, arr := range e.anchors {
		if arr.N > maxJ {
			maxJ = arr.N
		}
	}
	if P := maxJ - 1; P > 0 {
		ps.stepP = P
		ps.stepPows = make([][]complex128, len(e.spacings))
		for si := range e.spacings {
			st := ps.steps[si]
			pw := make([]complex128, T*K*P)
			for tk, step := range st {
				cur := step
				for p := 0; p < P; p++ {
					pw[tk*P+p] = cur
					cur *= step
				}
			}
			ps.stepPows[si] = pw
		}
	}
	ps.bytes = len(ps.freqs)*8 + len(ps.w)*8 +
		(len(ps.baseRe)+len(ps.baseIm))*8 +
		(len(ps.fine.re)+len(ps.fine.im)+len(ps.coarse.re)+len(ps.coarse.im))*4 +
		len(ps.phase)*K*16 + len(ps.steps)*T*K*16 +
		len(ps.stepPows)*T*K*ps.stepP*16
	return ps
}
