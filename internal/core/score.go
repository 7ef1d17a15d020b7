package core

import (
	"math"

	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Candidate is one likelihood peak with the quantities Eq. 18 combines.
type Candidate struct {
	Loc       geom.Point // room coordinates of the peak
	PeakValue float64    // p_x: joint likelihood at the peak
	Entropy   float64    // H: spatial negentropy of the 7×7 neighborhood
	SumDist   float64    // Σ_i d_i: total distance from all anchors
	Score     float64    // s_x = p_x · e^{bH − aΣd}
}

// pick extracts the peaks of the refined surface r.grid, scores them
// with Eq. 18 and returns the Result of the winner under sel; false
// when no peak survives.
//
// The surface is zero outside the tiles in r.tiles, so the peak scan
// only needs their bounding rect (candidatesIn): same peaks, a fraction
// of the full-grid scan. Painting only a subset of tiles creates
// artificial cliffs at the selection boundary, and a background cell on
// the high side of a cliff is a local maximum the full grid would never
// report. True candidates of a gated fix sit inside a value tile (± the
// coarse→full shift), a full ring away from any boundary — so any
// candidate whose 3×3 neighborhood leaves the refined region is a
// truncation artifact and is dropped before Eq. 18 gets to score it.
// With every tile selected the rect is the whole grid and every
// candidate is interior.
func (e *Engine) pick(r *fixRun, gt *gatedTables, sel func([]Candidate) (Candidate, bool)) (*Result, bool) {
	tc := e.cfg.Gate.TileCells
	minTx, minTy, maxTx, maxTy := gt.tnx, gt.tny, -1, -1
	for ti, on := range r.tiles {
		if !on {
			continue
		}
		tix, tiy := ti%gt.tnx, ti/gt.tnx
		if tix < minTx {
			minTx = tix
		}
		if tix > maxTx {
			maxTx = tix
		}
		if tiy < minTy {
			minTy = tiy
		}
		if tiy > maxTy {
			maxTy = tiy
		}
	}
	cands := e.candidatesIn(r, &r.grid, minTx*tc, minTy*tc, (maxTx+1)*tc, (maxTy+1)*tc)
	kept := cands[:0]
	for _, c := range cands {
		fx, fy := e.cellOf(c.Loc)
		ix, iy := int(fx+0.5), int(fy+0.5)
		interior := true
		for dy := -1; dy <= 1 && interior; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := ix+dx, iy+dy
				if qx < 0 || qx >= e.nx || qy < 0 || qy >= e.ny {
					continue
				}
				if !r.tiles[e.tileOf(qy*e.nx+qx, gt.tnx)] {
					interior = false
					break
				}
			}
		}
		if interior {
			kept = append(kept, c)
		}
	}
	best, ok := sel(kept)
	if !ok {
		return nil, false
	}
	return &Result{Estimate: best.Loc, Candidates: kept}, true
}

// candidatesIn extracts the likelihood peaks of grid inside the
// half-open cell rect [x0,x1)×[y0,y1) and computes their Eq. 18 scores,
// with r's peak buffer and entropy window as scratch. The caller
// guarantees every above-threshold cell lies inside the rect, so the
// rect maximum is the global maximum and the restricted scan reports
// the same peaks as a full one.
func (e *Engine) candidatesIn(r *fixRun, grid *dsp.Grid, x0, y0, x1, y1 int) []Candidate {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > grid.W {
		x1 = grid.W
	}
	if y1 > grid.H {
		y1 = grid.H
	}
	var gmax float64
	for iy := y0; iy < y1; iy++ {
		row := grid.Data[iy*grid.W+x0 : iy*grid.W+x1]
		for _, v := range row {
			if v > gmax {
				gmax = v
			}
		}
	}
	r.peaks = grid.FindPeaksRectInto(r.peaks, e.cfg.PeakMinFrac, e.cfg.PeakMinSepCells, gmax, x0, y0, x1, y1)
	r.window = growF64(r.window, e.cfg.EntropyWindow*e.cfg.EntropyWindow)
	out := make([]Candidate, 0, len(r.peaks))
	for _, p := range r.peaks {
		loc := e.GridPoint(p)
		var sumDist float64
		for _, a := range e.anchors {
			sumDist += loc.Dist(a.Center())
		}
		h := grid.PeakNegentropyScratch(p.IX, p.IY, e.cfg.EntropyWindow, e.cfg.EntropyStride, r.window)
		score := p.Value * math.Exp(e.cfg.ScoreB*h-e.cfg.ScoreA*sumDist)
		out = append(out, Candidate{
			Loc:       loc,
			PeakValue: p.Value,
			Entropy:   h,
			SumDist:   sumDist,
			Score:     score,
		})
	}
	return out
}

// bestByScore returns the candidate with the maximum Eq. 18 score.
func bestByScore(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Score > best.Score {
			best = c
		}
	}
	return best, true
}

// bestByShortestDistance returns the candidate with the minimum total
// distance — the naive direct-path selector of §8.7's baseline.
func bestByShortestDistance(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.SumDist < best.SumDist {
			best = c
		}
	}
	return best, true
}
