package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Result is a localization outcome.
type Result struct {
	Estimate   geom.Point  // the reported tag position
	Candidates []Candidate // every scored likelihood peak

	// Gated reports whether the fix was served by the prior-gated
	// coarse-to-fine path (LocateOpts with a Prior), which scored only
	// the peaks inside the refined tiles.
	Gated bool
	// Fallback names the gate-refusal reason (FallbackDisagree,
	// FallbackLowConf, FallbackNoPeaks) when a gated attempt fell back
	// to the full grid; empty for gated successes and fixes that never
	// attempted the gate.
	Fallback string
	// TilesRefined / TilesTotal report, for gated fixes, how many
	// refinement tiles were evaluated out of how many the room has.
	TilesRefined, TilesTotal int
}

// LocateOptions parameterizes LocateOpts.
type LocateOptions struct {
	// Ref is the reference anchor the channels are corrected against
	// (CorrectRef); 0 is the paper's hard-wired master.
	Ref int
	// Prior, when non-nil, enables the gated coarse-to-fine search
	// bounded by the tracker's confidence ellipse. Nil runs the plain
	// full-grid path.
	Prior *Prior
}

// LocateOpts runs the full BLoc pipeline on a snapshot: offset
// correction against the reference anchor (CorrectRef), joint
// likelihood, peak scoring with Eq. 18. With a prior it attempts the
// gated coarse-to-fine search and transparently falls back to the full
// grid when the gate refuses (Result.Fallback names the trigger). The
// likelihood surface stays internal; Likelihood computes it for callers
// that want the map.
func (e *Engine) LocateOpts(s *csi.Snapshot, opts LocateOptions) (*Result, error) {
	r := e.getRun()
	defer e.putRun(r)
	return e.locate(r, s, opts, bestByScore)
}

// LocateShortestDistance is the §8.7 ablation: the same likelihood, but
// the direct path is chosen as the peak with the smallest total distance,
// without the entropy/score machinery.
func (e *Engine) LocateShortestDistance(s *csi.Snapshot) (*Result, error) {
	r := e.getRun()
	defer e.putRun(r)
	return e.locate(r, s, LocateOptions{}, bestByShortestDistance)
}

// locate is the one BLoc fix routine, run in the workspace r: offset
// correction, then — given a prior — the gated attempt (gate, refine
// over the selected tiles, pick), and on a refusal or without a prior
// the same refine and pick over every tile. sel picks the winning
// candidate (Eq. 18 score or the §8.7 shortest-distance ablation). The
// surface the fix localized on stays in r.grid until r is recycled.
func (e *Engine) locate(r *fixRun, s *csi.Snapshot, opts LocateOptions, sel func([]Candidate) (Candidate, bool)) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot: %w", err)
	}
	if opts.Ref < 0 || opts.Ref >= s.NumAnchors() {
		return nil, fmt.Errorf("core: reference anchor %d out of range [0,%d)", opts.Ref, s.NumAnchors())
	}
	a := e.correctInto(s, opts.Ref, &r.alpha)
	if err := e.checkAlpha(a); err != nil {
		return nil, err
	}
	ps, gt := e.planesFor(a.Freqs), e.gatedFor(a.Ref)
	var fallback string
	if opts.Prior != nil {
		var refined int
		if fallback, refined = e.gate(r, ps, gt, a, opts.Prior); fallback == "" {
			e.refine(r, ps, gt, a, r.cmax, nil)
			if res, ok := e.pick(r, gt, sel); ok {
				nt := gt.tnx * gt.tny
				e.statFixes.Add(1)
				e.statGatedFixes.Add(1)
				e.statTilesRefined.Add(uint64(refined))
				e.statTilesTotal.Add(uint64(nt))
				res.Gated, res.TilesRefined, res.TilesTotal = true, refined, nt
				return res, nil
			}
			fallback = FallbackNoPeaks
		}
		switch fallback {
		case FallbackDisagree:
			e.statFallbackDisagree.Add(1)
		case FallbackLowConf:
			e.statFallbackLowConf.Add(1)
		default:
			e.statFallbackNoPeaks.Add(1)
		}
	}
	r.selectAll(gt)
	e.refine(r, ps, gt, a, nil, nil)
	res, ok := e.pick(r, gt, sel)
	if !ok {
		return nil, fmt.Errorf("core: no likelihood peaks found")
	}
	e.statFixes.Add(1)
	e.statFullFixes.Add(1)
	res.Fallback = fallback
	return res, nil
}

// residualSearch is the shared grid-search triangulation of the baseline
// estimators (AoA, MUSIC, RSSI, CTE): it scans every XY cell, sums
// res(p, i) over the given anchors and returns the residual-minimizing
// cell's room coordinates. Ties keep the first cell in scan order.
func (e *Engine) residualSearch(anchors []int, res func(p geom.Point, anchor int) float64) geom.Point {
	best := math.Inf(1)
	bx, by := 0, 0
	for iy := 0; iy < e.ny; iy++ {
		for ix := 0; ix < e.nx; ix++ {
			p := e.CellCenter(ix, iy)
			var sum float64
			for _, i := range anchors {
				sum += res(p, i)
			}
			if sum < best {
				best, bx, by = sum, ix, iy
			}
		}
	}
	return e.CellCenter(bx, by)
}

// LocateAoA is the paper's baseline (§7, §8.2): AoA-combining in the
// spirit of ArrayTrack/SpotFi. Each anchor estimates one angle of arrival
// — the strongest direction of its angular spectrum (Eq. 15, averaged
// over bands; the least-ToF path selection those Wi-Fi systems use is
// unavailable because BLE's cross-band phase is garbled) — and the
// bearings are triangulated by a least-squares grid search. When any
// anchor locks onto a reflection instead of the direct path, the fix is
// dragged away, which is exactly why this baseline suffers in multipath.
func (e *Engine) LocateAoA(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	I := s.NumAnchors()
	active := activeAnchors(s)
	if len(active) < 2 {
		return nil, fmt.Errorf("core: only %d anchors present, need >= 2 for AoA", len(active))
	}
	bearings := make([]float64, I)
	for _, i := range active {
		spec := e.angleSpectrum(s.Freqs, s.Tag, s.Have, i)
		bearings[i] = e.thetas[dsp.ArgMax(spec)]
	}
	// Triangulate: minimize the sum of squared wrapped angle residuals
	// over the anchors that actually reported.
	est := e.residualSearch(active, func(p geom.Point, i int) float64 {
		d := geom.WrapAngle(e.anchors[i].AngleTo(p) - bearings[i])
		return d * d
	})
	return &Result{Estimate: est}, nil
}

// activeAnchors lists the anchors with at least one present band row.
func activeAnchors(s *csi.Snapshot) []int {
	return s.PresentAnchors(1)
}

// LocateAoASoft is a strengthened variant of the AoA baseline (an
// extension beyond the paper): instead of committing to one bearing per
// anchor, every anchor's full angular spectrum is painted over the XY
// grid and the maps are summed, so secondary lobes still vote. It is used
// by the ablation benches to show how much of BLoc's advantage survives
// against a more generous baseline.
func (e *Engine) LocateAoASoft(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	combined := dsp.NewGrid(e.nx, e.ny)
	for _, i := range activeAnchors(s) {
		spec := e.angleSpectrum(s.Freqs, s.Tag, s.Have, i)
		xy := e.angleSpectrumToXY(spec, i, 0)
		xy.Normalize()
		combined.AddGrid(xy)
	}
	_, ix, iy := combined.Max()
	return &Result{Estimate: e.CellCenter(ix, iy)}, nil
}

// LocateRSSI is a signal-strength trilateration baseline (§9.2 context):
// per anchor, the tag distance is inverted from the mean channel
// magnitude using the free-space model |h| = 1/d, then the point
// minimizing the squared range residuals over the grid is reported.
// Multipath fading corrupts |h| directly, which is the weakness the paper
// ascribes to RSSI methods (§2.2).
func (e *Engine) LocateRSSI(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	I := s.NumAnchors()
	active := activeAnchors(s)
	if len(active) < 3 {
		return nil, fmt.Errorf("core: only %d anchors present, need >= 3 for trilateration", len(active))
	}
	ranges := make([]float64, I)
	usable := make([]int, 0, len(active))
	for _, i := range active {
		var amp float64
		n := 0
		for k := range s.Tag {
			if !s.Present(k, i) {
				continue
			}
			for j := range s.Tag[k][i] {
				m := cmplx.Abs(s.Tag[k][i][j])
				if math.IsNaN(m) || math.IsInf(m, 0) {
					continue // corrupt tone: keep it out of the mean
				}
				amp += m
				n++
			}
		}
		if n == 0 {
			continue // anchor reported nothing finite
		}
		amp /= float64(n)
		// The free-space inversion 1/amp needs a strictly positive,
		// finite magnitude; a zero/denormal amp would put an Inf range
		// into the residual search and poison the grid argmax.
		if amp < refToneFloor || math.IsInf(amp, 0) {
			continue
		}
		ranges[i] = 1 / amp
		usable = append(usable, i)
	}
	if len(usable) < 3 {
		return nil, fmt.Errorf("core: only %d anchors with usable RSSI, need >= 3 for trilateration", len(usable))
	}
	// Grid search: maximize the negative range-residual sum.
	est := e.residualSearch(usable, func(p geom.Point, i int) float64 {
		d := p.Dist(e.anchors[i].Center()) - ranges[i]
		return d * d
	})
	return &Result{Estimate: est}, nil
}

// checkAlpha validates alpha dimensions against the engine and, for
// partial (degraded-mode) alphas, that enough anchors survive to
// triangulate at all.
func (e *Engine) checkAlpha(a *Alpha) error {
	if a.NumAnchors() != len(e.anchors) {
		return fmt.Errorf("core: alpha has %d anchors, engine %d", a.NumAnchors(), len(e.anchors))
	}
	if a.NumBands() == 0 || a.NumAntennas() == 0 {
		return fmt.Errorf("core: empty alpha")
	}
	if a.Ref < 0 || a.Ref >= len(e.anchors) {
		return fmt.Errorf("core: alpha reference %d out of range [0,%d)", a.Ref, len(e.anchors))
	}
	if a.Have != nil {
		if n := len(a.PresentAnchors()); n < 2 {
			return fmt.Errorf("core: only %d anchors usable in partial snapshot, need >= 2", n)
		}
	}
	return nil
}

// LocateCTE is a Bluetooth 5.1 direction-finding estimator (extension
// beyond the paper, which predates CTE): every anchor supplies the
// per-antenna relative channels recovered from one constant-tone
// acquisition on a single band; the strongest Bartlett direction per
// anchor is triangulated like LocateAoA. CTE gives BLE a clean,
// standardized angle measurement — but a single 2 MHz tone carries no
// usable distance information, so the estimator inherits AoA's
// multipath blindness, which is the comparison's point.
func (e *Engine) LocateCTE(freqHz float64, perAnchor [][]complex128) (*Result, error) {
	if len(perAnchor) != len(e.anchors) {
		return nil, fmt.Errorf("core: CTE data for %d anchors, engine has %d", len(perAnchor), len(e.anchors))
	}
	values := [][][]complex128{perAnchor} // one band
	freqs := []float64{freqHz}
	I := len(e.anchors)
	all := make([]int, I)
	bearings := make([]float64, I)
	for i := 0; i < I; i++ {
		if len(perAnchor[i]) < 2 {
			return nil, fmt.Errorf("core: anchor %d has %d CTE antennas", i, len(perAnchor[i]))
		}
		all[i] = i
		spec := e.angleSpectrum(freqs, values, nil, i)
		bearings[i] = e.thetas[dsp.ArgMax(spec)]
	}
	est := e.residualSearch(all, func(p geom.Point, i int) float64 {
		d := geom.WrapAngle(e.anchors[i].AngleTo(p) - bearings[i])
		return d * d
	})
	return &Result{Estimate: est}, nil
}
