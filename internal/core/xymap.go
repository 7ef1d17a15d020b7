package core

import (
	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Likelihood computes the combined XY likelihood of Eq. 17 summed over all
// anchors (§5.3), optionally normalizing each anchor's map to unit maximum
// first. The per-anchor maps are also returned for inspection (Fig. 6c,
// Fig. 8c).
//
// The surface is the one every full-grid fix localizes on: the float32
// refinement routine (gated.go) with every tile selected, run on the
// calling goroutine. In degraded mode (partial alpha), anchors with no
// usable band are skipped entirely — their perAnchor entry is nil and
// they contribute nothing to the combined sum.
func (e *Engine) Likelihood(a *Alpha) (combined *dsp.Grid, perAnchor []*dsp.Grid) {
	perAnchor = make([]*dsp.Grid, a.NumAnchors())
	combined = e.fullLikelihood(a, perAnchor)
	return combined, perAnchor
}

// AngleLikelihoodXY maps Eq. 15 over the XY plane for one anchor: each
// cell gets the angular spectrum value of its direction (Fig. 6a).
func (e *Engine) AngleLikelihoodXY(a *Alpha, anchor int) *dsp.Grid {
	spec := e.angleSpectrum(a.Freqs, a.Values, a.Have, anchor)
	return e.angleSpectrumToXY(spec, anchor, a.Ref)
}

// angleSpectrumToXY paints a θ spectrum over the XY grid through the
// precomputed θ-only projection table (the table's angle entries do not
// depend on the reference; ref only selects the set they live in).
func (e *Engine) angleSpectrumToXY(spec []float64, anchor, ref int) *dsp.Grid {
	out := dsp.NewGrid(e.nx, e.ny)
	od := out.Data
	for _, c := range e.projections(ref)[anchor].angle {
		od[c.xy] = spec[c.i0]*(1-c.fr) + spec[c.i1]*c.fr
	}
	return out
}

// DistanceLikelihoodXY maps Eq. 16 over the XY plane for one anchor: each
// cell gets the relative-distance profile value of its hyperbola
// coordinate (Fig. 6b), through the precomputed Δ-only projection table
// of the alpha's reference.
func (e *Engine) DistanceLikelihoodXY(a *Alpha, anchor int) *dsp.Grid {
	spec := e.distanceSpectrum(a, anchor)
	out := dsp.NewGrid(e.nx, e.ny)
	od := out.Data
	for _, c := range e.projections(a.Ref)[anchor].dist {
		od[c.xy] = spec[c.i0]*(1-c.fr) + spec[c.i1]*c.fr
	}
	return out
}

// GridPoint converts a grid peak to room coordinates.
func (e *Engine) GridPoint(p dsp.Peak) geom.Point { return e.CellCenter(p.IX, p.IY) }
