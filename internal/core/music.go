package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/rfsim"
)

// MUSIC super-resolution angle estimation — the algorithm family behind
// the ArrayTrack/SpotFi systems the paper baselines against (§9.3). It is
// provided both as a research tool (the paper's conclusion hopes BLoc
// serves as "a tool … to test out CSI-based localization algorithms")
// and as a stronger AoA baseline: where the Bartlett spectrum of Eq. 15
// merges paths within a beamwidth, MUSIC separates any paths the
// J-antenna array can rank.

// MUSICSpectrum computes the MUSIC pseudo-spectrum over the engine's θ
// grid for one anchor: the per-band channel vectors across antennas act
// as snapshots for the spatial covariance, whose noise subspace (all but
// numPaths dominant eigenvectors) is orthogonal to the steering vectors
// of true arrival directions. numPaths must be in [1, J−1].
func (e *Engine) MUSICSpectrum(freqs []float64, values [][][]complex128, anchor, numPaths int) ([]float64, error) {
	K := len(values)
	if K == 0 {
		return nil, fmt.Errorf("core: no bands for MUSIC")
	}
	J := len(values[0][anchor])
	if numPaths < 1 || numPaths >= J {
		return nil, fmt.Errorf("core: MUSIC paths %d outside [1,%d]", numPaths, J-1)
	}
	// Spatial covariance across band snapshots. Each band's LO offset is
	// a common rotation of the whole vector and cancels in x·xᴴ, so no
	// phase correction is needed (same argument as Eq. 15).
	R := make([][]complex128, J)
	for i := range R {
		R[i] = make([]complex128, J)
	}
	for k := 0; k < K; k++ {
		x := values[k][anchor]
		for i := 0; i < J; i++ {
			for j := 0; j < J; j++ {
				R[i][j] += x[i] * cmplx.Conj(x[j])
			}
		}
	}
	inv := complex(1/float64(K), 0)
	for i := range R {
		for j := range R {
			R[i][j] *= inv
		}
	}
	P, err := dsp.HermitianNoiseProjector(R, numPaths)
	if err != nil {
		return nil, err
	}
	// Pseudo-spectrum 1/(aᴴ P a). The steering vector must match the
	// *signal* model: with this geometry antenna j sits closer to a
	// target at positive θ by j·l·sinθ, so the received phase advances,
	// a_j(θ) = e^{+ι w j l sinθ}. (Eq. 15's Bartlett sum multiplies by
	// the conjugate compensator instead, hence the opposite sign there.)
	fmid := freqs[len(freqs)/2]
	w := 2 * math.Pi * fmid / rfsim.SpeedOfLight
	l := e.anchors[anchor].Spacing
	out := make([]float64, len(e.thetas))
	a := make([]complex128, J)
	for t, theta := range e.thetas {
		stepS, stepC := math.Sincos(w * l * math.Sin(theta))
		step := complex(stepC, stepS)
		a[0] = 1
		for j := 1; j < J; j++ {
			a[j] = a[j-1] * step
		}
		var quad complex128
		for i := 0; i < J; i++ {
			var acc complex128
			for j := 0; j < J; j++ {
				acc += P[i][j] * a[j]
			}
			quad += cmplx.Conj(a[i]) * acc
		}
		den := real(quad)
		if den < 1e-12 {
			den = 1e-12
		}
		out[t] = 1 / den
	}
	return out, nil
}

// LocateMUSIC is the MUSIC-enhanced AoA baseline: one super-resolved
// bearing per anchor (strongest pseudo-spectrum peak, numPaths = 2),
// triangulated exactly like LocateAoA (residualSearch). It shares AoA's fundamental
// weakness — no distance dimension, so a reflection stronger than the
// direct path still captures the bearing — but resolves closely spaced
// arrivals the Bartlett spectrum merges.
func (e *Engine) LocateMUSIC(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	numPaths := 2
	if s.NumAntennas() <= 2 {
		numPaths = 1
	}
	I := s.NumAnchors()
	active := activeAnchors(s)
	if len(active) < 2 {
		return nil, fmt.Errorf("core: only %d anchors present, need >= 2 for MUSIC", len(active))
	}
	bearings := make([]float64, I)
	for _, i := range active {
		spec, err := e.MUSICSpectrum(s.Freqs, s.Tag, i, numPaths)
		if err != nil {
			return nil, err
		}
		bearings[i] = e.thetas[dsp.ArgMax(spec)]
	}
	est := e.residualSearch(active, func(p geom.Point, i int) float64 {
		d := geom.WrapAngle(e.anchors[i].AngleTo(p) - bearings[i])
		return d * d
	})
	return &Result{Estimate: est}, nil
}
