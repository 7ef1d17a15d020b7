package core

import "math"

// Optimized Eq. 15 and Eq. 16 spectra for the Fig. 6a/6b maps and the
// AoA baselines. The math is identical to the reference kernels in
// reference.go; the difference is that every geometry- and
// band-plan-dependent factor comes from the engine's precomputed planes
// (planes.go) and the magnitudes use sqrt(re²+im²) instead of the
// overflow-guarded math.Hypot (the likelihood dynamic range is nowhere
// near the guard thresholds). The joint Eq. 17 likelihood runs on the
// float32 kernels of polar32.go.

// angleSpectrum evaluates Eq. 15 for one anchor: the per-band angular
// spectra Pa(θ) = |Σ_j α_jk e^{−ι w_k j l sinθ}|, summed incoherently over
// bands (no cross-band phase is needed for angle, which is why AoA works
// even without offset correction). values may be the corrected α or raw
// measured channels — the per-anchor LO offset is common to all antennas
// and cancels in the magnitude. have is an optional presence mask
// (have[k][anchor]); nil means every band is usable.
//
// The per-band w_k and the (θ, k) rotors come from the cached steering
// planes instead of being recomputed T× per band per call.
func (e *Engine) angleSpectrum(freqs []float64, values [][][]complex128, have [][]bool, anchor int) []float64 {
	T := len(e.thetas)
	K := len(values)
	ps := e.planesFor(freqs)
	steps := ps.steps[e.spacingIdx[anchor]]
	out := make([]float64, T)
	for t := 0; t < T; t++ {
		var sum float64
		srow := steps[t*K : t*K+K]
		for k := 0; k < K; k++ {
			if have != nil && !have[k][anchor] {
				continue
			}
			step := srow[k]
			rot := complex(1, 0)
			var b complex128
			row := values[k][anchor]
			for j := range row {
				b += row[j] * rot
				rot *= step
			}
			bRe, bIm := real(b), imag(b)
			sum += math.Sqrt(bRe*bRe + bIm*bIm)
		}
		out[t] = sum
	}
	return out
}

// distanceSpectrum evaluates Eq. 16 for one anchor: the relative-distance
// profile |Σ_k α_jk·e^{+ι w_k (Δ − D_i)}| summed incoherently over
// antennas. This is the "hyperbola" component of Fig. 6b. The steering
// factors come from the shared base planes with the anchor phase folded
// into each band's α, turning the per-(Δ, j, k) trigonometry of the
// reference into K passes of scalar multiply-adds per antenna.
func (e *Engine) distanceSpectrum(a *Alpha, anchor int) []float64 {
	D := len(e.deltas)
	K := a.NumBands()
	J := a.NumAntennas()
	ps := e.planesFor(a.Freqs)
	phase := ps.phase[anchor]
	rphase := ps.phase[a.Ref]
	out := make([]float64, D)
	acc := e.getFloats(2 * D)
	accRe, accIm := (*acc)[:D], (*acc)[D:2*D]
	for j := 0; j < J; j++ {
		for d := range accRe {
			accRe[d] = 0
			accIm[d] = 0
		}
		for k := 0; k < K; k++ {
			if !a.Present(k, anchor) {
				continue
			}
			v := a.Values[k][anchor][j] * phase[k] * conj(rphase[k])
			vRe, vIm := real(v), imag(v)
			row := k * D
			bre, bim := ps.baseRe[row:row+D], ps.baseIm[row:row+D]
			for d := range bre {
				accRe[d] += vRe*bre[d] - vIm*bim[d]
				accIm[d] += vRe*bim[d] + vIm*bre[d]
			}
		}
		for d := range out {
			out[d] += math.Sqrt(accRe[d]*accRe[d] + accIm[d]*accIm[d])
		}
	}
	e.putFloats(acc)
	return out
}
