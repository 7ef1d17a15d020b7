package core

import (
	"math"
)

// The production Eq. 17 polar kernels: float32 evaluations of the joint
// likelihood for every BLoc fix — the gated search's coarse pass and the
// refinement sweep that both gated and full-grid fixes run (gated.go).
// Both passes reduce each θ row to one call of the row kernel
// (polarRow): a complex multiply-accumulate of every non-zero band's
// beamforming coefficient against a contiguous run of Δ samples, read
// from the planeSet's stride-and-phase lanes (deltaLanes). The kernel
// has a portable Go implementation, which is also the oracle, and an
// AVX2 one on amd64, chosen once at startup; both issue the same
// float32 operations in the same order, so every surface is
// bit-identical on either path (TestKernelPathsBitIdentical,
// FuzzPolarRow). Three departures from the float64 reference kernel
// (reference.go), each bounded by a dedicated test:
//
//   - The Δ accumulation runs in float32, halving the memory traffic of
//     the likelihood's dominant loop (TestPolarFill32Golden pins the
//     float32 plane to the reference).
//   - The beamforming sum B(θ, k) reads the precomputed rotor powers
//     (planeSet.stepPows) instead of walking a serial rotor chain, and
//     the per-band phase product e^{−ι w_k D_i}·conj(e^{−ι w_k D_r}) is
//     folded into the channel coefficients once per call (bfCoeffs) —
//     both are exact restructurings, not approximations.
//   - The refinement sweep exploits that the polar magnitude is smooth:
//     along Δ it is band-limited by the sounded channel spread
//     (correlation scale of meters against a few-centimeter grid), and
//     along θ a J-element array's beam pattern has only ~J degrees of
//     freedom across the aperture. polarFill32 therefore evaluates every
//     RefineDeltaStep-th column of every RefineThetaStep-th row exactly
//     and fills the rest by linear interpolation
//     (TestPolarFill32InterpError bounds the error at peak cells).
//
// reference.go remains the float64 oracle: the golden tests bound the
// combined surface's divergence from it, and TestLocateEstimateParity
// bounds what that divergence does to the error CDF.

// laneBlock is the SIMD row kernel's block width in float32 lanes (one
// AVX2 register). deltaLanes and the kernel's accumulators carry
// laneBlock lanes of padding, so the kernel may read and write one
// whole block past a row's last sample; it discards those lanes.
const laneBlock = 8

// deltaLanes holds float32 re/im lanes of the base distance steering
// e^{ι w_k Δ_d} at Δ stride S: entry [p·K·W + k·W + i] is column
// p + i·S of band k, for phases p in [0, phases) and W = ⌈D/S⌉ entries
// per band. Every strided Δ run a kernel row evaluates is then a
// contiguous run of one phase's lane. Entries past the Δ grid are zero,
// as are the laneBlock padding lanes at the end.
type deltaLanes struct {
	stride, width, bands int
	re, im               []float32
}

// newDeltaLanes samples the float64 base steering planes ([k*D + d])
// into lanes of the given stride, keeping the first `phases` phases.
func newDeltaLanes(baseRe, baseIm []float64, K, D, stride, phases int) deltaLanes {
	W := (D + stride - 1) / stride
	l := deltaLanes{stride: stride, width: W, bands: K}
	n := phases*K*W + laneBlock
	l.re, l.im = make([]float32, n), make([]float32, n)
	for p := 0; p < phases; p++ {
		for k := 0; k < K; k++ {
			row := (p*K + k) * W
			for i := 0; i < W; i++ {
				if d := p + i*stride; d < D {
					l.re[row+i] = float32(baseRe[k*D+d])
					l.im[row+i] = float32(baseIm[k*D+d])
				}
			}
		}
	}
	return l
}

// start returns the lane index of band 0's entry for full-resolution Δ
// column col; band k's entry is start(col) + k·width.
func (l *deltaLanes) start(col int) int {
	return (col%l.stride)*l.bands*l.width + col/l.stride
}

// polarRow is the row kernel both polar passes run. For every column i
// in [0, n) it starts from +0 and adds, over the band list in order,
//
//	re[i] += bRe·x[o+i] − bIm·y[o+i]
//	im[i] += bRe·y[o+i] + bIm·x[o+i]
//
// with o = off[j] and (bRe, bIm) = (coef[2j], coef[2j+1]), rounding
// every product, difference and sum to float32 separately. re and im
// need n+laneBlock entries, and x and y laneBlock entries past the
// largest o+n (deltaLanes provides both); the dispatch to the AVX2
// kernel is made once at startup (useSIMD).
func polarRow(re, im, x, y []float32, off []int32, coef []float32, n int) {
	if useSIMD {
		polarRowAVX2(re, im, x, y, off, coef, n)
		return
	}
	polarRowGo(re, im, x, y, off, coef, n)
}

// polarRowGo is the portable row kernel and the oracle the AVX2 kernel
// is tested against. The explicit float32 conversions keep the products
// from being fused into the following add (the spec permits fusion, and
// arm64 compilers do it), so every architecture rounds as amd64 does.
func polarRowGo(re, im, x, y []float32, off []int32, coef []float32, n int) {
	are, aim := re[:n], im[:n]
	clear(are)
	clear(aim)
	for j, o := range off {
		bRe, bIm := coef[2*j], coef[2*j+1]
		xs, ys := x[o:int(o)+n], y[o:int(o)+n]
		for i := range are {
			xv, yv := xs[i], ys[i]
			are[i] += float32(bRe*xv) - float32(bIm*yv)
			aim[i] += float32(bRe*yv) + float32(bIm*xv)
		}
	}
}

// magnitude is |re + ι·im| rounded to float32; the conversions keep the
// squares unfused, as in polarRowGo.
func magnitude(re, im float32) float32 {
	return float32(math.Sqrt(float64(float32(re*re) + float32(im*im))))
}

// paintCells paints one refinement tile: vals[c] is the bilinear sum
// of cell c's four polar taps,
//
//	polar[i00]·w00 + polar[i10]·w10 + polar[i01]·w01 + polar[i11]·w11
//
// added left to right with every product rounded (unfused, as in
// polarRowGo), and the result is the largest of pm and the painted
// values (a NaN value never raises it). Every lane must hold len(vals)
// entries. With useSIMD the whole 8-cell blocks run in the AVX2 paint,
// whose lanes issue these operations in this order.
func paintCells(polar []float32, i00, i10, i01, i11 []int32, w00, w10, w01, w11, vals []float32, pm float32) float32 {
	c0 := 0
	if useSIMD {
		c0, pm = paintAVX2(polar, i00, i10, i01, i11, w00, w10, w01, w11, vals, pm)
	}
	n := len(vals)
	i00, i10, i01, i11 = i00[:n], i10[:n], i01[:n], i11[:n]
	w00, w10, w01, w11 = w00[:n], w10[:n], w01[:n], w11[:n]
	for c := c0; c < n; c++ {
		v := float32(polar[i00[c]]*w00[c]) + float32(polar[i10[c]]*w10[c]) +
			float32(polar[i01[c]]*w01[c]) + float32(polar[i11[c]]*w11[c])
		vals[c] = v
		if v > pm {
			pm = v
		}
	}
	return pm
}

// rowBands builds one θ row's band list for the row kernel: the lane
// offset (band k at k·width) and float32 coefficient B(θ, k) of every
// band whose beamforming sum is non-zero, in band order. prow holds the
// row's rotor powers; off and coef must hold K and 2K entries. It
// returns the number of bands listed.
func rowBands(avp, prow []complex128, K, J, P, width int, off []int32, coef []float32) int {
	nb := 0
	for k := 0; k < K; k++ {
		b := beamSum(avp[k*J:k*J+J], prow[k*P:k*P+P], J)
		//lint:ignore floateq skip beamforming sums that are exactly zero
		if b == 0 {
			continue
		}
		off[nb] = int32(k * width)
		coef[2*nb], coef[2*nb+1] = float32(real(b)), float32(imag(b))
		nb++
	}
	return nb
}

// bfCoeffs folds the anchor/reference phase rotors into one anchor's
// corrected-channel coefficients: avp[k*J+j] = α_kj · e^{−ι w_k D_i} ·
// conj(e^{−ι w_k D_r}), with absent bands zeroed so the row loops skip
// them via the exact b == 0 test. avp must be K·J long.
func bfCoeffs(ps *planeSet, a *Alpha, anchor int, avp []complex128) {
	K, J := a.NumBands(), a.NumAntennas()
	phase := ps.phase[anchor]
	rphase := ps.phase[a.Ref]
	for k := 0; k < K; k++ {
		row := avp[k*J : k*J+J]
		if !a.Present(k, anchor) {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		m := phase[k] * conj(rphase[k])
		av := a.Values[k][anchor]
		for j := 0; j < J; j++ {
			row[j] = av[j] * m
		}
	}
}

// beamSum evaluates B(θ_t, k) from the folded coefficients and the
// precomputed rotor powers pk (the P = J−1 powers for this (row, band)).
// The J = 4 case — the paper's arrays — is unrolled so the three
// independent complex multiplies pipeline instead of serializing.
func beamSum(c []complex128, pk []complex128, J int) complex128 {
	if J == 4 {
		return c[0] + c[1]*pk[0] + c[2]*pk[1] + c[3]*pk[2]
	}
	b := c[0]
	for j := 1; j < J; j++ {
		b += c[j] * pk[j-1]
	}
	return b
}

// coarsePolarFill32 evaluates one anchor's polar likelihood at the
// decimated (θ, Δ) samples of the coarse pass: row ct is the full-grid
// row ct·CoarseThetaStep, column cd the full-grid column
// cd·CoarseDeltaStep, a contiguous run of the planeSet's coarse lanes.
// Only the per-row spans of cp are computed; cpolar must be cT·cD long,
// rs is grown to fit and avp holds this anchor's bfCoeffs. It returns
// the complex multiply-accumulates issued.
func (e *Engine) coarsePolarFill32(ps *planeSet, cp *coarseProj, a *Alpha, anchor, cT, cD int, cpolar []float32, rs *rowScratch, avp []complex128) uint64 {
	K, J := a.NumBands(), a.NumAntennas()
	ts := e.cfg.Gate.CoarseThetaStep
	pows := ps.stepPows[e.spacingIdx[anchor]]
	P := ps.stepP
	l := &ps.coarse
	rs.grow(K, cD)
	var macs uint64

	for ct := 0; ct < cT; ct++ {
		lo, hi := int(cp.dLo[ct]), int(cp.dHi[ct])
		if lo >= hi {
			continue // no coarse cell samples this row
		}
		t := ct * ts
		nb := rowBands(avp, pows[t*K*P:(t*K+K)*P], K, J, P, l.width, rs.off, rs.coef)
		polarRow(rs.re, rs.im, l.re[lo:], l.im[lo:], rs.off[:nb], rs.coef[:2*nb], hi-lo)
		macs += uint64(nb * (hi - lo))
		out := cpolar[ct*cD+lo : ct*cD+hi]
		for d := range out {
			out[d] = magnitude(rs.re[d], rs.im[d])
		}
	}
	return macs
}

// polarFill32 computes one anchor's full-resolution polar likelihood
// into polar (T·D float32), restricted per θ row to the half-open Δ span
// [rowLo[t], rowHi[t]) — the union of the selected refinement tiles'
// polar bounding boxes. Rows with an empty span are skipped and their
// cells left stale; the tiled projection reads only spanned cells. rs is
// grown to fit and avp holds this anchor's bfCoeffs. It returns the
// complex multiply-accumulates issued.
//
// Sampling: only every RefineThetaStep-th row (plus the last) is
// evaluated, over the union of its neighbors' spans so the skipped rows
// can be interpolated from fully-painted sources; within a row the
// sweep evaluates every RefineDeltaStep-th column (plus the final one).
// Both strides at 1 recover the exact kernel, which is what the golden
// test pins against the float64 reference kernel.
func (e *Engine) polarFill32(ps *planeSet, a *Alpha, anchor int, polar []float32, rowLo, rowHi []int32, rs *rowScratch, avp []complex128) uint64 {
	D, K := len(e.deltas), a.NumBands()
	J := a.NumAntennas()
	S := e.cfg.Gate.RefineDeltaStep
	RT := e.cfg.Gate.RefineThetaStep
	T := len(rowLo)
	pows := ps.stepPows[e.spacingIdx[anchor]]
	P := ps.stepP
	l := &ps.fine
	rs.grow(K, l.width)
	var macs uint64

	for t := 0; t < T; t++ {
		if t%RT != 0 && t != T-1 {
			continue
		}
		// Effective span: the union over the rows this sample supports,
		// so every interpolated cell has painted sources.
		lo, hi := D, 0
		for u := t - RT + 1; u <= t+RT-1; u++ {
			if u < 0 || u >= T {
				continue
			}
			if int(rowLo[u]) < lo {
				lo = int(rowLo[u])
			}
			if int(rowHi[u]) > hi {
				hi = int(rowHi[u])
			}
		}
		if lo >= hi {
			continue
		}
		// Exact samples at lo, lo+S, …, lo+(m-1)·S — one contiguous run
		// of phase lo mod S — land in rs.re/im[0:m]; one extra sample at
		// hi-1, in lane (hi-1) mod S, when the stride misses it.
		m := (hi-1-lo)/S + 1
		last := lo + (m-1)*S
		nb := rowBands(avp, pows[t*K*P:(t*K+K)*P], K, J, P, l.width, rs.off, rs.coef)
		off, coef := rs.off[:nb], rs.coef[:2*nb]
		s := l.start(lo)
		polarRow(rs.re, rs.im, l.re[s:], l.im[s:], off, coef, m)
		macs += uint64(nb * m)
		// Magnitudes land at their true columns; the gaps are filled
		// in place (interpolation writes strictly between samples).
		out := polar[t*D : t*D+D]
		idx := lo
		for i := 0; i < m; i++ {
			out[idx] = magnitude(rs.re[i], rs.im[i])
			idx += S
		}
		if last < hi-1 {
			s := l.start(hi - 1)
			polarRow(rs.tailRe[:], rs.tailIm[:], l.re[s:], l.im[s:], off, coef, 1)
			macs += uint64(nb)
			out[hi-1] = magnitude(rs.tailRe[0], rs.tailIm[0])
		}
		if S > 1 {
			p0 := lo
			for p0 < hi-1 {
				p1 := p0 + S
				if p1 > hi-1 {
					p1 = hi - 1
				}
				v0 := out[p0]
				slope := (out[p1] - v0) / float32(p1-p0)
				for d := p0 + 1; d < p1; d++ {
					out[d] = v0 + slope*float32(d-p0)
				}
				p0 = p1
			}
		}
	}
	if RT == 1 {
		return macs
	}
	// Interpolate the skipped rows from their sampled neighbors, each of
	// which was painted over a superset of this row's span.
	for t := 0; t < T; t++ {
		if t%RT == 0 || t == T-1 {
			continue
		}
		lo, hi := int(rowLo[t]), int(rowHi[t])
		if lo >= hi {
			continue
		}
		t0 := t - t%RT
		t1 := t0 + RT
		if t1 > T-1 {
			t1 = T - 1
		}
		f := float32(t-t0) / float32(t1-t0)
		r0 := polar[t0*D : t0*D+D]
		r1 := polar[t1*D : t1*D+D]
		out := polar[t*D : t*D+D]
		for d := lo; d < hi; d++ {
			out[d] = r0[d]*(1-f) + r1[d]*f
		}
	}
	return macs
}
