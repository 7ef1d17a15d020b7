package core

import (
	"bloc/internal/csi"
	"bloc/internal/dsp"
)

// Scratch pools. Every buffer the steady-state fix path needs — the
// float32 polar and accumulator planes, the tile masks, the corrected-
// channel workspace, the peak-entropy window — is recycled through
// sync.Pools owned by the engine, so after warm-up a fix allocates only
// what it returns: the combined grid, the candidates and the Result.
// Hit/miss counters feed Stats.

// getFloats returns a pooled float64 slice of length n (engine-wide pool;
// capacity is grown to the largest request seen).
func (e *Engine) getFloats(n int) *[]float64 {
	if v, ok := e.floatPool.Get().(*[]float64); ok {
		e.statPoolHits.Add(1)
		if cap(*v) < n {
			*v = make([]float64, n)
		}
		*v = (*v)[:n]
		return v
	}
	e.statPoolMisses.Add(1)
	s := make([]float64, n)
	return &s
}

func (e *Engine) putFloats(v *[]float64) { e.floatPool.Put(v) }

// getPeaks returns a pooled, length-0 peak-extraction scratch.
func (e *Engine) getPeaks() *[]dsp.Peak {
	if v, ok := e.peakPool.Get().(*[]dsp.Peak); ok {
		e.statPoolHits.Add(1)
		*v = (*v)[:0]
		return v
	}
	e.statPoolMisses.Add(1)
	s := make([]dsp.Peak, 0, 16)
	return &s
}

func (e *Engine) putPeaks(v *[]dsp.Peak) { e.peakPool.Put(v) }

// gatedRun is the reusable likelihood workspace of one fix (gated.go):
// the coarse polar/combined planes and per-anchor coarse maxima of a
// gated attempt, and the refinement polar plane with its per-row spans,
// the tile masks and the painted-value staging buffer every fix uses.
// The struct owns all of its slices; recycling the struct recycles
// every buffer at once.
type gatedRun struct {
	active       []int
	cpolar       []float32    // decimated polar plane (cT·cD)
	ccomb        []float32    // coarse combined XY plane (cnx·cny)
	cvals        []float32    // one anchor's projected coarse values
	cmax         []float64    // per-anchor coarse map maximum
	acc          []float32    // re/im accumulator planes (2·D)
	polar        []float32    // full-resolution polar plane (T·D)
	rowLo, rowHi []int32      // per-θ-row Δ spans of the selected tiles
	sel, tiles   []bool       // value-selected tiles; the refined tile mask
	vals         []float32    // painted tile values awaiting normalization
	avp          []complex128 // folded beamforming coefficients (bfCoeffs)
}

func (e *Engine) getGatedRun() *gatedRun {
	if r, ok := e.gatedPool.Get().(*gatedRun); ok {
		e.statPoolHits.Add(1)
		return r
	}
	e.statPoolMisses.Add(1)
	return &gatedRun{}
}

func (e *Engine) putGatedRun(r *gatedRun) { e.gatedPool.Put(r) }

// growF32 and friends resize a scratch slice to length n, reusing
// capacity. Contents are stale — callers clear() the buffers that are
// read before being fully painted.
func growF32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growC128(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// alphaBox is a pooled corrected-channel workspace: one flat backing
// array for all K×I×J α values (plus the presence mask), with the nested
// slice headers Alpha's shape requires carved out once.
type alphaBox struct {
	a        Alpha
	k, i, j  int
	flat     []complex128
	rows     [][]complex128
	haveFlat []bool
	haveRows [][]bool
}

// getAlpha returns a pooled workspace shaped (K, I, J). A box recycled
// from a different shape is rebuilt.
func (e *Engine) getAlpha(K, I, J int) *alphaBox {
	b, ok := e.alphaPool.Get().(*alphaBox)
	if ok && b.k == K && b.i == I && b.j == J {
		e.statPoolHits.Add(1)
		return b
	}
	e.statPoolMisses.Add(1)
	b = &alphaBox{
		k: K, i: I, j: J,
		flat:     make([]complex128, K*I*J),
		rows:     make([][]complex128, K*I),
		haveFlat: make([]bool, K*I),
		haveRows: make([][]bool, K),
	}
	b.a.Values = make([][][]complex128, K)
	for k := 0; k < K; k++ {
		b.a.Values[k] = b.rows[k*I : (k+1)*I]
		b.haveRows[k] = b.haveFlat[k*I : (k+1)*I]
		for i := 0; i < I; i++ {
			off := (k*I + i) * J
			b.rows[k*I+i] = b.flat[off : off+J]
		}
	}
	return b
}

func (e *Engine) putAlpha(b *alphaBox) { e.alphaPool.Put(b) }

// correctInto is CorrectRef writing into a pooled workspace instead of
// freshly allocated nested slices. The arithmetic, finite guards and
// masking are identical to CorrectRef's (they share refFactor/alphaRow),
// which the golden parity tests assert bit for bit.
func (e *Engine) correctInto(s *csi.Snapshot, ref int, b *alphaBox) *Alpha {
	K, I := b.k, b.i
	b.a.Freqs = s.Freqs
	b.a.Ref = ref
	anyMasked := false
	guardTrips := uint64(0)
	for k := 0; k < K; k++ {
		refOK, mr := refFactor(s, k, ref)
		for i := 0; i < I; i++ {
			row := b.rows[k*I+i]
			ok := refOK && s.Present(k, i)
			if ok {
				ok = alphaRow(row, s.Tag[k][i], s.Master[k][i], mr)
			} else {
				clear(row) // recycled memory: zero like CorrectRef's fresh rows
			}
			b.haveRows[k][i] = ok
			if !ok {
				anyMasked = true
				if s.Present(k, i) && s.Present(k, ref) {
					// The row arrived but the finite/denormal guard
					// rejected the conjugate product.
					guardTrips++
				}
			}
		}
	}
	if s.Have == nil && !anyMasked {
		b.a.Have = nil
	} else {
		b.a.Have = b.haveRows
	}
	if guardTrips > 0 {
		e.statRowsMasked.Add(guardTrips)
	}
	return &b.a
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
