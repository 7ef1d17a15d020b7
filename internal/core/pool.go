package core

import (
	"bloc/internal/csi"
	"bloc/internal/dsp"
)

// The per-fix workspace. Every buffer a BLoc fix needs — the corrected
// channels, the float32 polar and coarse planes, the tile masks, the
// combined XY grid, the peak buffer and the entropy window — lives in
// one fixRun recycled through the engine's sync.Pool, so after warm-up
// a fix allocates only what it returns: the Result and its candidates.
// Hit/miss counters feed Stats.

// fixRun is the reusable workspace of one fix (the fix routine in
// estimate.go, the gate and refinement in gated.go): the corrected-
// channel box; the coarse polar/combined planes and per-anchor coarse
// maxima of a gated attempt; the refinement polar plane with its
// per-row spans, the tile masks, the painted-value staging buffer and
// the row kernel's scratch; and the combined grid the refinement paints
// with the peak buffer and entropy window that score it. The struct
// owns all of its slices; recycling the struct recycles every buffer at
// once.
type fixRun struct {
	alpha        alphaBox     // corrected channels (correctInto)
	cpolar       []float32    // decimated polar plane (cT·cD)
	ccomb        []float32    // coarse combined XY plane (cnx·cny)
	cvals        []float32    // one anchor's projected coarse values
	cmax         []float64    // per-anchor coarse map maximum
	polar        []float32    // full-resolution polar plane (T·D)
	rowLo, rowHi []int32      // per-θ-row Δ spans of the selected tiles
	sel, tiles   []bool       // value-selected tiles; the refined tile mask
	vals         []float32    // painted tile values awaiting normalization
	avp          []complex128 // folded beamforming coefficients (bfCoeffs)
	row          rowScratch   // row kernel operands (polar32.go)
	grid         dsp.Grid     // combined XY likelihood, zero outside the tiles
	peaks        []dsp.Peak   // peak-extraction scratch
	window       []float64    // Eq. 18 entropy window scratch
}

// rowScratch holds the row kernel's per-row operands (polar32.go): one
// θ row's band list — lane offsets and float32 coefficients — and the
// padded re/im accumulators, plus a one-block pair for the refinement
// sweep's tail sample.
type rowScratch struct {
	off            []int32
	coef           []float32
	re, im         []float32
	tailRe, tailIm [laneBlock]float32
}

// grow sizes the scratch for rows of up to `bands` bands and `cols`
// columns, with the laneBlock accumulator padding the SIMD kernel
// writes.
func (s *rowScratch) grow(bands, cols int) {
	s.off = growI32(s.off, bands)
	s.coef = growF32(s.coef, 2*bands)
	s.re = growF32(s.re, cols+laneBlock)
	s.im = growF32(s.im, cols+laneBlock)
}

func (e *Engine) getRun() *fixRun {
	if r, ok := e.runPool.Get().(*fixRun); ok {
		e.statPoolHits.Add(1)
		return r
	}
	e.statPoolMisses.Add(1)
	return &fixRun{}
}

func (e *Engine) putRun(r *fixRun) { e.runPool.Put(r) }

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

// alphaBox is a reusable corrected-channel workspace: one flat backing
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

// shape sizes the box for (K, I, J). A box recycled from a different
// shape is rebuilt.
func (b *alphaBox) shape(K, I, J int) {
	if b.flat != nil && b.k == K && b.i == I && b.j == J {
		return
	}
	*b = alphaBox{
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
}

// correctInto is CorrectRef writing into a reusable workspace instead
// of freshly allocated nested slices. The arithmetic, finite guards and
// masking are identical to CorrectRef's (they share refFactor/alphaRow),
// which the golden parity tests assert bit for bit.
func (e *Engine) correctInto(s *csi.Snapshot, ref int, b *alphaBox) *Alpha {
	b.shape(s.NumBands(), s.NumAnchors(), s.NumAntennas())
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
