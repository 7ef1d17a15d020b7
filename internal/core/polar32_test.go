package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// Differential tests of the two row-kernel paths: the portable Go kernel
// (the oracle) and the AVX2 kernel must agree bit for bit, on single
// rows with arbitrary float32 inputs and on every surface, candidate and
// estimate a fix produces.

// withRowKernel runs f with the row kernel forced to the AVX2 path
// (simd) or the portable one, restoring the startup choice afterwards.
func withRowKernel(simd bool, f func()) {
	prev := useSIMD
	useSIMD = simd
	defer func() { useSIMD = prev }()
	f()
}

// fuzzBands is the band count FuzzPolarRow's lanes carry: the 37 BLE
// data channels the testbed sounds.
const fuzzBands = 37

// fuzzRow is one decoded row-kernel call: lanes x/y of fuzzBands·width
// entries plus laneBlock padding, a band list, and a column count.
type fuzzRow struct {
	n    int
	x, y []float32
	off  []int32
	coef []float32
}

// decodeFuzzRow turns fuzz bytes into a kernel call:
//
//	[0]     column count n = b % 101
//	[1]     lane slack: width = n + b%8
//	[2:7]   band mask (bit k lists band k, k < fuzzBands)
//	[7]     shift of every offset within its band row, ≤ slack
//	then    8 bytes per listed band: the raw float32 bits of bRe, bIm
//	then    raw float32 bits of x and y, padding included, cycled
//
// Offsets are k·width + shift, so a listed last band with the full
// shift ends its run at the lane end and the block read covers the
// padding. Missing header and coefficient bytes read as zero.
func decodeFuzzRow(data []byte) fuzzRow {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	word := func(i int) uint32 {
		return uint32(at(i)) | uint32(at(i+1))<<8 | uint32(at(i+2))<<16 | uint32(at(i+3))<<24
	}
	r := fuzzRow{n: int(at(0)) % 101}
	slack := int(at(1)) % 8
	width := r.n + slack
	shift := int(at(7)) % (slack + 1)
	pos := 8
	for k := 0; k < fuzzBands; k++ {
		if at(2+k/8)&(1<<(k%8)) == 0 {
			continue
		}
		r.off = append(r.off, int32(k*width+shift))
		r.coef = append(r.coef, math.Float32frombits(word(pos)), math.Float32frombits(word(pos+4)))
		pos += 8
	}
	lanes := fuzzBands*width + laneBlock
	r.x, r.y = make([]float32, lanes), make([]float32, lanes)
	rest := data[min(pos, len(data)):]
	for i := 0; i < 2*lanes; i++ {
		var v float32
		if len(rest) >= 4 {
			j := (4 * i) % (len(rest) - len(rest)%4)
			v = math.Float32frombits(binary.LittleEndian.Uint32(rest[j:]))
		} else {
			v = float32(i%7) - 3
		}
		if i < lanes {
			r.x[i] = v
		} else {
			r.y[i-lanes] = v
		}
	}
	return r
}

// encodeFuzzRow is decodeFuzzRow's inverse for seeds: bands lists the
// band indices (ascending, < fuzzBands) and coef their coefficients;
// x and y must hold fuzzBands·width + laneBlock lanes.
func encodeFuzzRow(n, slack, shift int, bands []int, coef, x, y []float32) []byte {
	b := make([]byte, 8)
	b[0], b[1], b[7] = byte(n), byte(slack), byte(shift)
	for _, k := range bands {
		b[2+k/8] |= 1 << (k % 8)
	}
	for _, c := range coef {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(c))
	}
	for _, v := range x {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	for _, v := range y {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// testbedRowSeed encodes a real refinement row: testbed.Paper(1)'s
// anchor 1 at θ row 90, the band list and coefficients the engine
// builds, and a Δ run cut from the fine lanes of every band.
func testbedRowSeed(tb testing.TB) []byte {
	d, err := testbed.Paper(1)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		tb.Fatal(err)
	}
	a, err := Correct(d.Sounding(geom.Pt(1.2, 0.8)))
	if err != nil {
		tb.Fatal(err)
	}
	ps := e.planesFor(a.Freqs)
	K, J, P := a.NumBands(), a.NumAntennas(), ps.stepP
	if K > fuzzBands {
		tb.Fatalf("testbed sounds %d bands, the fuzz layout holds %d", K, fuzzBands)
	}
	avp := make([]complex128, K*J)
	bfCoeffs(ps, a, 1, avp)
	const t, n, slack, shift, col = 90, 40, 3, 2, 120
	pows := ps.stepPows[e.spacingIdx[1]]
	off := make([]int32, K)
	coef := make([]float32, 2*K)
	nb := rowBands(avp, pows[t*K*P:(t*K+K)*P], K, J, P, ps.fine.width, off, coef)
	bands := make([]int, nb)
	for j := range bands {
		bands[j] = int(off[j]) / ps.fine.width
	}
	width := n + slack
	lanes := fuzzBands*width + laneBlock
	x, y := make([]float32, lanes), make([]float32, lanes)
	s := ps.fine.start(col)
	for k := 0; k < K; k++ {
		for i := 0; i < width && s+k*ps.fine.width+i < len(ps.fine.re); i++ {
			x[k*width+i] = ps.fine.re[s+k*ps.fine.width+i]
			y[k*width+i] = ps.fine.im[s+k*ps.fine.width+i]
		}
	}
	return encodeFuzzRow(n, slack, shift, bands, coef[:2*nb], x, y)
}

// sameFloat32 reports bit equality, or NaN on both sides.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// FuzzPolarRow checks the AVX2 row kernel against the Go kernel on
// arbitrary rows: every column below the count must carry identical
// bits, or NaN on both sides. The accumulators start poisoned, so a
// kernel that does not start from +0 fails.
func FuzzPolarRow(f *testing.F) {
	f.Add(testbedRowSeed(f))
	all := func(n int) []int {
		b := make([]int, n)
		for k := range b {
			b[k] = k
		}
		return b
	}
	lanes := func(n, slack int, v float32) []float32 {
		l := make([]float32, fuzzBands*(n+slack)+laneBlock)
		for i := range l {
			l[i] = v * float32(i%5-2)
		}
		return l
	}
	for _, n := range []int{0, 1, 7, 8, 9} {
		f.Add(encodeFuzzRow(n, 7, 7, all(fuzzBands), make([]float32, 2*fuzzBands), lanes(n, 7, 0.5), lanes(n, 7, -0.25)))
	}
	// An empty band list.
	f.Add(encodeFuzzRow(23, 2, 1, nil, nil, lanes(23, 2, 1), lanes(23, 2, 1)))
	// Overflow: products of 3e38 overflow to ±Inf and Inf − Inf is NaN.
	big := float32(3e38)
	f.Add(encodeFuzzRow(17, 5, 5, []int{0, 1, 36}, []float32{big, -big, big, big, float32(math.Copysign(0, -1)), big},
		lanes(17, 5, big), lanes(17, 5, 2)))
	// Subnormal coefficients and lanes, and signed zeros.
	sub := math.Float32frombits(1)
	f.Add(encodeFuzzRow(33, 4, 3, []int{2, 3, 35, 36}, []float32{sub, -sub, 0, float32(math.Copysign(0, -1)), sub * 7, 1e-20, -1e-30, sub},
		lanes(33, 4, sub), lanes(33, 4, 1e-38)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !haveAVX2 {
			t.Skip("no AVX2 on this CPU: only the Go row kernel exists")
		}
		r := decodeFuzzRow(data)
		acc := func() (re, im []float32) {
			re, im = make([]float32, r.n+laneBlock), make([]float32, r.n+laneBlock)
			for i := range re {
				re[i], im[i] = float32(math.NaN()), float32(math.Inf(1))
			}
			return re, im
		}
		goRe, goIm := acc()
		simdRe, simdIm := acc()
		polarRowGo(goRe, goIm, r.x, r.y, r.off, r.coef, r.n)
		polarRowAVX2(simdRe, simdIm, r.x, r.y, r.off, r.coef, r.n)
		for i := 0; i < r.n; i++ {
			if !sameFloat32(goRe[i], simdRe[i]) || !sameFloat32(goIm[i], simdIm[i]) {
				t.Fatalf("column %d of %d (%d bands): go (%x, %x), avx2 (%x, %x)", i, r.n, len(r.off),
					math.Float32bits(goRe[i]), math.Float32bits(goIm[i]),
					math.Float32bits(simdRe[i]), math.Float32bits(simdIm[i]))
			}
		}
	})
}

// TestPolarRowRejectsShortOperands pins the AVX2 kernels' guards: a row
// offset whose block read would leave the lanes, or a paint index past
// the polar plane, panics instead of reading past them.
func TestPolarRowRejectsShortOperands(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go row kernel exists")
	}
	x := make([]float32, 3*laneBlock)
	re, im := make([]float32, 2*laneBlock), make([]float32, 2*laneBlock)
	coef := []float32{1, 0, 1, 0}
	for _, tc := range []struct {
		name string
		off  []int32
		n    int
	}{
		{"negative offset", []int32{0, -1}, 4},
		{"block past the lane end", []int32{0, 2*laneBlock + 1}, 4},
		{"pair of blocks past the lane end", []int32{laneBlock + 1}, 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			polarRowAVX2(re, im, x, x, tc.off, coef, tc.n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("paint index past the polar plane: no panic")
			}
		}()
		idx := make([]int32, laneBlock)
		idx[5] = int32(len(x))
		w := make([]float32, laneBlock)
		paintAVX2(x, idx, idx, idx, idx, w, w, w, w, make([]float32, laneBlock), 0)
	}()
}

// TestPaintPathsBitIdentical checks the AVX2 paint against the Go loop
// on random tiles of 0–40 cells whose polar plane mixes ordinary
// magnitudes with ±0, subnormals, ±Inf and NaN: every painted value
// must carry identical bits (or NaN on both sides), and so must the
// returned maximum.
func TestPaintPathsBitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go paint exists, nothing to compare")
	}
	rng := rand.New(rand.NewPCG(26, 2))
	special := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), float32(math.Inf(1)),
		float32(math.Inf(-1)), float32(math.NaN()), 3e38, 1e-30}
	value := func() float32 {
		if rng.IntN(8) == 0 {
			return special[rng.IntN(len(special))]
		}
		return rng.Float32() * 4
	}
	polar := make([]float32, 97)
	for trial := 0; trial < 2000; trial++ {
		for i := range polar {
			polar[i] = value()
		}
		n := rng.IntN(41)
		idx := func() []int32 {
			s := make([]int32, n)
			for c := range s {
				s[c] = int32(rng.IntN(len(polar)))
			}
			return s
		}
		weight := func() []float32 {
			s := make([]float32, n)
			for c := range s {
				s[c] = value()
			}
			return s
		}
		i00, i10, i01, i11 := idx(), idx(), idx(), idx()
		w00, w10, w01, w11 := weight(), weight(), weight(), weight()
		pm := []float32{0, 1, 2.5}[rng.IntN(3)]
		paint := func(simd bool) (vals []float32, max float32) {
			vals = make([]float32, n)
			withRowKernel(simd, func() {
				max = paintCells(polar, i00, i10, i01, i11, w00, w10, w01, w11, vals, pm)
			})
			return vals, max
		}
		goVals, goMax := paint(false)
		simdVals, simdMax := paint(true)
		for c := range goVals {
			if !sameFloat32(goVals[c], simdVals[c]) {
				t.Fatalf("trial %d cell %d of %d: go %x, avx2 %x", trial, c, n,
					math.Float32bits(goVals[c]), math.Float32bits(simdVals[c]))
			}
		}
		if math.Float32bits(goMax) != math.Float32bits(simdMax) {
			t.Fatalf("trial %d: painted maximum go %v, avx2 %v", trial, goMax, simdMax)
		}
	}
}

// fixDigest is everything a fix returns that the two kernel paths must
// agree on: the combined surface, the candidates and the estimate.
type fixDigest struct {
	surface    []float64
	candidates []Candidate
	estimate   geom.Point
	gated      bool
	fallback   string
}

func digestOf(res *Result, surface *dsp.Grid) fixDigest {
	return fixDigest{
		surface:    surface.Data,
		candidates: append([]Candidate(nil), res.Candidates...),
		estimate:   res.Estimate, gated: res.Gated, fallback: res.Fallback,
	}
}

// sameFloat64s reports bit equality of two float64 slices.
func sameFloat64s(a, b []float64) bool {
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

func sameDigest(a, b fixDigest) bool {
	if !sameFloat64s(a.surface, b.surface) || len(a.candidates) != len(b.candidates) ||
		a.gated != b.gated || a.fallback != b.fallback ||
		!sameFloat64s([]float64{a.estimate.X, a.estimate.Y}, []float64{b.estimate.X, b.estimate.Y}) {
		return false
	}
	for i, c := range a.candidates {
		d := b.candidates[i]
		if !sameFloat64s([]float64{c.Loc.X, c.Loc.Y, c.PeakValue, c.Entropy, c.SumDist, c.Score},
			[]float64{d.Loc.X, d.Loc.Y, d.PeakValue, d.Entropy, d.SumDist, d.Score}) {
			return false
		}
	}
	return true
}

// TestKernelPathsBitIdentical runs full-grid and gated LocateOpts fixes
// at 64 seeded positions of testbed.Paper(1), cycling the reference
// through anchors 0–3, plus Engine.Likelihood's per-anchor maps and one
// snapshot with masked rows, once per row-kernel path: every combined
// surface, candidate and estimate must match bit for bit.
func TestKernelPathsBitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go row kernel exists, nothing to compare")
	}
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	room := d.Env.Room
	rng := rand.New(rand.NewPCG(26, 1))
	fixes := func(snap *csi.Snapshot, ref int, simd bool) (full, gated fixDigest) {
		withRowKernel(simd, func() {
			res, surface := locateSurface(t, e, snap, LocateOptions{Ref: ref})
			full = digestOf(res, surface)
			gated = digestOf(locateSurface(t, e, snap, LocateOptions{Ref: ref, Prior: tightPrior(res.Estimate)}))
		})
		return full, gated
	}
	gatedSeen := 0
	for p := 0; p < 64; p++ {
		tag := geom.Pt(room.Min.X+0.3+rng.Float64()*(room.Width()-0.6),
			room.Min.Y+0.3+rng.Float64()*(room.Height()-0.6))
		ref := p % 4
		snap := d.Sounding(tag)
		goFull, goGated := fixes(snap, ref, false)
		simdFull, simdGated := fixes(snap, ref, true)
		if !sameDigest(goFull, simdFull) {
			t.Errorf("position %d %v ref %d: full-grid fixes differ between kernel paths", p, tag, ref)
		}
		if !sameDigest(goGated, simdGated) {
			t.Errorf("position %d %v ref %d: gated fixes differ between kernel paths", p, tag, ref)
		}
		if goGated.gated {
			gatedSeen++
		}
	}
	if gatedSeen == 0 {
		t.Error("no position took the gated path; the gated comparison covered nothing")
	}

	// Engine.Likelihood's per-anchor maps, on a snapshot with masked
	// rows: one anchor silenced on every third band and two bands lost
	// on another.
	snap := d.Sounding(geom.Pt(-0.7, 1.3)).MaskedCopy()
	for k := 0; k < len(snap.Bands); k += 3 {
		snap.MaskMissing(k, 2)
	}
	snap.MaskMissing(4, 1)
	snap.MaskMissing(11, 3)
	maps := func(simd bool) (comb *dsp.Grid, per []*dsp.Grid, full fixDigest) {
		withRowKernel(simd, func() {
			a, err := CorrectRef(snap, 0)
			if err != nil {
				t.Fatal(err)
			}
			if comb, per, err = e.Likelihood(a); err != nil {
				t.Fatal(err)
			}
			full = digestOf(locateSurface(t, e, snap, LocateOptions{}))
		})
		return comb, per, full
	}
	goComb, goPer, goFix := maps(false)
	simdComb, simdPer, simdFix := maps(true)
	if !sameFloat64s(goComb.Data, simdComb.Data) {
		t.Error("masked snapshot: Likelihood's combined maps differ between kernel paths")
	}
	for i := range goPer {
		if (goPer[i] == nil) != (simdPer[i] == nil) ||
			(goPer[i] != nil && !sameFloat64s(goPer[i].Data, simdPer[i].Data)) {
			t.Errorf("masked snapshot: anchor %d's map differs between kernel paths", i)
		}
	}
	if !sameDigest(goFix, simdFix) {
		t.Error("masked snapshot: full-grid fixes differ between kernel paths")
	}
}

// TestWorkCounters pins the exact work of one full-grid fix on
// BenchmarkFullGridFix's snapshot — the row kernel's complex
// multiply-accumulates and the XY cells painted — and requires both
// kernel paths to report the same: the SIMD kernel moves time, not
// work.
func TestWorkCounters(t *testing.T) {
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	const wantSamples, wantCells = 299367, 48439
	for _, simd := range []bool{false, true} {
		if simd && !haveAVX2 {
			t.Log("no AVX2 on this CPU: counted the Go row kernel only")
			continue
		}
		e := paperEngine(t, d)
		withRowKernel(simd, func() {
			if _, err := e.LocateOpts(snap, LocateOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		st := e.Stats()
		if st.PolarSamples != wantSamples || st.CellsPainted != wantCells {
			t.Errorf("simd=%v: PolarSamples %d, CellsPainted %d; want %d, %d",
				simd, st.PolarSamples, st.CellsPainted, wantSamples, wantCells)
		}
	}
}

// BenchmarkPolarRow times the row kernel alone on a testbed row of 40
// columns over every band, per path.
func BenchmarkPolarRow(b *testing.B) {
	r := decodeFuzzRow(testbedRowSeed(b))
	re, im := make([]float32, r.n+laneBlock), make([]float32, r.n+laneBlock)
	for _, path := range []struct {
		name string
		simd bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.simd && !haveAVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			withRowKernel(path.simd, func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					polarRow(re, im, r.x, r.y, r.off, r.coef, r.n)
				}
			})
		})
	}
}
