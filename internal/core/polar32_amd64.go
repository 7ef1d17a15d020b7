package core

// The AVX2 row kernel (polar32_amd64.s) and its startup dispatch.

// haveAVX2 reports whether the CPU supports AVX2 and the OS saves the
// YMM registers across context switches.
var haveAVX2 = detectAVX2()

// useSIMD selects the AVX2 row kernel, once, at startup. Tests flip it
// to run both kernel paths on the same inputs.
var useSIMD = haveAVX2

// detectAVX2 checks CPUID leaf 7 EBX bit 5 (AVX2), plus OSXSAVE and AVX
// in leaf 1 ECX and XCR0's SSE and AVX state bits via XGETBV.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// polarRowAVX2 is the AVX2 row kernel: polarRow's contract, computed 8
// columns per register with the accumulators held in registers across
// bands. Per lane it issues polarRowGo's operations in polarRowGo's
// order — MULPS, MULPS, SUBPS, ADDPS for re and MULPS, MULPS, ADDPS,
// ADDPS for im, no FMA, from +0 — so its bits match polarRowGo's. It
// reads and writes whole 8-lane blocks, discarding the lanes past n;
// the lengths are checked here and every offset inside the assembly.
func polarRowAVX2(re, im, x, y []float32, off []int32, coef []float32, n int) {
	if n <= 0 {
		return
	}
	w := (n + laneBlock - 1) &^ (laneBlock - 1)
	lim := min(len(x), len(y)) - w
	if len(re) < w || len(im) < w || len(coef) < 2*len(off) || (lim < 0 && len(off) > 0) {
		panic("core: row kernel operands too short")
	}
	if !rowAVX2(re, im, x, y, off, coef, n, lim) {
		panic("core: row kernel lane offset out of range")
	}
}

// rowAVX2 runs the kernel over columns [0, n) rounded up to whole
// blocks. It returns false, with the accumulators partly written, when
// an offset lies outside [0, lim].
//
//go:noescape
func rowAVX2(re, im, x, y []float32, off []int32, coef []float32, n, lim int) bool

// paintAVX2 is the AVX2 paint: the Go paint loop's contract (paintCells)
// over the whole 8-cell blocks of vals, gathering the four polar taps of
// eight cells at a time. It returns the cell count it painted and the
// painted maximum; the caller paints the rest.
func paintAVX2(polar []float32, i00, i10, i01, i11 []int32, w00, w10, w01, w11, vals []float32, pm float32) (int, float32) {
	n := len(vals)
	if len(i00) < n || len(i10) < n || len(i01) < n || len(i11) < n ||
		len(w00) < n || len(w10) < n || len(w01) < n || len(w11) < n || len(polar) == 0 {
		panic("core: paint operands too short")
	}
	pm, ok := paintBlocks(polar, i00, i10, i01, i11, w00, w10, w01, w11, vals, pm)
	if !ok {
		panic("core: paint index outside the polar plane")
	}
	return n &^ (laneBlock - 1), pm
}

// paintBlocks paints the whole 8-cell blocks; false reports an index
// outside polar.
//
//go:noescape
func paintBlocks(polar []float32, i00, i10, i01, i11 []int32, w00, w10, w01, w11, vals []float32, pm float32) (max float32, ok bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
