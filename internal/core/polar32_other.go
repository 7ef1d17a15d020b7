//go:build !amd64

package core

// Without amd64 there is no SIMD row kernel: every fill runs polarRowGo.

const haveAVX2 = false

var useSIMD = false

func polarRowAVX2(re, im, x, y []float32, off []int32, coef []float32, n int) {
	panic("core: the AVX2 row kernel exists only on amd64")
}

func paintAVX2(polar []float32, i00, i10, i01, i11 []int32, w00, w10, w01, w11, vals []float32, pm float32) (int, float32) {
	panic("core: the AVX2 paint exists only on amd64")
}
