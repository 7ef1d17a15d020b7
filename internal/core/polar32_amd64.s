#include "textflag.h"

// func rowAVX2(re, im, x, y []float32, off []int32, coef []float32, n, lim int) bool
//
// Column blocks are processed two at a time (16 columns, 4 accumulator
// registers) while more than one block remains, then one at a time. For
// each block the band loop broadcasts (bRe, bIm), loads x and y at
// offset off[j] + i and accumulates, lane by lane:
//	re += (bRe*x - bIm*y)
//	im += (bRe*y + bIm*x)
// each operation rounded separately, exactly as polarRowGo does.
TEXT ·rowAVX2(SB), NOSPLIT, $0-161
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), DX
	MOVQ off_base+96(FP), R9
	MOVQ off_len+104(FP), R10
	MOVQ coef_base+120(FP), R11
	MOVQ n+144(FP), CX
	MOVQ lim+152(FP), R12
	XORQ AX, AX // first column of the current block

pair:
	MOVQ CX, R13
	SUBQ AX, R13
	CMPQ R13, $8
	JLE  single
	VXORPS Y0, Y0, Y0 // re, columns i..i+7
	VXORPS Y1, Y1, Y1 // im, columns i..i+7
	VXORPS Y2, Y2, Y2 // re, columns i+8..i+15
	VXORPS Y3, Y3, Y3 // im, columns i+8..i+15
	XORQ   BX, BX

pairband:
	CMPQ    BX, R10
	JGE     pairstore
	MOVLQSX (R9)(BX*4), R14
	CMPQ    R14, R12
	JHI     bad
	ADDQ    AX, R14
	VBROADCASTSS (R11)(BX*8), Y4  // bRe
	VBROADCASTSS 4(R11)(BX*8), Y5 // bIm
	VMOVUPS (SI)(R14*4), Y6       // x
	VMOVUPS (DX)(R14*4), Y7       // y
	VMULPS  Y6, Y4, Y8            // bRe*x
	VMULPS  Y7, Y5, Y9            // bIm*y
	VSUBPS  Y9, Y8, Y8            // bRe*x - bIm*y
	VADDPS  Y8, Y0, Y0
	VMULPS  Y7, Y4, Y10           // bRe*y
	VMULPS  Y6, Y5, Y11           // bIm*x
	VADDPS  Y11, Y10, Y10         // bRe*y + bIm*x
	VADDPS  Y10, Y1, Y1
	VMOVUPS 32(SI)(R14*4), Y6
	VMOVUPS 32(DX)(R14*4), Y7
	VMULPS  Y6, Y4, Y8
	VMULPS  Y7, Y5, Y9
	VSUBPS  Y9, Y8, Y8
	VADDPS  Y8, Y2, Y2
	VMULPS  Y7, Y4, Y10
	VMULPS  Y6, Y5, Y11
	VADDPS  Y11, Y10, Y10
	VADDPS  Y10, Y3, Y3
	INCQ    BX
	JMP     pairband

pairstore:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, (R8)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	VMOVUPS Y3, 32(R8)(AX*4)
	ADDQ    $16, AX
	JMP     pair

single:
	CMPQ   AX, CX
	JGE    done
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   BX, BX

singleband:
	CMPQ    BX, R10
	JGE     singlestore
	MOVLQSX (R9)(BX*4), R14
	CMPQ    R14, R12
	JHI     bad
	ADDQ    AX, R14
	VBROADCASTSS (R11)(BX*8), Y4
	VBROADCASTSS 4(R11)(BX*8), Y5
	VMOVUPS (SI)(R14*4), Y6
	VMOVUPS (DX)(R14*4), Y7
	VMULPS  Y6, Y4, Y8
	VMULPS  Y7, Y5, Y9
	VSUBPS  Y9, Y8, Y8
	VADDPS  Y8, Y0, Y0
	VMULPS  Y7, Y4, Y10
	VMULPS  Y6, Y5, Y11
	VADDPS  Y11, Y10, Y10
	VADDPS  Y10, Y1, Y1
	INCQ    BX
	JMP     singleband

singlestore:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, (R8)(AX*4)
	ADDQ    $8, AX
	JMP     single

done:
	VZEROUPPER
	MOVB $1, ret+160(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+160(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func paintBlocks(polar []float32, i00, i10, i01, i11 []int32, w00, w10, w01, w11, vals []float32, pm float32) (max float32, ok bool)
//
// For every whole block of 8 cells below len(vals):
//	vals[c] = ((polar[i00[c]]*w00[c] + polar[i10[c]]*w10[c]) + polar[i01[c]]*w01[c]) + polar[i11[c]]*w11[c]
// each operation rounded separately, as the Go paint loop does, and
// max keeps the largest value above pm (VMAXPS with the value first
// keeps pm on NaN and on ties, like `if v > pm`). Returns ok = false
// when an index falls outside polar.
TEXT ·paintBlocks(SB), NOSPLIT, $0-253
	MOVQ polar_base+0(FP), SI
	MOVQ polar_len+8(FP), DX
	MOVQ i00_base+24(FP), R8
	MOVQ i10_base+48(FP), R9
	MOVQ i01_base+72(FP), R10
	MOVQ i11_base+96(FP), R11
	MOVQ w00_base+120(FP), R12
	MOVQ w10_base+144(FP), R13
	MOVQ w01_base+168(FP), R14
	MOVQ w11_base+192(FP), BX
	MOVQ vals_base+216(FP), DI
	MOVQ vals_len+224(FP), CX
	ANDQ $-8, CX
	VBROADCASTSS pm+240(FP), Y15
	DECQ DX
	MOVQ DX, X14
	VPBROADCASTD X14, Y14 // largest valid index
	XORQ AX, AX

paintloop:
	CMPQ AX, CX
	JGE  paintdone
	VMOVDQU (R8)(AX*4), Y0
	VMOVDQU (R9)(AX*4), Y1
	VMOVDQU (R10)(AX*4), Y2
	VMOVDQU (R11)(AX*4), Y3
	VPMAXUD Y1, Y0, Y4
	VPMAXUD Y2, Y4, Y4
	VPMAXUD Y3, Y4, Y4
	VPMAXUD Y14, Y4, Y4
	VPCMPEQD Y14, Y4, Y4
	VPMOVMSKB Y4, DX
	CMPL DX, $-1
	JNE  paintbad
	VPCMPEQD Y10, Y10, Y10
	VPCMPEQD Y11, Y11, Y11
	VPCMPEQD Y12, Y12, Y12
	VPCMPEQD Y13, Y13, Y13
	VGATHERDPS Y10, (SI)(Y0*4), Y6
	VGATHERDPS Y11, (SI)(Y1*4), Y7
	VGATHERDPS Y12, (SI)(Y2*4), Y8
	VGATHERDPS Y13, (SI)(Y3*4), Y9
	VMULPS (R12)(AX*4), Y6, Y6
	VMULPS (R13)(AX*4), Y7, Y7
	VADDPS Y7, Y6, Y6
	VMULPS (R14)(AX*4), Y8, Y8
	VADDPS Y8, Y6, Y6
	VMULPS (BX)(AX*4), Y9, Y9
	VADDPS Y9, Y6, Y6
	VMOVUPS Y6, (DI)(AX*4)
	VMAXPS Y15, Y6, Y15
	ADDQ $8, AX
	JMP  paintloop

paintdone:
	VEXTRACTF128 $1, Y15, X0
	VMAXPS X0, X15, X15
	VMOVHLPS X15, X15, X0
	VMAXPS X0, X15, X15
	VPSHUFD $1, X15, X0
	VMAXPS X0, X15, X15
	VZEROUPPER
	MOVSS X15, max+248(FP)
	MOVB $1, ok+252(FP)
	RET

paintbad:
	VZEROUPPER
	MOVB $0, ok+252(FP)
	RET
