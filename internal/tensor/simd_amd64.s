//go:build amd64 && !purego

// AVX2 micro-kernels behind the blocked matmul and cache-aware conv
// variants, and the tile kernel's AVX-512F column block (run where
// hasAVX512 is set). Every kernel preserves the scalar reference's float32
// operation order exactly: per output element, each step is one multiply
// then one add onto the running value (VMULPS + VADDPS, never FMA — a
// fused multiply-add rounds once where the scalar code rounds twice, which
// would break bit-identity with the naive kernels). SIMD lanes vectorize
// across independent output columns, so no accumulation order changes,
// and a zmm lane runs exactly the instructions of a ymm lane.
// finiteAsm computes nothing: it is the scan that picks the tile kernel.

#include "textflag.h"

// func saxpyAsm(dst, x *float32, n int, a float32)
// dst[0:n] += a * x[0:n], one mul-then-add per element.
TEXT ·saxpyAsm(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// The tile kernel keeps a 4-row block of out in registers for a whole
// K-block. It sweeps the columns in blocks of 32 (ZMM, where hasAVX512 is
// set), 16 and 8 (YMM), one of 4 (the same term on XMM) and single
// columns, so n = 12 — BERT-mini's sequence
// length, the attention score width — is 8 + 4 instead of 8 + 1 + 1 + 1 + 1.
// Lanes are independent output columns: a zmm lane runs exactly the
// instructions of a ymm lane, so the width changes no bit.
// Every term is dense (DENSE*: broadcast, multiply, add) with no exact-zero
// skip: the caller runs it only where its scan (finiteAsm) found b finite.
// There a zero coefficient adds 0*b = +-0 to an accumulator that is never
// -0 — it starts at +0, and under round-to-nearest a sum is -0 only when
// both addends are — which leaves the accumulator's bits as they are, as
// the skip in tileKernelGeneric does.
// Register roles:
//   Z0-Z7/Y0-Y7  accumulators (row r: 2r, 2r+1)   Z8, Z9/Y8, Y9  the b-row columns
//   Z10/Y10 broadcast coefficient   Z12, Z13/Y12, Y13 products
// Multiply takes (b, coefficient) and add takes (product, accumulator), the
// operand order of saxpyAsm, so a NaN result carries the payload it carries
// there.

#define ZDENSE32(coef, acc0, acc1) \
	VBROADCASTSS coef, Z10; \
	VMULPS       Z10, Z8, Z12; \
	VMULPS       Z10, Z9, Z13; \
	VADDPS       acc0, Z12, acc0; \
	VADDPS       acc1, Z13, acc1

#define DENSE16(coef, acc0, acc1) \
	VBROADCASTSS coef, Y10; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VADDPS       acc0, Y12, acc0; \
	VADDPS       acc1, Y13, acc1

#define DENSE8(coef, acc) \
	VBROADCASTSS coef, Y10; \
	VMULPS       Y10, Y8, Y12; \
	VADDPS       acc, Y12, acc

#define DENSE4(coef, acc) \
	VBROADCASTSS coef, X10; \
	VMULPS       X10, X8, X12; \
	VADDPS       acc, X12, acc

#define DENSE1(coef, acc) \
	VMOVSS coef, X10; \
	VMULSS X10, X8, X12; \
	VADDSS acc, X12, acc

// func tileKernelDenseAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)
// For r in [0,4) and j in [0,n): out[r*os+j] += a[r*si+p*sp] * b[p*n+j]
// over p in [0,kc), ascending. n and kc must be positive. Strides are in
// elements (R9 = 3*os, R11 = 3*si); os = si = 0 runs one row in all four
// lanes (each stores the same values). Each column block loads the 4-row
// block of out, runs the K-block over it, stores it and steps DI and BX
// past its columns (SI counts the columns left). With hasAVX512 the zmm
// 32-blocks repeat while their width fits, so at most one ymm 16-block
// follows; without it the ymm 16-blocks repeat. Then at most one 8- and one
// 4-block, and the 1-blocks while columns are left.
TEXT ·tileKernelDenseAsm(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ os+8(FP), R8
	MOVQ a+16(FP), R14
	MOVQ si+24(FP), R10
	MOVQ sp+32(FP), R13
	MOVQ b+40(FP), BX
	MOVQ n+48(FP), R12
	MOVQ kc+56(FP), R15
	LEAQ (R8)(R8*2), R9
	LEAQ (R10)(R10*2), R11
	MOVQ R12, SI
	CMPB ·hasAVX512(SB), $0
	JEQ  block16

zblock32:
	CMPQ    SI, $32
	JL      block16
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(R8*4), Z2
	VMOVUPS 64(DI)(R8*4), Z3
	VMOVUPS (DI)(R8*8), Z4
	VMOVUPS 64(DI)(R8*8), Z5
	VMOVUPS (DI)(R9*4), Z6
	VMOVUPS 64(DI)(R9*4), Z7
	MOVQ    R14, AX
	MOVQ    BX, DX
	MOVQ    R15, CX

zterm32:
	VMOVUPS (DX), Z8
	VMOVUPS 64(DX), Z9
	ZDENSE32((AX), Z0, Z1)
	ZDENSE32((AX)(R10*4), Z2, Z3)
	ZDENSE32((AX)(R10*8), Z4, Z5)
	ZDENSE32((AX)(R11*4), Z6, Z7)
	LEAQ    (AX)(R13*4), AX
	LEAQ    (DX)(R12*4), DX
	DECQ    CX
	JNZ     zterm32
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(R8*4)
	VMOVUPS Z3, 64(DI)(R8*4)
	VMOVUPS Z4, (DI)(R8*8)
	VMOVUPS Z5, 64(DI)(R8*8)
	VMOVUPS Z6, (DI)(R9*4)
	VMOVUPS Z7, 64(DI)(R9*4)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, SI
	JMP     zblock32

block16:
	CMPQ    SI, $16
	JL      block8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*4), Y2
	VMOVUPS 32(DI)(R8*4), Y3
	VMOVUPS (DI)(R8*8), Y4
	VMOVUPS 32(DI)(R8*8), Y5
	VMOVUPS (DI)(R9*4), Y6
	VMOVUPS 32(DI)(R9*4), Y7
	MOVQ    R14, AX
	MOVQ    BX, DX
	MOVQ    R15, CX

term16:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	DENSE16((AX), Y0, Y1)
	DENSE16((AX)(R10*4), Y2, Y3)
	DENSE16((AX)(R10*8), Y4, Y5)
	DENSE16((AX)(R11*4), Y6, Y7)
	LEAQ    (AX)(R13*4), AX
	LEAQ    (DX)(R12*4), DX
	DECQ    CX
	JNZ     term16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*4)
	VMOVUPS Y3, 32(DI)(R8*4)
	VMOVUPS Y4, (DI)(R8*8)
	VMOVUPS Y5, 32(DI)(R8*8)
	VMOVUPS Y6, (DI)(R9*4)
	VMOVUPS Y7, 32(DI)(R9*4)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, SI
	JMP     block16

block8:
	CMPQ    SI, $8
	JL      block4
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*4), Y1
	VMOVUPS (DI)(R8*8), Y2
	VMOVUPS (DI)(R9*4), Y3
	MOVQ    R14, AX
	MOVQ    BX, DX
	MOVQ    R15, CX

term8:
	VMOVUPS (DX), Y8
	DENSE8((AX), Y0)
	DENSE8((AX)(R10*4), Y1)
	DENSE8((AX)(R10*8), Y2)
	DENSE8((AX)(R11*4), Y3)
	LEAQ    (AX)(R13*4), AX
	LEAQ    (DX)(R12*4), DX
	DECQ    CX
	JNZ     term8
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*4)
	VMOVUPS Y2, (DI)(R8*8)
	VMOVUPS Y3, (DI)(R9*4)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, SI

block4:
	CMPQ    SI, $4
	JL      block1
	VMOVUPS (DI), X0
	VMOVUPS (DI)(R8*4), X1
	VMOVUPS (DI)(R8*8), X2
	VMOVUPS (DI)(R9*4), X3
	MOVQ    R14, AX
	MOVQ    BX, DX
	MOVQ    R15, CX

term4:
	VMOVUPS (DX), X8
	DENSE4((AX), X0)
	DENSE4((AX)(R10*4), X1)
	DENSE4((AX)(R10*8), X2)
	DENSE4((AX)(R11*4), X3)
	LEAQ    (AX)(R13*4), AX
	LEAQ    (DX)(R12*4), DX
	DECQ    CX
	JNZ     term4
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(R8*4)
	VMOVUPS X2, (DI)(R8*8)
	VMOVUPS X3, (DI)(R9*4)
	ADDQ    $16, DI
	ADDQ    $16, BX
	SUBQ    $4, SI

block1:
	CMPQ   SI, $0
	JLE    done
	VMOVSS (DI), X0
	VMOVSS (DI)(R8*4), X1
	VMOVSS (DI)(R8*8), X2
	VMOVSS (DI)(R9*4), X3
	MOVQ   R14, AX
	MOVQ   BX, DX
	MOVQ   R15, CX

term1:
	VMOVSS (DX), X8
	DENSE1((AX), X0)
	DENSE1((AX)(R10*4), X1)
	DENSE1((AX)(R10*8), X2)
	DENSE1((AX)(R11*4), X3)
	LEAQ   (AX)(R13*4), AX
	LEAQ   (DX)(R12*4), DX
	DECQ   CX
	JNZ    term1
	VMOVSS X0, (DI)
	VMOVSS X1, (DI)(R8*4)
	VMOVSS X2, (DI)(R8*8)
	VMOVSS X3, (DI)(R9*4)
	ADDQ   $4, DI
	ADDQ   $4, BX
	DECQ   SI
	JMP    block1

done:
	VZEROUPPER
	RET

// func finiteAsm(x *float32, n int) bool
// Reports whether every x[i], i in [0,n), is finite: its exponent field is
// not all ones. ±Inf and every NaN have an all-ones exponent; ±0,
// subnormals and ±MaxFloat32 do not. VPAND keeps the exponent field,
// VPCMPEQD against the field's mask marks the non-finite lanes and VPTEST
// stops at the first block that has one. Blocks of 16 and 8, then single
// elements.
TEXT ·finiteAsm(SB), NOSPLIT, $0-17
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7f800000, AX
	VMOVD        AX, X2
	VPBROADCASTD X2, Y2

scan16:
	CMPQ     CX, $16
	JL       scan8
	VPAND    (SI), Y2, Y0
	VPAND    32(SI), Y2, Y1
	VPCMPEQD Y2, Y0, Y0
	VPCMPEQD Y2, Y1, Y1
	VPOR     Y1, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      nonfinite
	ADDQ     $64, SI
	SUBQ     $16, CX
	JMP      scan16

scan8:
	CMPQ     CX, $8
	JL       scan1
	VPAND    (SI), Y2, Y0
	VPCMPEQD Y2, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      nonfinite
	ADDQ     $32, SI
	SUBQ     $8, CX

scan1:
	CMPQ CX, $0
	JLE  finite
	MOVL (SI), DX
	ANDL AX, DX
	CMPL DX, AX
	JEQ  nonfinite
	ADDQ $4, SI
	DECQ CX
	JMP  scan1

finite:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

nonfinite:
	MOVB $0, ret+16(FP)
	VZEROUPPER
	RET

// The per-channel kernels behind layers.ChannelAffine and the activation
// epilogue's bias add: rows of c channels, c > 0 and rows > 0, each
// channel j scaled by gamma[j] or offset by bias[j]. Lanes run across
// channels; every element is one VMULPS and/or one VADDPS, never FMA, in
// the operand order of the scalar loops or the vaddAsm they replace.

// func channelAffineAsm(dst, x, gamma, beta *float32, rows, c int)
// dst[r*c+j] = x[r*c+j]*gamma[j] + beta[j]: multiply (x, gamma), add
// (product, beta). Blocks of 8 channels, then single channels, per row.
TEXT ·channelAffineAsm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ gamma+16(FP), R8
	MOVQ beta+24(FP), R9
	MOVQ rows+32(FP), BX
	MOVQ c+40(FP), R10

affineRow:
	XORQ AX, AX

affine8:
	LEAQ    8(AX), DX
	CMPQ    DX, R10
	JG      affine1
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (R8)(AX*4), Y0, Y0
	VADDPS  (R9)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     affine8

affine1:
	CMPQ   AX, R10
	JGE    affineNext
	VMOVSS (SI)(AX*4), X0
	VMULSS (R8)(AX*4), X0, X0
	VADDSS (R9)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    affine1

affineNext:
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R10*4), DI
	DECQ BX
	JNZ  affineRow
	VZEROUPPER
	RET

// func biasRowsAsm(dst, src, bias *float32, rows, c int)
// dst[r*c+j] = bias[j] + src[r*c+j]: the add takes (bias, src), the
// operand order of vaddAsm's (x, dst) as AddRowVec calls it with the bias
// as x, so where two NaNs meet the bias's payload survives in both.
// Blocks of 8 channels, then single channels, per row.
TEXT ·biasRowsAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ rows+24(FP), BX
	MOVQ c+32(FP), R10

biasRow:
	XORQ AX, AX

bias8:
	LEAQ    8(AX), DX
	CMPQ    DX, R10
	JG      bias1
	VMOVUPS (R8)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     bias8

bias1:
	CMPQ   AX, R10
	JGE    biasNext
	VMOVSS (R8)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    bias1

biasNext:
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R10*4), DI
	DECQ BX
	JNZ  biasRow
	VZEROUPPER
	RET

// func channelScaleAsm(dst, grad, gamma *float32, rows, c int)
// dst[r*c+j] = grad[r*c+j]*gamma[j]: a pure multiply (grad, gamma) — no
// add, since adding +0 would turn a -0 product into +0.
TEXT ·channelScaleAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ gamma+16(FP), R8
	MOVQ rows+24(FP), BX
	MOVQ c+32(FP), R10

scaleRow:
	XORQ AX, AX

scale8:
	LEAQ    8(AX), DX
	CMPQ    DX, R10
	JG      scale1
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (R8)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     scale8

scale1:
	CMPQ   AX, R10
	JGE    scaleNext
	VMOVSS (SI)(AX*4), X0
	VMULSS (R8)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    scale1

scaleNext:
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R10*4), DI
	DECQ BX
	JNZ  scaleRow
	VZEROUPPER
	RET

// func channelGradAsm(dgamma, dbeta, grad, x *float32, rows, c int)
// dgamma[j] += grad[r*c+j]*x[r*c+j] and dbeta[j] += grad[r*c+j] over r in
// [0,rows), ascending: multiply (grad, x), add (dgamma, product) and
// (grad, dbeta) — the operand orders of the scalar loop and of vaddAsm,
// which SumRows runs. A block of channels keeps both sums in registers
// down all the rows: 32 channels (four independent chains each), then 8,
// then single channels.
TEXT ·channelGradAsm(SB), NOSPLIT, $0-48
	MOVQ dgamma+0(FP), DI
	MOVQ dbeta+8(FP), R9
	MOVQ grad+16(FP), SI
	MOVQ x+24(FP), R8
	MOVQ rows+32(FP), BX
	MOVQ c+40(FP), R10
	MOVQ R10, R11
	SHLQ $2, R11
	XORQ AX, AX

grad32:
	LEAQ    32(AX), DX
	CMPQ    DX, R10
	JG      grad8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VMOVUPS (R9)(AX*4), Y4
	VMOVUPS 32(R9)(AX*4), Y5
	VMOVUPS 64(R9)(AX*4), Y6
	VMOVUPS 96(R9)(AX*4), Y7
	LEAQ    (SI)(AX*4), R12
	LEAQ    (R8)(AX*4), R13
	MOVQ    BX, CX

grad32Rows:
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	VMOVUPS 64(R12), Y10
	VMOVUPS 96(R12), Y11
	VMULPS  (R13), Y8, Y12
	VMULPS  32(R13), Y9, Y13
	VMULPS  64(R13), Y10, Y14
	VMULPS  96(R13), Y11, Y15
	VADDPS  Y12, Y0, Y0
	VADDPS  Y13, Y1, Y1
	VADDPS  Y14, Y2, Y2
	VADDPS  Y15, Y3, Y3
	VADDPS  Y4, Y8, Y4
	VADDPS  Y5, Y9, Y5
	VADDPS  Y6, Y10, Y6
	VADDPS  Y7, Y11, Y7
	ADDQ    R11, R12
	ADDQ    R11, R13
	DECQ    CX
	JNZ     grad32Rows
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	VMOVUPS Y4, (R9)(AX*4)
	VMOVUPS Y5, 32(R9)(AX*4)
	VMOVUPS Y6, 64(R9)(AX*4)
	VMOVUPS Y7, 96(R9)(AX*4)
	MOVQ    DX, AX
	JMP     grad32

grad8:
	LEAQ    8(AX), DX
	CMPQ    DX, R10
	JG      grad1
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y4
	LEAQ    (SI)(AX*4), R12
	LEAQ    (R8)(AX*4), R13
	MOVQ    BX, CX

grad8Rows:
	VMOVUPS (R12), Y8
	VMULPS  (R13), Y8, Y12
	VADDPS  Y12, Y0, Y0
	VADDPS  Y4, Y8, Y4
	ADDQ    R11, R12
	ADDQ    R11, R13
	DECQ    CX
	JNZ     grad8Rows
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y4, (R9)(AX*4)
	MOVQ    DX, AX
	JMP     grad8

grad1:
	CMPQ   AX, R10
	JGE    gradDone
	VMOVSS (DI)(AX*4), X0
	VMOVSS (R9)(AX*4), X4
	LEAQ   (SI)(AX*4), R12
	LEAQ   (R8)(AX*4), R13
	MOVQ   BX, CX

grad1Rows:
	VMOVSS (R12), X8
	VMULSS (R13), X8, X12
	VADDSS X12, X0, X0
	VADDSS X4, X8, X4
	ADDQ   R11, R12
	ADDQ   R11, R13
	DECQ   CX
	JNZ    grad1Rows
	VMOVSS X0, (DI)(AX*4)
	VMOVSS X4, (R9)(AX*4)
	INCQ   AX
	JMP    grad1

gradDone:
	VZEROUPPER
	RET

// func vaddAsm(dst, x *float32, n int)
// dst[0:n] += x[0:n], elementwise (independent lanes, no order change).
TEXT ·vaddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func reluClampAsm(dst, src *float32, n int)
// dst[0:n] = src > 0 ? src : +0. VMAXPS returns its second source (+0
// here) when either source is NaN or both are zero, which is the scalar
// !(z > 0) clamp: NaN and -0 give +0.
TEXT ·reluClampAsm(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMAXPS  Y0, Y1, Y1
	VMAXPS  Y0, Y2, Y2
	VMAXPS  Y0, Y3, Y3
	VMAXPS  Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X1
	VMAXSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func reluMaskAsm(dst, grad, out *float32, n int)
// dst[0:n] = out > 0 ? grad : +0: an ordered greater-than ($0x1E, GT_OQ: NaN
// compares false) mask ANDed onto grad.
TEXT ·reluMaskAsm(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   out+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y0, Y0, Y0

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (DX), Y1
	VMOVUPS 32(DX), Y2
	VMOVUPS 64(DX), Y3
	VMOVUPS 96(DX), Y4
	VCMPPS  $0x1E, Y0, Y1, Y1
	VCMPPS  $0x1E, Y0, Y2, Y2
	VCMPPS  $0x1E, Y0, Y3, Y3
	VCMPPS  $0x1E, Y0, Y4, Y4
	VANDPS  (SI), Y1, Y1
	VANDPS  32(SI), Y2, Y2
	VANDPS  64(SI), Y3, Y3
	VANDPS  96(SI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (DX), Y1
	VCMPPS  $0x1E, Y0, Y1, Y1
	VANDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (DX), X1
	VCMPSS $0x1E, X0, X1, X1
	VMOVSS (SI), X2
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
