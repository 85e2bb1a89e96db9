// AVX2 micro-kernels behind the blocked matmul and cache-aware conv
// variants. Every kernel preserves the scalar reference's float32
// operation order exactly: per output element, each step is one multiply
// then one add onto the running value (VMULPS + VADDPS, never FMA — a
// fused multiply-add rounds once where the scalar code rounds twice, which
// would break bit-identity with the naive kernels). SIMD lanes vectorize
// across independent output columns, so no accumulation order changes.

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
// K-block and makes the exact-zero skip branchless. It sweeps the columns
// in blocks of 16 and 8 (YMM), one of 4 (the same term on XMM) and single
// columns, so n = 12 — BERT-mini's sequence length, the attention score
// width — is 8 + 4 instead of 8 + 1 + 1 + 1 + 1. Register roles:
//   Y0-Y7  accumulators (row r: Y(2r), Y(2r+1))   Y8, Y9  the b-row columns
//   Y10 broadcast coefficient   Y11 its blend key   Y12, Y13 products
//   Y14 -0.0 (0x80000000) in every lane
// A skipped term adds -0.0 in place of the product: x + (-0) = x bit for bit
// for every x (+-0, +-Inf and quiet NaN included), so a 0*Inf or 0*NaN
// product never reaches the accumulator. The blend is one signed integer
// minimum per product vector, where VBLENDVPS costs two or three uops: the
// key is (coefficient != 0) XOR 0x80000000, so INT32_MAX keeps any product
// bit pattern as it is and INT32_MIN, whose bits are -0.0, replaces it.
// NEQ_UQ ($4) against -0.0 is Go's a != 0: a NaN coefficient is kept, a zero
// of either sign is skipped. Multiply takes (b, coefficient) and add takes
// (product, accumulator), the operand order of saxpyAsm, so a NaN result
// carries the payload it carries there.

#define TERM16(coef, acc0, acc1) \
	VBROADCASTSS coef, Y10; \
	VCMPPS       $4, Y14, Y10, Y11; \
	VPXOR        Y14, Y11, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VPMINSD      Y11, Y12, Y12; \
	VPMINSD      Y11, Y13, Y13; \
	VADDPS       acc0, Y12, acc0; \
	VADDPS       acc1, Y13, acc1

#define TERM8(coef, acc) \
	VBROADCASTSS coef, Y10; \
	VCMPPS       $4, Y14, Y10, Y11; \
	VPXOR        Y14, Y11, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VPMINSD      Y11, Y12, Y12; \
	VADDPS       acc, Y12, acc

#define TERM4(coef, acc) \
	VBROADCASTSS coef, X10; \
	VCMPPS       $4, X14, X10, X11; \
	VPXOR        X14, X11, X11; \
	VMULPS       X10, X8, X12; \
	VPMINSD      X11, X12, X12; \
	VADDPS       acc, X12, acc

#define TERM1(coef, acc) \
	VMOVSS  coef, X10; \
	VCMPPS  $4, X14, X10, X11; \
	VPXOR   X14, X11, X11; \
	VMULSS  X10, X8, X12; \
	VPMINSD X11, X12, X12; \
	VADDSS  acc, X12, acc

// func tileKernelAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)
// For r in [0,4) and j in [0,n): out[r*os+j] += a[r*si+p*sp] * b[p*n+j]
// over p in [0,kc), ascending, terms with a zero coefficient skipped. n and
// kc must be positive. Strides are in elements; os = si = 0 runs one row in
// all four lanes (each stores the same values).
TEXT ·tileKernelAsm(SB), NOSPLIT, $0-64
	MOVQ     out+0(FP), DI
	MOVQ     os+8(FP), R8
	LEAQ     (R8)(R8*2), R9   // 3*os
	MOVQ     si+24(FP), R10
	LEAQ     (R10)(R10*2), R11 // 3*si
	MOVQ     sp+32(FP), R13
	MOVQ     b+40(FP), BX
	MOVQ     n+48(FP), R12
	MOVQ     R12, SI          // columns left
	VPCMPEQD Y14, Y14, Y14
	VPSLLD   $31, Y14, Y14

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
	MOVQ    a+16(FP), AX
	MOVQ    BX, DX
	MOVQ    kc+56(FP), CX

term16:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	TERM16((AX), Y0, Y1)
	TERM16((AX)(R10*4), Y2, Y3)
	TERM16((AX)(R10*8), Y4, Y5)
	TERM16((AX)(R11*4), Y6, Y7)
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
	MOVQ    a+16(FP), AX
	MOVQ    BX, DX
	MOVQ    kc+56(FP), CX

term8:
	VMOVUPS (DX), Y8
	TERM8((AX), Y0)
	TERM8((AX)(R10*4), Y1)
	TERM8((AX)(R10*8), Y2)
	TERM8((AX)(R11*4), Y3)
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
	MOVQ    a+16(FP), AX
	MOVQ    BX, DX
	MOVQ    kc+56(FP), CX

term4:
	VMOVUPS (DX), X8
	TERM4((AX), X0)
	TERM4((AX)(R10*4), X1)
	TERM4((AX)(R10*8), X2)
	TERM4((AX)(R11*4), X3)
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
	MOVQ   a+16(FP), AX
	MOVQ   BX, DX
	MOVQ   kc+56(FP), CX

term1:
	VMOVSS (DX), X8
	TERM1((AX), X0)
	TERM1((AX)(R10*4), X1)
	TERM1((AX)(R10*8), X2)
	TERM1((AX)(R11*4), X3)
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
