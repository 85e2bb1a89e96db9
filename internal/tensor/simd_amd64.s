// AVX2 micro-kernels behind the blocked matmul and cache-aware conv
// variants. Every kernel preserves the scalar reference's float32
// operation order exactly: per output element, each step is one multiply
// then one add onto the running value (VMULPS + VADDPS, never FMA — a
// fused multiply-add rounds once where the scalar code rounds twice, which
// would break bit-identity with the naive kernels). SIMD lanes vectorize
// across independent output columns, so no accumulation order changes.
// zeroFreeAsm computes nothing: it is the scan that picks the tile kernel.

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

// The tile kernels keep a 4-row block of out in registers for a whole
// K-block. They sweep the columns in blocks of 16 and 8 (YMM), one of 4 (the
// same term on XMM) and single columns, so n = 12 — BERT-mini's sequence
// length, the attention score width — is 8 + 4 instead of 8 + 1 + 1 + 1 + 1.
// Two kernels share that structure (TILE, written once below) and differ only
// in the term macro each block runs:
//   - tileKernelAsm makes the exact-zero skip branchless (SKIP*);
//   - tileKernelDenseAsm has no skip (DENSE*: broadcast, multiply, add) and
//     runs where the caller's scan (zeroFreeAsm) found no ±0 among the
//     coefficients. On such a block every skip key below is INT32_MAX,
//     which keeps every product as it is, so both kernels give every
//     accumulator the same multiply-then-add sequence and the same bits,
//     NaN payloads included.
// Register roles:
//   Y0-Y7  accumulators (row r: Y(2r), Y(2r+1))   Y8, Y9  the b-row columns
//   Y10 broadcast coefficient   Y11 its blend key   Y12, Y13 products
//   Y14 -0.0 (0x80000000) in every lane (skip kernel only)
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

#define SKIP16(coef, acc0, acc1) \
	VBROADCASTSS coef, Y10; \
	VCMPPS       $4, Y14, Y10, Y11; \
	VPXOR        Y14, Y11, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VPMINSD      Y11, Y12, Y12; \
	VPMINSD      Y11, Y13, Y13; \
	VADDPS       acc0, Y12, acc0; \
	VADDPS       acc1, Y13, acc1

#define SKIP8(coef, acc) \
	VBROADCASTSS coef, Y10; \
	VCMPPS       $4, Y14, Y10, Y11; \
	VPXOR        Y14, Y11, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VPMINSD      Y11, Y12, Y12; \
	VADDPS       acc, Y12, acc

#define SKIP4(coef, acc) \
	VBROADCASTSS coef, X10; \
	VCMPPS       $4, X14, X10, X11; \
	VPXOR        X14, X11, X11; \
	VMULPS       X10, X8, X12; \
	VPMINSD      X11, X12, X12; \
	VADDPS       acc, X12, acc

#define SKIP1(coef, acc) \
	VMOVSS  coef, X10; \
	VCMPPS  $4, X14, X10, X11; \
	VPXOR   X14, X11, X11; \
	VMULSS  X10, X8, X12; \
	VPMINSD X11, X12, X12; \
	VADDSS  acc, X12, acc

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

// COLS16, COLS8, COLS4 and COLS1 run one column block under the term macro
// TERM: load the 4-row block of out, run the K-block over it, store it and
// step DI and BX past its columns (SI counts the columns left). COLS16 and
// COLS1 repeat while their width fits; at most one 8- and one 4-block follow
// the 16-blocks.

#define COLS16(TERM) \
block16: \
	CMPQ    SI, $16; \
	JL      block8; \
	VMOVUPS (DI), Y0; \
	VMOVUPS 32(DI), Y1; \
	VMOVUPS (DI)(R8*4), Y2; \
	VMOVUPS 32(DI)(R8*4), Y3; \
	VMOVUPS (DI)(R8*8), Y4; \
	VMOVUPS 32(DI)(R8*8), Y5; \
	VMOVUPS (DI)(R9*4), Y6; \
	VMOVUPS 32(DI)(R9*4), Y7; \
	MOVQ    R14, AX; \
	MOVQ    BX, DX; \
	MOVQ    R15, CX; \
term16: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	TERM((AX), Y0, Y1); \
	TERM((AX)(R10*4), Y2, Y3); \
	TERM((AX)(R10*8), Y4, Y5); \
	TERM((AX)(R11*4), Y6, Y7); \
	LEAQ    (AX)(R13*4), AX; \
	LEAQ    (DX)(R12*4), DX; \
	DECQ    CX; \
	JNZ     term16; \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, (DI)(R8*4); \
	VMOVUPS Y3, 32(DI)(R8*4); \
	VMOVUPS Y4, (DI)(R8*8); \
	VMOVUPS Y5, 32(DI)(R8*8); \
	VMOVUPS Y6, (DI)(R9*4); \
	VMOVUPS Y7, 32(DI)(R9*4); \
	ADDQ    $64, DI; \
	ADDQ    $64, BX; \
	SUBQ    $16, SI; \
	JMP     block16

#define COLS8(TERM) \
block8: \
	CMPQ    SI, $8; \
	JL      block4; \
	VMOVUPS (DI), Y0; \
	VMOVUPS (DI)(R8*4), Y1; \
	VMOVUPS (DI)(R8*8), Y2; \
	VMOVUPS (DI)(R9*4), Y3; \
	MOVQ    R14, AX; \
	MOVQ    BX, DX; \
	MOVQ    R15, CX; \
term8: \
	VMOVUPS (DX), Y8; \
	TERM((AX), Y0); \
	TERM((AX)(R10*4), Y1); \
	TERM((AX)(R10*8), Y2); \
	TERM((AX)(R11*4), Y3); \
	LEAQ    (AX)(R13*4), AX; \
	LEAQ    (DX)(R12*4), DX; \
	DECQ    CX; \
	JNZ     term8; \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, (DI)(R8*4); \
	VMOVUPS Y2, (DI)(R8*8); \
	VMOVUPS Y3, (DI)(R9*4); \
	ADDQ    $32, DI; \
	ADDQ    $32, BX; \
	SUBQ    $8, SI

#define COLS4(TERM) \
block4: \
	CMPQ    SI, $4; \
	JL      block1; \
	VMOVUPS (DI), X0; \
	VMOVUPS (DI)(R8*4), X1; \
	VMOVUPS (DI)(R8*8), X2; \
	VMOVUPS (DI)(R9*4), X3; \
	MOVQ    R14, AX; \
	MOVQ    BX, DX; \
	MOVQ    R15, CX; \
term4: \
	VMOVUPS (DX), X8; \
	TERM((AX), X0); \
	TERM((AX)(R10*4), X1); \
	TERM((AX)(R10*8), X2); \
	TERM((AX)(R11*4), X3); \
	LEAQ    (AX)(R13*4), AX; \
	LEAQ    (DX)(R12*4), DX; \
	DECQ    CX; \
	JNZ     term4; \
	VMOVUPS X0, (DI); \
	VMOVUPS X1, (DI)(R8*4); \
	VMOVUPS X2, (DI)(R8*8); \
	VMOVUPS X3, (DI)(R9*4); \
	ADDQ    $16, DI; \
	ADDQ    $16, BX; \
	SUBQ    $4, SI

#define COLS1(TERM) \
block1: \
	CMPQ   SI, $0; \
	JLE    done; \
	VMOVSS (DI), X0; \
	VMOVSS (DI)(R8*4), X1; \
	VMOVSS (DI)(R8*8), X2; \
	VMOVSS (DI)(R9*4), X3; \
	MOVQ   R14, AX; \
	MOVQ   BX, DX; \
	MOVQ   R15, CX; \
term1: \
	VMOVSS (DX), X8; \
	TERM((AX), X0); \
	TERM((AX)(R10*4), X1); \
	TERM((AX)(R10*8), X2); \
	TERM((AX)(R11*4), X3); \
	LEAQ   (AX)(R13*4), AX; \
	LEAQ   (DX)(R12*4), DX; \
	DECQ   CX; \
	JNZ    term1; \
	VMOVSS X0, (DI); \
	VMOVSS X1, (DI)(R8*4); \
	VMOVSS X2, (DI)(R8*8); \
	VMOVSS X3, (DI)(R9*4); \
	ADDQ   $4, DI; \
	ADDQ   $4, BX; \
	DECQ   SI; \
	JMP    block1

// TILE runs every column block under the term macros T16, T8, T4 and T1,
// then jumps to done. The caller has loaded the arguments: DI out, R8 os,
// R14 a, R10 si, R13 sp, BX b, R12 n, R15 kc.
#define TILE(T16, T8, T4, T1) \
	LEAQ (R8)(R8*2), R9; \
	LEAQ (R10)(R10*2), R11; \
	MOVQ R12, SI; \
	COLS16(T16); \
	COLS8(T8); \
	COLS4(T4); \
	COLS1(T1)

// func tileKernelAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)
// For r in [0,4) and j in [0,n): out[r*os+j] += a[r*si+p*sp] * b[p*n+j]
// over p in [0,kc), ascending, terms with a zero coefficient skipped. n and
// kc must be positive. Strides are in elements (R9 = 3*os, R11 = 3*si);
// os = si = 0 runs one row in all four lanes (each stores the same values).
TEXT ·tileKernelAsm(SB), NOSPLIT, $0-64
	MOVQ     out+0(FP), DI
	MOVQ     os+8(FP), R8
	MOVQ     a+16(FP), R14
	MOVQ     si+24(FP), R10
	MOVQ     sp+32(FP), R13
	MOVQ     b+40(FP), BX
	MOVQ     n+48(FP), R12
	MOVQ     kc+56(FP), R15
	VPCMPEQD Y14, Y14, Y14
	VPSLLD   $31, Y14, Y14
	TILE(SKIP16, SKIP8, SKIP4, SKIP1)

done:
	VZEROUPPER
	RET

// func tileKernelDenseAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)
// tileKernelAsm without the skip: the coefficients it reads must hold no
// zero of either sign, and then its results are tileKernelAsm's bit for bit.
TEXT ·tileKernelDenseAsm(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ os+8(FP), R8
	MOVQ a+16(FP), R14
	MOVQ si+24(FP), R10
	MOVQ sp+32(FP), R13
	MOVQ b+40(FP), BX
	MOVQ n+48(FP), R12
	MOVQ kc+56(FP), R15
	TILE(DENSE16, DENSE8, DENSE4, DENSE1)

done:
	VZEROUPPER
	RET

// func zeroFreeAsm(x *float32, n int) bool
// Reports whether no x[i], i in [0,n), is a zero of either sign — Go's
// x[i] == 0, so NaN and subnormals are not zero. Shifting the sign bit out
// leaves all-zero bits exactly for +0 and -0; VPCMPEQD against zero marks
// those lanes and VPTEST stops at the first block that has one. Blocks of
// 16 and 8, then single elements.
TEXT ·zeroFreeAsm(SB), NOSPLIT, $0-17
	MOVQ  x+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y2, Y2, Y2

scan16:
	CMPQ     CX, $16
	JL       scan8
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VPSLLD   $1, Y0, Y0
	VPSLLD   $1, Y1, Y1
	VPCMPEQD Y2, Y0, Y0
	VPCMPEQD Y2, Y1, Y1
	VPOR     Y1, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      zero
	ADDQ     $64, SI
	SUBQ     $16, CX
	JMP      scan16

scan8:
	CMPQ     CX, $8
	JL       scan1
	VMOVDQU  (SI), Y0
	VPSLLD   $1, Y0, Y0
	VPCMPEQD Y2, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      zero
	ADDQ     $32, SI
	SUBQ     $8, CX

scan1:
	CMPQ CX, $0
	JLE  free
	MOVL (SI), AX
	SHLL $1, AX
	JZ   zero
	ADDQ $4, SI
	DECQ CX
	JMP  scan1

free:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

zero:
	MOVB $0, ret+16(FP)
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
