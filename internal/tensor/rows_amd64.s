//go:build amd64 && !purego

// AVX-512F rows-in-lanes kernels: LayerNorm's forward and backward rows.
// A row's float64 reduction — LayerNorm's mean and variance, its backward
// sums — is one latency chain over ascending j; the kernels put up to
// eight rows' chains in the eight lanes of a zmm register, so every lane
// adds in the scalar loop's order and eight chains run at once. Blocks move between row and column layout by
// 8×8 register transposes (rows_amd64.h): a gather costs several times a
// transpose's share on the hosts measured. The elementwise steps after a
// reduction run across columns (sixteen float32 or eight float64 lanes
// per register, a masked last block), each operation in the scalar loop's
// operand order as Go compiles it, never fused: where two NaNs meet, x86
// keeps the first source's payload, so the order shows in the bits. No VL,
// DQ or BW instruction appears: a masked 8-lane access is a 16-lane zmm
// access under an 8-bit mask.

#include "textflag.h"
#include "rows_amd64.h"

// rowMasks: (1<<i)-1 as uint16 for i = 0..16, the opmask of the first i
// lanes. It is a package symbol: softmaxAsm (vecmath_amd64.s) reads it too.
DATA ·rowMasks+0(SB)/2, $0x0000
DATA ·rowMasks+2(SB)/2, $0x0001
DATA ·rowMasks+4(SB)/2, $0x0003
DATA ·rowMasks+6(SB)/2, $0x0007
DATA ·rowMasks+8(SB)/2, $0x000f
DATA ·rowMasks+10(SB)/2, $0x001f
DATA ·rowMasks+12(SB)/2, $0x003f
DATA ·rowMasks+14(SB)/2, $0x007f
DATA ·rowMasks+16(SB)/2, $0x00ff
DATA ·rowMasks+18(SB)/2, $0x01ff
DATA ·rowMasks+20(SB)/2, $0x03ff
DATA ·rowMasks+22(SB)/2, $0x07ff
DATA ·rowMasks+24(SB)/2, $0x0fff
DATA ·rowMasks+26(SB)/2, $0x1fff
DATA ·rowMasks+28(SB)/2, $0x3fff
DATA ·rowMasks+30(SB)/2, $0x7fff
DATA ·rowMasks+32(SB)/2, $0xffff
GLOBL ·rowMasks(SB), RODATA|NOPTR, $34

DATA rowOne<>+0(SB)/8, $1.0
GLOBL rowOne<>(SB), RODATA|NOPTR, $8

// BLOCKROWS: n = min(8, left), the rows of this block; t scratch.
#define BLOCKROWS(left, n, t) \
	MOVQ    left, n; \
	MOVQ    $8, t; \
	CMPQ    n, t; \
	CMOVQGT t, n

// func layerNormAsm(out, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float64)
// Per block of up to eight rows of d, one row per lane: mean = Σ float64(x)
// / d and varsum = Σ (float64(x) − mean)² in ascending j (each a pass of
// chunk transposes); inv = float32(1 / √(varsum/d + eps)); then per row
// and column h = (x − float32(mean))·inv and out = h·gamma + beta in
// float32 (operand orders: x, h, h·gamma first). xhat and invStd, when
// non-nil, get h and inv. rows > 0. Frame: row offsets, mean and inv
// (float32), the chunk's columns, d rounded down to 16.
TEXT ·layerNormAsm(SB), NOSPLIT, $392-72
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         invStd+16(FP), R9
	MOVQ         x+24(FP), SI
	MOVQ         rows+48(FP), BX
	MOVQ         d+56(FP), R12
	VBROADCASTSD eps+64(FP), Z19
	VCVTSI2SDQ   R12, X0, X0
	VBROADCASTSD X0, Z20
	LEAQ         ·rowMasks(SB), CX
	MOVQ         R12, AX
	ANDQ         $15, AX
	MOVWLZX      (CX)(AX*2), AX
	KMOVW        AX, K3
	MOVQ         R12, AX
	ANDQ         $-16, AX
	MOVQ         AX, 384(SP)
	MOVQ         R12, R14
	SHLQ         $2, R14

lnBlock:
	BLOCKROWS(BX, AX, R15)
	LEAQ   -1(AX), R15
	ROWOFFS(R15, R14, R13)
	VPXORQ Z16, Z16, Z16
	XORQ   R13, R13

lnMeanChunk:
	CHUNK(R12, R13, R10, R15, CX, DX)
	LEAQ (SI)(R13*4), R11
	LOADROWS(R11, R15)
	TRANSPOSE8
	STORECOLS(128)
	LEAQ 128(SP), R11

lnMeanCol:
	VCVTPS2PD (R11), Z0
	VADDPD    Z0, Z16, Z16
	ADDQ      $32, R11
	DECQ      R10
	JNZ       lnMeanCol
	ADDQ      $8, R13
	CMPQ      R13, R12
	JL        lnMeanChunk
	VDIVPD    Z20, Z16, Z16
	VPXORQ    Z17, Z17, Z17
	XORQ      R13, R13

lnVarChunk:
	CHUNK(R12, R13, R10, R15, CX, DX)
	LEAQ (SI)(R13*4), R11
	LOADROWS(R11, R15)
	TRANSPOSE8
	STORECOLS(128)
	LEAQ 128(SP), R11

lnVarCol:
	VCVTPS2PD    (R11), Z0
	VSUBPD       Z16, Z0, Z0
	VMULPD       Z0, Z0, Z0
	VADDPD       Z0, Z17, Z17
	ADDQ         $32, R11
	DECQ         R10
	JNZ          lnVarCol
	ADDQ         $8, R13
	CMPQ         R13, R12
	JL           lnVarChunk
	VDIVPD       Z20, Z17, Z17
	VADDPD       Z19, Z17, Z17
	VSQRTPD      Z17, Z17
	VBROADCASTSD rowOne<>(SB), Z0
	VDIVPD       Z17, Z0, Z0
	VCVTPD2PS    Z0, Y0
	VCVTPD2PS    Z16, Y1
	VMOVUPS      Y1, 64(SP)
	VMOVUPS      Y0, 96(SP)
	TESTQ        R9, R9
	JZ           lnRows
	MOVWLZX      (CX)(AX*2), DX
	KMOVW        DX, K2
	VMOVUPS      Z0, K2, (R9)
	LEAQ         (R9)(AX*4), R9

lnRows:
	MOVQ gamma+32(FP), R10
	MOVQ beta+40(FP), R11
	XORQ R15, R15

lnRow:
	VBROADCASTSS 64(SP)(R15*4), Z6
	VBROADCASTSS 96(SP)(R15*4), Z7
	XORQ         R13, R13

lnCol:
	CMPQ    R13, 384(SP)
	JGE     lnTail
	VMOVUPS (SI)(R13*4), Z8
	VSUBPS  Z6, Z8, Z8
	VMULPS  Z7, Z8, Z8
	TESTQ   R8, R8
	JZ      lnAffine
	VMOVUPS Z8, (R8)(R13*4)

lnAffine:
	VMULPS  (R10)(R13*4), Z8, Z8
	VADDPS  (R11)(R13*4), Z8, Z8
	VMOVUPS Z8, (DI)(R13*4)
	ADDQ    $16, R13
	JMP     lnCol

lnTail:
	CMPQ      R13, R12
	JGE       lnNext
	VMOVUPS.Z (SI)(R13*4), K3, Z8
	VSUBPS    Z6, Z8, Z8
	VMULPS    Z7, Z8, Z8
	TESTQ     R8, R8
	JZ        lnAffineTail
	VMOVUPS   Z8, K3, (R8)(R13*4)

lnAffineTail:
	VMOVUPS.Z (R10)(R13*4), K3, Z9
	VMOVUPS.Z (R11)(R13*4), K3, Z10
	VMULPS    Z9, Z8, Z8
	VADDPS    Z10, Z8, Z8
	VMOVUPS   Z8, K3, (DI)(R13*4)

lnNext:
	ADDQ  R14, SI
	ADDQ  R14, DI
	TESTQ R8, R8
	JZ    lnRowDone
	ADDQ  R14, R8

lnRowDone:
	INCQ R15
	CMPQ R15, AX
	JL   lnRow
	SUBQ AX, BX
	JNZ  lnBlock
	VZEROUPPER
	RET

// func layerNormGradAsm(dx, grad, xhat, invStd, gamma *float32, rows, d int)
// Per block of up to eight rows of d, one row per lane over ascending j:
// dh = float64(gamma)·float64(grad), sumDh += dh, sumDhH +=
// dh·float64(xhat); meanDh = sumDh/d. Then per row and column, in
// float64: dx = float32((dh − meanDh − xhat·sumDhH/d)·float64(invStd))
// (operand orders: gamma, sums, dh, xhat and the difference first).
// rows > 0. Frame: row offsets, meanDh, sumDhH and inv (float64), the
// chunk's grad and xhat columns, d rounded down to 8 — more than a nosplit
// frame may take, so the function has a stack check.
TEXT ·layerNormGradAsm(SB), $776-56
	MOVQ         dx+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         invStd+24(FP), R9
	MOVQ         gamma+32(FP), R10
	MOVQ         rows+40(FP), BX
	MOVQ         d+48(FP), R12
	VCVTSI2SDQ   R12, X0, X0
	VBROADCASTSD X0, Z20
	LEAQ         ·rowMasks(SB), CX
	MOVQ         R12, AX
	ANDQ         $7, AX
	MOVWLZX      (CX)(AX*2), AX
	KMOVW        AX, K3
	MOVQ         R12, AX
	ANDQ         $-8, AX
	MOVQ         AX, 768(SP)
	MOVQ         R12, R14
	SHLQ         $2, R14

lgBlock:
	BLOCKROWS(BX, AX, R15)
	LEAQ   -1(AX), R15
	ROWOFFS(R15, R14, R13)
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	XORQ   R13, R13

lgChunk:
	CHUNK(R12, R13, R11, R15, CX, DX)
	LEAQ (SI)(R13*4), DX
	LOADROWS(DX, R15)
	TRANSPOSE8
	STORECOLS(256)
	LEAQ (R8)(R13*4), DX
	LOADROWS(DX, R15)
	TRANSPOSE8
	STORECOLS(512)
	LEAQ (R10)(R13*4), DX
	LEAQ 256(SP), R15

lgCol:
	VBROADCASTSS (DX), Z0
	VCVTPS2PD    Y0, Z0
	VCVTPS2PD    (R15), Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z0, Z16, Z16
	VCVTPS2PD    256(R15), Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z0, Z17, Z17
	ADDQ         $4, DX
	ADDQ         $32, R15
	DECQ         R11
	JNZ          lgCol
	ADDQ         $8, R13
	CMPQ         R13, R12
	JL           lgChunk
	VDIVPD       Z20, Z16, Z16
	VMOVUPD      Z16, 64(SP)
	VMOVUPD      Z17, 128(SP)
	MOVWLZX      (CX)(AX*2), DX
	KMOVW        DX, K2
	VMOVUPS.Z    (R9), K2, Z0
	VCVTPS2PD    Y0, Z0
	VMOVUPD      Z0, 192(SP)
	LEAQ         (R9)(AX*4), R9
	XORQ         R15, R15

lgRow:
	VBROADCASTSD 64(SP)(R15*8), Z6
	VBROADCASTSD 128(SP)(R15*8), Z7
	VBROADCASTSD 192(SP)(R15*8), Z8
	XORQ         R13, R13

lgCol8:
	CMPQ      R13, 768(SP)
	JGE       lgTail
	VCVTPS2PD (SI)(R13*4), Z9
	VCVTPS2PD (R10)(R13*4), Z10
	VCVTPS2PD (R8)(R13*4), Z11
	VMULPD    Z9, Z10, Z10
	VSUBPD    Z6, Z10, Z10
	VMULPD    Z7, Z11, Z11
	VDIVPD    Z20, Z11, Z11
	VSUBPD    Z11, Z10, Z10
	VMULPD    Z8, Z10, Z10
	VCVTPD2PS Z10, Y10
	VMOVUPS   Y10, (DI)(R13*4)
	ADDQ      $8, R13
	JMP       lgCol8

lgTail:
	CMPQ      R13, R12
	JGE       lgNext
	VMOVUPS.Z (SI)(R13*4), K3, Z9
	VMOVUPS.Z (R10)(R13*4), K3, Z10
	VMOVUPS.Z (R8)(R13*4), K3, Z11
	VCVTPS2PD Y9, Z9
	VCVTPS2PD Y10, Z10
	VCVTPS2PD Y11, Z11
	VMULPD    Z9, Z10, Z10
	VSUBPD    Z6, Z10, Z10
	VMULPD    Z7, Z11, Z11
	VDIVPD    Z20, Z11, Z11
	VSUBPD    Z11, Z10, Z10
	VMULPD    Z8, Z10, Z10
	VCVTPD2PS Z10, Y10
	VMOVUPS   Z10, K3, (DI)(R13*4)

lgNext:
	ADDQ R14, SI
	ADDQ R14, DI
	ADDQ R14, R8
	INCQ R15
	CMPQ R15, AX
	JL   lgRow
	SUBQ AX, BX
	JNZ  lgBlock
	VZEROUPPER
	RET

// func layerNormParamGradAsm(dgamma, dbeta, grad, xhat *float32, rows, d int)
// dgamma[j] = g·xhat + dgamma[j] and dbeta[j] = dbeta[j] + g over the rows
// in ascending order, the operand orders of the scalar loop
// (dgamma[j] += g[j]*xhat[j]; dbeta[j] += g[j]): lanes across sixteen
// columns, the sums in registers down all the rows, a masked last block.
TEXT ·layerNormParamGradAsm(SB), NOSPLIT, $0-48
	MOVQ dgamma+0(FP), DI
	MOVQ dbeta+8(FP), R9
	MOVQ grad+16(FP), SI
	MOVQ xhat+24(FP), R8
	MOVQ rows+32(FP), BX
	MOVQ d+40(FP), R12
	LEAQ ·rowMasks(SB), CX
	MOVQ R12, R14
	SHLQ $2, R14
	XORQ AX, AX

lpBlock:
	MOVQ      R12, DX
	SUBQ      AX, DX
	JLE       lpDone
	CMPQ      DX, $16
	JLE       lpMask
	MOVQ      $16, DX

lpMask:
	MOVWLZX   (CX)(DX*2), DX
	KMOVW     DX, K1
	VMOVUPS.Z (DI)(AX*4), K1, Z0
	VMOVUPS.Z (R9)(AX*4), K1, Z1
	LEAQ      (SI)(AX*4), R10
	LEAQ      (R8)(AX*4), R11
	MOVQ      BX, R13
	TESTQ     R13, R13
	JZ        lpStore

lpRow:
	VMOVUPS.Z (R10), K1, Z2
	VMOVUPS.Z (R11), K1, Z3
	VMULPS    Z3, Z2, Z3
	VADDPS    Z0, Z3, Z0
	VADDPS    Z2, Z1, Z1
	ADDQ      R14, R10
	ADDQ      R14, R11
	DECQ      R13
	JNZ       lpRow

lpStore:
	VMOVUPS Z0, K1, (DI)(AX*4)
	VMOVUPS Z1, K1, (R9)(AX*4)
	ADDQ    $16, AX
	JMP     lpBlock

lpDone:
	VZEROUPPER
	RET
