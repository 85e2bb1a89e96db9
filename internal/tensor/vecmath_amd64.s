// AVX2+FMA row kernels for the transcendental activations and softmax's
// exp, an AVX-512F twin of the GELU row, and the AVX-512F softmax slab
// kernel (one row per lane). Each float64 lane, ymm or zmm, repeats the
// scalar definition operation for operation, so every lane rounds exactly
// as the scalar call does:
//
//   EXP4    math.archExp's FMA path (exp_amd64.s, Shibata's algorithm),
//           instruction for instruction on ymm lanes, for arguments whose
//           result is a normal number (callers keep them in [-700, 100]).
//   TANH4   math.tanh (tanh.go): both of its branches for every lane — the
//           Cephes rational and 1 - 2/(exp(2|u|)+1) — blended on |u|. The
//           Go compiler does not fuse on GOAMD64=v1, so this part is VMULPD
//           and VADDPD only, in the source's association order.
//   gelu    geluYD's expression tree around TANH4, unfused as well.
//   EXP8, TANH8*, GELU*8
//           the same on eight zmm lanes, for the GELU row (no zmm tanh
//           row: no workload trains a tanh layer); EXP8 also for the
//           softmax slab kernel, where a lane is a row.
//
// FMA appears exactly where exp_amd64.s uses it and nowhere else. The Go
// wrappers (vecmath_amd64.go) run these only after a package-init self-check
// has found them bit-identical to the scalar bodies on this CPU: the ymm
// kernels under one verdict, the zmm GELU kernels and the slab kernel's
// exp lanes under a second one that also needs the first.

#include "textflag.h"
#include "rows_amd64.h"

#define D4(off, v) \
	DATA vm<>+(off+0)(SB)/8, v; \
	DATA vm<>+(off+8)(SB)/8, v; \
	DATA vm<>+(off+16)(SB)/8, v; \
	DATA vm<>+(off+24)(SB)/8, v

// exp_amd64.s's constants, spelled as there.
D4(0, $1.4426950408889634073599246810018920)                   // LOG2E
D4(32, $0.69314718055966295651160180568695068359375)           // LN2U
D4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
D4(96, $0.0625)
D4(128, $2.4801587301587301587e-5)
D4(160, $1.9841269841269841270e-4)
D4(192, $1.3888888888888888889e-3)
D4(224, $8.3333333333333333333e-3)
D4(256, $4.1666666666666666667e-2)
D4(288, $1.6666666666666666667e-1)
D4(320, $0.5)
D4(352, $1.0)
D4(384, $2.0)
D4(416, $0x3FF) // exponent bias, int64 lanes
// tanh.go's P, Q and thresholds (0.5*MAXLOG written out).
D4(448, $-9.64399179425052238628e-1)
D4(480, $-9.92877231001918586564e1)
D4(512, $-1.61468768441708447952e3)
D4(544, $1.12811678491632931402e2)
D4(576, $2.23548839060100448583e3)
D4(608, $4.84406305325125486048e3)
D4(640, $0.625)
D4(672, $4.40148459655565271479940e+01)
D4(704, $100.0) // clamp on 2|u| for lanes the saturation blend replaces
D4(736, $0x7FFFFFFFFFFFFFFF)
D4(768, $0x8000000000000000)
// geluYD's constants (0.134145 is the folded 3*0.044715).
D4(800, $0.7978845608028654)
D4(832, $0.044715)
D4(864, $0.134145)
// expSubAsm's block limits.
D4(896, $-700.0)
GLOBL vm<>(SB), RODATA|NOPTR, $928

#define cLOG2E   vm<>+0(SB)
#define cLN2U    vm<>+32(SB)
#define cLN2L    vm<>+64(SB)
#define c0625    vm<>+96(SB)
#define cE8      vm<>+128(SB)
#define cE7      vm<>+160(SB)
#define cE6      vm<>+192(SB)
#define cE5      vm<>+224(SB)
#define cE4      vm<>+256(SB)
#define cE3      vm<>+288(SB)
#define cHalf    vm<>+320(SB)
#define cOne     vm<>+352(SB)
#define cTwo     vm<>+384(SB)
#define cBias    vm<>+416(SB)
#define cP0      vm<>+448(SB)
#define cP1      vm<>+480(SB)
#define cP2      vm<>+512(SB)
#define cQ0      vm<>+544(SB)
#define cQ1      vm<>+576(SB)
#define cQ2      vm<>+608(SB)
#define cMid     vm<>+640(SB)
#define cSat     vm<>+672(SB)
#define c100     vm<>+704(SB)
#define cAbs     vm<>+736(SB)
#define cSign    vm<>+768(SB)
#define cGelu    vm<>+800(SB)
#define cG044    vm<>+832(SB)
#define cG134    vm<>+864(SB)
#define cExpLo   vm<>+896(SB)

// EXP4: a = exp(a) in four float64 lanes. p, kx (the X half) and ky are
// scratch. archExp's steps in order: k = int32(a*LOG2E), rounded as MXCSR
// says; a -= k*LN2U; a -= k*LN2L (both fused); a *= 1/16; Horner over the
// Taylor coefficients (fused); a *= p; three times a *= a+2, then
// a = a*(a+2)+1 (fused): (1+r)^16 - 1 built by squaring; scale by 2^k.
#define EXP4(a, p, kx, ky) \
	VMULPD       cLOG2E, a, p; \
	VCVTPD2DQY   p, kx; \
	VCVTDQ2PD    kx, p; \
	VFNMADD231PD cLN2U, p, a; \
	VFNMADD231PD cLN2L, p, a; \
	VMULPD       c0625, a, a; \
	VMOVUPD      cE8, p; \
	VFMADD213PD  cE7, a, p; \
	VFMADD213PD  cE6, a, p; \
	VFMADD213PD  cE5, a, p; \
	VFMADD213PD  cE4, a, p; \
	VFMADD213PD  cE3, a, p; \
	VFMADD213PD  cHalf, a, p; \
	VFMADD213PD  cOne, a, p; \
	VMULPD       p, a, a; \
	VADDPD       cTwo, a, p; \
	VMULPD       p, a, a; \
	VADDPD       cTwo, a, p; \
	VMULPD       p, a, a; \
	VADDPD       cTwo, a, p; \
	VMULPD       p, a, a; \
	VADDPD       cTwo, a, p; \
	VFMADD213PD  cOne, p, a; \
	VPMOVSXDQ    kx, ky; \
	VPADDQ       cBias, ky, ky; \
	VPSLLQ       $52, ky, ky; \
	VMULPD       ky, a, a

// TANH4: Y2 = tanh(Y1). Y0 and Y1 survive; Y3-Y9 are scratch. The rational
// is u + ((u*s)*num)/den with s = u*u. Blend order follows tanh.go's switch:
// the rational, replaced where |u| >= 0.625 by the exp form carrying u's
// sign, replaced where |u| > 0.5*MAXLOG by +-1, replaced where u == 0 by u
// itself (-0 stays -0). A NaN lane fails every ordered compare and keeps the
// rational's NaN.
#define TANH4 \
	VANDPD    cAbs, Y1, Y2; \
	VMULPD    Y1, Y1, Y6; \
	VMULPD    cP0, Y6, Y7; \
	VADDPD    cP1, Y7, Y7; \
	VMULPD    Y6, Y7, Y7; \
	VADDPD    cP2, Y7, Y7; \
	VADDPD    cQ0, Y6, Y8; \
	VMULPD    Y6, Y8, Y8; \
	VADDPD    cQ1, Y8, Y8; \
	VMULPD    Y6, Y8, Y8; \
	VADDPD    cQ2, Y8, Y8; \
	VMULPD    Y6, Y1, Y9; \
	VMULPD    Y7, Y9, Y9; \
	VDIVPD    Y8, Y9, Y9; \
	VADDPD    Y9, Y1, Y9; \
	VADDPD    Y2, Y2, Y3; \
	VMINPD    c100, Y3, Y3; \
	EXP4(Y3, Y4, X5, Y5); \
	VADDPD    cOne, Y3, Y3; \
	VMOVUPD   cTwo, Y4; \
	VDIVPD    Y3, Y4, Y3; \
	VMOVUPD   cOne, Y4; \
	VSUBPD    Y3, Y4, Y3; \
	VANDPD    cSign, Y1, Y4; \
	VORPD     Y4, Y3, Y3; \
	VORPD     cOne, Y4, Y4; \
	VCMPPD    $0x1D, cMid, Y2, Y5; \
	VBLENDVPD Y5, Y3, Y9, Y9; \
	VCMPPD    $0x1E, cSat, Y2, Y5; \
	VBLENDVPD Y5, Y4, Y9, Y9; \
	VXORPD    Y5, Y5, Y5; \
	VCMPPD    $0, Y5, Y1, Y5; \
	VBLENDVPD Y5, Y1, Y9, Y2

// GELUY: Y0 = x in, Y3 = y = (0.5*x)*(1+th) out, with u = geluC*(x +
// ((0.044715*x)*x)*x) through TANH4; leaves th in Y2, 0.5*x in Y10 and 1+th
// in Y11 for GELUD: Y5 = d = 0.5*(1+th) + ((0.5*x)*(1-th*th))*du with
// du = geluC*(1 + (0.134145*x)*x).
#define GELUY \
	VMULPD cG044, Y0, Y1; \
	VMULPD Y0, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD Y1, Y0, Y1; \
	VMULPD cGelu, Y1, Y1; \
	TANH4; \
	VMULPD cHalf, Y0, Y10; \
	VADDPD cOne, Y2, Y11; \
	VMULPD Y11, Y10, Y3

#define GELUD \
	VMULPD  cG134, Y0, Y4; \
	VMULPD  Y0, Y4, Y4; \
	VADDPD  cOne, Y4, Y4; \
	VMULPD  cGelu, Y4, Y4; \
	VMULPD  cHalf, Y11, Y11; \
	VMULPD  Y2, Y2, Y5; \
	VMOVUPD cOne, Y6; \
	VSUBPD  Y5, Y6, Y5; \
	VMULPD  Y5, Y10, Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  Y5, Y11, Y5

// TANHD: Y5 = 1 - th*th from th in Y2.
#define TANHD \
	VMULPD  Y2, Y2, Y5; \
	VMOVUPD cOne, Y6; \
	VSUBPD  Y5, Y6, Y5

// The zmm macros are EXP4, TANH4, GELUY and GELUD on eight float64 lanes:
// the same instructions in the same operand order, with AVX-512F forms
// where AVX2 has none — constants read by embedded broadcast (.BCST) from
// the same table, VPANDQ/VPORQ/VPXORQ for the bit operations (VANDPD and
// VORPD on zmm need DQ), VCMPPD into an opmask and VBLENDMPD for each
// VBLENDVPD. VCVTPD2DQ rounds by MXCSR as VCVTPD2DQY does. No VL, DQ or BW
// instruction appears. TANH8 and GELUY8 come in phases over explicit
// registers, so the GELU kernels run two 8-blocks per iteration with the
// phases of the two interleaved (GELUY8X2, GELUD8X2): one block's chains
// alone leave the FP units idle. A block takes seven zmm registers and an
// opmask, so both fit in Z0-Z15, which VZEROUPPER clears.

// EXP8: a = exp(a) in eight float64 lanes; p, kz scratch zmm, ky the ymm
// half of kz.
#define EXP8(a, p, ky, kz) \
	VMULPD.BCST       cLOG2E, a, p; \
	VCVTPD2DQ         p, ky; \
	VCVTDQ2PD         ky, p; \
	VFNMADD231PD.BCST cLN2U, p, a; \
	VFNMADD231PD.BCST cLN2L, p, a; \
	VMULPD.BCST       c0625, a, a; \
	VBROADCASTSD      cE8, p; \
	VFMADD213PD.BCST  cE7, a, p; \
	VFMADD213PD.BCST  cE6, a, p; \
	VFMADD213PD.BCST  cE5, a, p; \
	VFMADD213PD.BCST  cE4, a, p; \
	VFMADD213PD.BCST  cE3, a, p; \
	VFMADD213PD.BCST  cHalf, a, p; \
	VFMADD213PD.BCST  cOne, a, p; \
	VMULPD            p, a, a; \
	VADDPD.BCST       cTwo, a, p; \
	VMULPD            p, a, a; \
	VADDPD.BCST       cTwo, a, p; \
	VMULPD            p, a, a; \
	VADDPD.BCST       cTwo, a, p; \
	VMULPD            p, a, a; \
	VADDPD.BCST       cTwo, a, p; \
	VFMADD213PD.BCST  cOne, p, a; \
	VPMOVSXDQ         ky, kz; \
	VPADDQ.BCST       cBias, kz, kz; \
	VPSLLQ            $52, kz, kz; \
	VMULPD            kz, a, a

// EXP8X4: EXP8 of four independent blocks, step by step interleaved: one
// block's dependent chain alone leaves the FP units idle.
#define EXP8X4(a, p, ky, kz, a2, p2, ky2, kz2, a3, p3, ky3, kz3, a4, p4, ky4, kz4) \
	VMULPD.BCST       cLOG2E, a, p; \
	VMULPD.BCST       cLOG2E, a2, p2; \
	VMULPD.BCST       cLOG2E, a3, p3; \
	VMULPD.BCST       cLOG2E, a4, p4; \
	VCVTPD2DQ         p, ky; \
	VCVTPD2DQ         p2, ky2; \
	VCVTPD2DQ         p3, ky3; \
	VCVTPD2DQ         p4, ky4; \
	VCVTDQ2PD         ky, p; \
	VCVTDQ2PD         ky2, p2; \
	VCVTDQ2PD         ky3, p3; \
	VCVTDQ2PD         ky4, p4; \
	VFNMADD231PD.BCST cLN2U, p, a; \
	VFNMADD231PD.BCST cLN2U, p2, a2; \
	VFNMADD231PD.BCST cLN2U, p3, a3; \
	VFNMADD231PD.BCST cLN2U, p4, a4; \
	VFNMADD231PD.BCST cLN2L, p, a; \
	VFNMADD231PD.BCST cLN2L, p2, a2; \
	VFNMADD231PD.BCST cLN2L, p3, a3; \
	VFNMADD231PD.BCST cLN2L, p4, a4; \
	VMULPD.BCST       c0625, a, a; \
	VMULPD.BCST       c0625, a2, a2; \
	VMULPD.BCST       c0625, a3, a3; \
	VMULPD.BCST       c0625, a4, a4; \
	VBROADCASTSD      cE8, p; \
	VBROADCASTSD      cE8, p2; \
	VBROADCASTSD      cE8, p3; \
	VBROADCASTSD      cE8, p4; \
	VFMADD213PD.BCST  cE7, a, p; \
	VFMADD213PD.BCST  cE7, a2, p2; \
	VFMADD213PD.BCST  cE7, a3, p3; \
	VFMADD213PD.BCST  cE7, a4, p4; \
	VFMADD213PD.BCST  cE6, a, p; \
	VFMADD213PD.BCST  cE6, a2, p2; \
	VFMADD213PD.BCST  cE6, a3, p3; \
	VFMADD213PD.BCST  cE6, a4, p4; \
	VFMADD213PD.BCST  cE5, a, p; \
	VFMADD213PD.BCST  cE5, a2, p2; \
	VFMADD213PD.BCST  cE5, a3, p3; \
	VFMADD213PD.BCST  cE5, a4, p4; \
	VFMADD213PD.BCST  cE4, a, p; \
	VFMADD213PD.BCST  cE4, a2, p2; \
	VFMADD213PD.BCST  cE4, a3, p3; \
	VFMADD213PD.BCST  cE4, a4, p4; \
	VFMADD213PD.BCST  cE3, a, p; \
	VFMADD213PD.BCST  cE3, a2, p2; \
	VFMADD213PD.BCST  cE3, a3, p3; \
	VFMADD213PD.BCST  cE3, a4, p4; \
	VFMADD213PD.BCST  cHalf, a, p; \
	VFMADD213PD.BCST  cHalf, a2, p2; \
	VFMADD213PD.BCST  cHalf, a3, p3; \
	VFMADD213PD.BCST  cHalf, a4, p4; \
	VFMADD213PD.BCST  cOne, a, p; \
	VFMADD213PD.BCST  cOne, a2, p2; \
	VFMADD213PD.BCST  cOne, a3, p3; \
	VFMADD213PD.BCST  cOne, a4, p4; \
	VMULPD            p, a, a; \
	VMULPD            p2, a2, a2; \
	VMULPD            p3, a3, a3; \
	VMULPD            p4, a4, a4; \
	VADDPD.BCST       cTwo, a, p; \
	VADDPD.BCST       cTwo, a2, p2; \
	VADDPD.BCST       cTwo, a3, p3; \
	VADDPD.BCST       cTwo, a4, p4; \
	VMULPD            p, a, a; \
	VMULPD            p2, a2, a2; \
	VMULPD            p3, a3, a3; \
	VMULPD            p4, a4, a4; \
	VADDPD.BCST       cTwo, a, p; \
	VADDPD.BCST       cTwo, a2, p2; \
	VADDPD.BCST       cTwo, a3, p3; \
	VADDPD.BCST       cTwo, a4, p4; \
	VMULPD            p, a, a; \
	VMULPD            p2, a2, a2; \
	VMULPD            p3, a3, a3; \
	VMULPD            p4, a4, a4; \
	VADDPD.BCST       cTwo, a, p; \
	VADDPD.BCST       cTwo, a2, p2; \
	VADDPD.BCST       cTwo, a3, p3; \
	VADDPD.BCST       cTwo, a4, p4; \
	VMULPD            p, a, a; \
	VMULPD            p2, a2, a2; \
	VMULPD            p3, a3, a3; \
	VMULPD            p4, a4, a4; \
	VADDPD.BCST       cTwo, a, p; \
	VADDPD.BCST       cTwo, a2, p2; \
	VADDPD.BCST       cTwo, a3, p3; \
	VADDPD.BCST       cTwo, a4, p4; \
	VFMADD213PD.BCST  cOne, p, a; \
	VFMADD213PD.BCST  cOne, p2, a2; \
	VFMADD213PD.BCST  cOne, p3, a3; \
	VFMADD213PD.BCST  cOne, p4, a4; \
	VPMOVSXDQ         ky, kz; \
	VPMOVSXDQ         ky2, kz2; \
	VPMOVSXDQ         ky3, kz3; \
	VPMOVSXDQ         ky4, kz4; \
	VPADDQ.BCST       cBias, kz, kz; \
	VPADDQ.BCST       cBias, kz2, kz2; \
	VPADDQ.BCST       cBias, kz3, kz3; \
	VPADDQ.BCST       cBias, kz4, kz4; \
	VPSLLQ            $52, kz, kz; \
	VPSLLQ            $52, kz2, kz2; \
	VPSLLQ            $52, kz3, kz3; \
	VPSLLQ            $52, kz4, kz4; \
	VMULPD            kz, a, a; \
	VMULPD            kz2, a2, a2; \
	VMULPD            kz3, a3, a3; \
	VMULPD            kz4, a4, a4

// GELUU8: u = geluC*(x + ((0.044715*x)*x)*x).
#define GELUU8(x, u) \
	VMULPD.BCST cG044, x, u; \
	VMULPD      x, u, u; \
	VMULPD      x, u, u; \
	VADDPD      u, x, u; \
	VMULPD.BCST cGelu, u, u

// TANH8 in three phases, tanh(u) into a:
// TANH8R: a = |u| and the rational r = u + ((u*s)*num)/den, s = u*u (num
// and den scratch);
// TANH8E: e = 1 - 2/(exp(min(2|u|, 100))+1) from a (p, kz scratch, ky the
// ymm half of kz);
// TANH8B: e takes u's sign, p = ±1, and the blends in TANH4's order leave
// tanh(u) in a (k the opmask). u survives all three.
#define TANH8R(u, a, r, s, num, den) \
	VPANDQ.BCST cAbs, u, a; \
	VMULPD      u, u, s; \
	VMULPD.BCST cP0, s, num; \
	VADDPD.BCST cP1, num, num; \
	VMULPD      s, num, num; \
	VADDPD.BCST cP2, num, num; \
	VADDPD.BCST cQ0, s, den; \
	VMULPD      s, den, den; \
	VADDPD.BCST cQ1, den, den; \
	VMULPD      s, den, den; \
	VADDPD.BCST cQ2, den, den; \
	VMULPD      s, u, r; \
	VMULPD      num, r, r; \
	VDIVPD      den, r, r; \
	VADDPD      r, u, r

#define TANH8E(a, e, p, ky, kz) \
	VADDPD       a, a, e; \
	VMINPD.BCST  c100, e, e; \
	EXP8(e, p, ky, kz); \
	VADDPD.BCST  cOne, e, e; \
	VBROADCASTSD cTwo, p; \
	VDIVPD       e, p, e; \
	VBROADCASTSD cOne, p; \
	VSUBPD       e, p, e

#define TANH8B(u, a, r, e, p, kz, k) \
	VPANDQ.BCST cSign, u, p; \
	VPORQ       p, e, e; \
	VPORQ.BCST  cOne, p, p; \
	VCMPPD.BCST $0x1D, cMid, a, k; \
	VBLENDMPD   e, r, k, r; \
	VCMPPD.BCST $0x1E, cSat, a, k; \
	VBLENDMPD   p, r, k, r; \
	VPXORQ      kz, kz, kz; \
	VCMPPD      $0, kz, u, k; \
	VBLENDMPD   u, r, k, a

// GELUY8: y = (0.5*x)*(1+th), leaving hx = 0.5*x and opth = 1+th for
// GELUD8: d = 0.5*(1+th) + ((0.5*x)*(1-th*th))*du, du = geluC*(1 +
// (0.134145*x)*x) (one scratch).
#define GELUY8(x, th, hx, opth, y) \
	VMULPD.BCST cHalf, x, hx; \
	VADDPD.BCST cOne, th, opth; \
	VMULPD      opth, hx, y

#define GELUD8(x, th, hx, opth, du, d, one) \
	VMULPD.BCST  cG134, x, du; \
	VMULPD       x, du, du; \
	VADDPD.BCST  cOne, du, du; \
	VMULPD.BCST  cGelu, du, du; \
	VMULPD.BCST  cHalf, opth, opth; \
	VMULPD       th, th, d; \
	VBROADCASTSD cOne, one; \
	VSUBPD       d, one, d; \
	VMULPD       d, hx, d; \
	VMULPD       du, d, d; \
	VADDPD       d, opth, d

// GELUY8X2: two blocks, x in Z0 and Z8, y out in Z4 and Z12. Per block
// (A: Z0-Z6, K1; B: Z8-Z14, K2): x, u (then hx), th, r (then opth) and
// three scratch registers (then y, du, d).
#define GELUY8X2 \
	GELUU8(Z0, Z1); \
	GELUU8(Z8, Z9); \
	TANH8R(Z1, Z2, Z3, Z4, Z5, Z6); \
	TANH8R(Z9, Z10, Z11, Z12, Z13, Z14); \
	TANH8E(Z2, Z4, Z5, Y6, Z6); \
	TANH8E(Z10, Z12, Z13, Y14, Z14); \
	TANH8B(Z1, Z2, Z3, Z4, Z5, Z6, K1); \
	TANH8B(Z9, Z10, Z11, Z12, Z13, Z14, K2); \
	GELUY8(Z0, Z2, Z1, Z3, Z4); \
	GELUY8(Z8, Z10, Z9, Z11, Z12)

// GELUD8X2: GELUD8 of both blocks after GELUY8X2, d out in Z5 and Z13.
#define GELUD8X2 \
	GELUD8(Z0, Z2, Z1, Z3, Z4, Z5, Z6); \
	GELUD8(Z8, Z10, Z9, Z11, Z12, Z13, Z14)

// The two activation rows share this frame: n is a positive multiple of 4;
// per 4-block, z = src (+ bias, added in float32) is loaded before anything
// is stored, so out and keep may alias src; out gets float32(y); keep, when
// non-nil, gets float32(act'(z)), stored after out.
#define ROWARGS \
	MOVQ    out+0(FP), DI; \
	MOVQ    keep+8(FP), R8; \
	MOVQ    src+16(FP), SI; \
	MOVQ    bias+24(FP), R9; \
	MOVQ    n+32(FP), CX; \
	XORQ    AX, AX

// func geluRowAsm(out, keep, src, bias *float32, n int)
TEXT ·geluRowAsm(SB), NOSPLIT, $0-40
	ROWARGS

gloop:
	VMOVUPS    (SI)(AX*4), X15
	TESTQ      R9, R9
	JZ         gwiden
	VADDPS     (R9)(AX*4), X15, X15

gwiden:
	VCVTPS2PD  X15, Y0
	GELUY
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (DI)(AX*4)
	TESTQ      R8, R8
	JZ         gnext
	GELUD
	VCVTPD2PSY Y5, X15
	VMOVUPS    X15, (R8)(AX*4)

gnext:
	ADDQ       $4, AX
	CMPQ       AX, CX
	JL         gloop
	VZEROUPPER
	RET

// func tanhRowAsm(out, keep, src, bias *float32, n int)
TEXT ·tanhRowAsm(SB), NOSPLIT, $0-40
	ROWARGS

tloop:
	VMOVUPS    (SI)(AX*4), X15
	TESTQ      R9, R9
	JZ         twiden
	VADDPS     (R9)(AX*4), X15, X15

twiden:
	VCVTPS2PD  X15, Y1
	TANH4
	VCVTPD2PSY Y2, X3
	VMOVUPS    X3, (DI)(AX*4)
	TESTQ      R8, R8
	JZ         tnext
	TANHD
	VCVTPD2PSY Y5, X15
	VMOVUPS    X15, (R8)(AX*4)

tnext:
	ADDQ       $4, AX
	CMPQ       AX, CX
	JL         tloop
	VZEROUPPER
	RET

// The same lanes with float64 in and out: what the init self-check and the
// identity tests compare. A last-bit difference in a float64 y or d survives
// the narrowing to float32 about once in 2^29 values, so the float32 rows
// alone would pass a fused multiply-add that does not belong.

// func geluF64Asm(y, d, x *float64, n int)
TEXT ·geluF64Asm(SB), NOSPLIT, $0-32
	MOVQ    y+0(FP), DI
	MOVQ    d+8(FP), R8
	MOVQ    x+16(FP), SI
	MOVQ    n+24(FP), CX
	XORQ    AX, AX

gfloop:
	VMOVUPD (SI)(AX*8), Y0
	GELUY
	VMOVUPD Y3, (DI)(AX*8)
	GELUD
	VMOVUPD Y5, (R8)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      gfloop
	VZEROUPPER
	RET

// func tanhF64Asm(y, d, x *float64, n int)
TEXT ·tanhF64Asm(SB), NOSPLIT, $0-32
	MOVQ    y+0(FP), DI
	MOVQ    d+8(FP), R8
	MOVQ    x+16(FP), SI
	MOVQ    n+24(FP), CX
	XORQ    AX, AX

tfloop:
	VMOVUPD (SI)(AX*8), Y1
	TANH4
	VMOVUPD Y2, (DI)(AX*8)
	TANHD
	VMOVUPD Y5, (R8)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      tfloop
	VZEROUPPER
	RET

// func expSubAsm(out *float32, e *float64, src *float32, max float32, n int) int
// Per 4-block of src, in order: a = float64(src - max), the subtraction in
// float32; if any lane is NaN or outside [-700, 100] — where archExp would
// leave its straight-line path — stop and return the number of elements
// done; else e = exp(a) and out = float32(e). n is a multiple of 4.
TEXT ·expSubAsm(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         e+8(FP), R8
	MOVQ         src+16(FP), SI
	VBROADCASTSS max+24(FP), X14
	MOVQ         n+32(FP), CX
	XORQ         AX, AX

eloop:
	CMPQ       AX, CX
	JGE        edone
	VMOVUPS    (SI)(AX*4), X0
	VSUBPS     X14, X0, X0
	VCVTPS2PD  X0, Y0
	VCMPPD     $0x1D, cExpLo, Y0, Y1
	VCMPPD     $0x12, c100, Y0, Y2
	VANDPD     Y2, Y1, Y1
	VMOVMSKPD  Y1, BX
	CMPL       BX, $15
	JNE        edone
	EXP4(Y0, Y1, X2, Y2)
	VMOVUPD    Y0, (R8)(AX*8)
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        eloop

edone:
	VZEROUPPER
	MOVQ       AX, ret+40(FP)
	RET

// The zmm rows: geluRowAsm and geluF64Asm with sixteen elements per
// iteration (n a multiple of 16), two 8-blocks through GELUY8X2 and
// GELUD8X2; the float32 halves pass through Y7 and Y15. There is no zmm
// exp row: the training workloads' softmax rows are at most 12 wide, where
// an 8-block beside expSubAsm's 4-blocks costs more than it saves; the slab
// kernel below fills its lanes with rows instead.

// func geluRowZAsm(out, keep, src, bias *float32, n int)
TEXT ·geluRowZAsm(SB), NOSPLIT, $0-40
	ROWARGS

zgloop:
	VMOVUPS   (SI)(AX*4), Y7
	VMOVUPS   32(SI)(AX*4), Y15
	TESTQ     R9, R9
	JZ        zgwiden
	VADDPS    (R9)(AX*4), Y7, Y7
	VADDPS    32(R9)(AX*4), Y15, Y15

zgwiden:
	VCVTPS2PD Y7, Z0
	VCVTPS2PD Y15, Z8
	GELUY8X2
	VCVTPD2PS Z4, Y7
	VCVTPD2PS Z12, Y15
	VMOVUPS   Y7, (DI)(AX*4)
	VMOVUPS   Y15, 32(DI)(AX*4)
	TESTQ     R8, R8
	JZ        zgnext
	GELUD8X2
	VCVTPD2PS Z5, Y7
	VCVTPD2PS Z13, Y15
	VMOVUPS   Y7, (R8)(AX*4)
	VMOVUPS   Y15, 32(R8)(AX*4)

zgnext:
	ADDQ      $16, AX
	CMPQ      AX, CX
	JL        zgloop
	VZEROUPPER
	RET

// func geluF64ZAsm(y, d, x *float64, n int)
TEXT ·geluF64ZAsm(SB), NOSPLIT, $0-32
	MOVQ    y+0(FP), DI
	MOVQ    d+8(FP), R8
	MOVQ    x+16(FP), SI
	MOVQ    n+24(FP), CX
	XORQ    AX, AX

zgfloop:
	VMOVUPD (SI)(AX*8), Z0
	VMOVUPD 64(SI)(AX*8), Z8
	GELUY8X2
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z12, 64(DI)(AX*8)
	GELUD8X2
	VMOVUPD Z5, (R8)(AX*8)
	VMOVUPD Z13, 64(R8)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JL      zgfloop
	VZEROUPPER
	RET

// EXPARG: a = float64(v − max), the subtraction in float32 (v first),
// from the float32 lanes of v into the zmm of v. INRANGE: k &= the lanes
// of a in [-700, 100] (false on NaN), where EXP8 repeats archExp's
// straight-line path. softmaxAsm and softmaxExpAsm share both.
#define EXPARG(v, yv, max) \
	VSUBPS    max, v, v; \
	VCVTPS2PD yv, v

#define INRANGE(a, k) \
	VCMPPD.BCST $0x1D, cExpLo, a, k, k; \
	VCMPPD.BCST $0x12, c100, a, k, k

// func softmaxAsm(dst, src *float32, rows, c int, scale float32) bool
// The softmax slab kernel over one block of rows ≤ 8 rows of c ≤ 16, one
// row per lane (rows_amd64.h moves the block between row and column
// layout): the columns v = src·scale go to the frame, max = the first v,
// then max = v where v > max (VMAXPS keeps max on NaN and equal zeros);
// then per column in ascending j (four at a time, EXP8X4),
// a = float64(v − max) (EXPARG), e = exp(a), sum += e, v = float32(e); inv = float32(1/sum) and
// every column times inv; then the rows to dst. If any a was NaN or
// outside [-700, 100] (INRANGE) it returns false before writing dst, and
// the caller runs the scalar body over the block. dst may be src.
TEXT ·softmaxAsm(SB), NOSPLIT, $576-41
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), AX
	MOVQ         c+24(FP), R12
	VBROADCASTSS scale+32(FP), Z18
	MOVQ         R12, R14
	SHLQ         $2, R14
	DECQ         AX
	ROWOFFS(AX, R14, R10)
	LEAQ         ·rowMasks(SB), CX
	XORQ         R15, R15
	LEAQ         64(SP), R13

smLoad:
	MOVQ    R12, BX
	SUBQ    R15, BX
	MOVQ    $8, R10
	CMPQ    BX, R10
	CMOVQGT R10, BX
	MOVWLZX (CX)(BX*2), DX
	KMOVW   DX, K1
	LEAQ    (SI)(R15*4), R11
	LOADROWS(R11, R9)
	TRANSPOSE8
	VMULPS  Z18, Z8, Z8
	VMULPS  Z18, Z9, Z9
	VMULPS  Z18, Z10, Z10
	VMULPS  Z18, Z11, Z11
	VMULPS  Z18, Z12, Z12
	VMULPS  Z18, Z13, Z13
	VMULPS  Z18, Z14, Z14
	VMULPS  Z18, Z15, Z15
	VMOVUPS Y8, (R13)
	VMOVUPS Y9, 32(R13)
	VMOVUPS Y10, 64(R13)
	VMOVUPS Y11, 96(R13)
	VMOVUPS Y12, 128(R13)
	VMOVUPS Y13, 160(R13)
	VMOVUPS Y14, 192(R13)
	VMOVUPS Y15, 224(R13)
	ADDQ    $8, R15
	ADDQ    $256, R13
	CMPQ    R15, R12
	JL      smLoad
	VMOVUPS 64(SP), Y0
	VMOVAPS Z0, Z16
	MOVQ    $1, R15
	LEAQ    96(SP), R13

smMax:
	CMPQ    R15, R12
	JGE     smMaxDone
	VMOVUPS (R13), Y0
	VMAXPS  Z16, Z0, Z16
	ADDQ    $32, R13
	INCQ    R15
	JMP     smMax

smMaxDone:
	VPXORQ Z17, Z17, Z17
	MOVL   $0xff, DX
	KMOVW  DX, K3
	XORQ   R15, R15
	LEAQ   64(SP), R13

smExp4:
	LEAQ      4(R15), R10
	CMPQ      R10, R12
	JG        smExp1
	VMOVUPS   (R13), Y0
	VMOVUPS   32(R13), Y3
	VMOVUPS   64(R13), Y6
	VMOVUPS   96(R13), Y9
	EXPARG(Z0, Y0, Z16)
	EXPARG(Z3, Y3, Z16)
	EXPARG(Z6, Y6, Z16)
	EXPARG(Z9, Y9, Z16)
	INRANGE(Z0, K3)
	INRANGE(Z3, K3)
	INRANGE(Z6, K3)
	INRANGE(Z9, K3)
	EXP8X4(Z0, Z1, Y2, Z2, Z3, Z4, Y5, Z5, Z6, Z7, Y8, Z8, Z9, Z10, Y11, Z11)
	VADDPD    Z0, Z17, Z17
	VADDPD    Z3, Z17, Z17
	VADDPD    Z6, Z17, Z17
	VADDPD    Z9, Z17, Z17
	VCVTPD2PS Z0, Y0
	VCVTPD2PS Z3, Y3
	VCVTPD2PS Z6, Y6
	VCVTPD2PS Z9, Y9
	VMOVUPS   Y0, (R13)
	VMOVUPS   Y3, 32(R13)
	VMOVUPS   Y6, 64(R13)
	VMOVUPS   Y9, 96(R13)
	ADDQ      $128, R13
	MOVQ      R10, R15
	JMP       smExp4

smExp1:
	CMPQ      R15, R12
	JGE       smExpDone
	VMOVUPS   (R13), Y0
	EXPARG(Z0, Y0, Z16)
	INRANGE(Z0, K3)
	EXP8(Z0, Z1, Y2, Z2)
	VADDPD    Z0, Z17, Z17
	VCVTPD2PS Z0, Y0
	VMOVUPS   Y0, (R13)
	ADDQ      $32, R13
	INCQ      R15
	JMP       smExp1

smExpDone:
	KMOVW        K3, DX
	CMPL         DX, $0xff
	JNE          smDecline
	VBROADCASTSD cOne, Z1
	VDIVPD       Z17, Z1, Z1
	VCVTPD2PS    Z1, Y1
	XORQ         R15, R15
	LEAQ         64(SP), R13

smScale:
	CMPQ    R15, R12
	JGE     smStore
	VMOVUPS (R13), Y0
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (R13)
	ADDQ    $32, R13
	INCQ    R15
	JMP     smScale

smStore:
	XORQ R15, R15
	LEAQ 64(SP), R13

smStoreChunk:
	MOVQ    R12, BX
	SUBQ    R15, BX
	MOVQ    $8, R10
	CMPQ    BX, R10
	CMOVQGT R10, BX
	MOVWLZX (CX)(BX*2), DX
	KMOVW   DX, K1
	VMOVUPS (R13), Y0
	VMOVUPS 32(R13), Y1
	VMOVUPS 64(R13), Y2
	VMOVUPS 96(R13), Y3
	VMOVUPS 128(R13), Y4
	VMOVUPS 160(R13), Y5
	VMOVUPS 192(R13), Y6
	VMOVUPS 224(R13), Y7
	TRANSPOSE8
	LEAQ    (DI)(R15*4), R11
	STOREROWS(R11, R9)
	ADDQ    $8, R15
	ADDQ    $256, R13
	CMPQ    R15, R12
	JL      smStoreChunk
	MOVB    $1, ret+40(FP)
	VZEROUPPER
	RET

smDecline:
	MOVB $0, ret+40(FP)
	VZEROUPPER
	RET

// func softmaxExpAsm(e *float64, src *float32, max float32, n int) int
// softmaxAsm's exp lanes over a plain row: per 8-block of src, EXPARG and
// INRANGE against max, then, if every lane is in range, e = exp(a) (EXP8);
// it returns the number of elements done (n a multiple of 8). The init
// self-check and the exhaustive test reach the slab kernel's exp through
// it.
TEXT ·softmaxExpAsm(SB), NOSPLIT, $0-40
	MOVQ         e+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS max+16(FP), Z16
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVL         $0xff, DX

sxLoop:
	CMPQ    AX, CX
	JGE     sxDone
	VMOVUPS (SI)(AX*4), Y0
	EXPARG(Z0, Y0, Z16)
	KMOVW   DX, K3
	INRANGE(Z0, K3)
	KMOVW   K3, BX
	CMPL    BX, DX
	JNE     sxDone
	EXP8(Z0, Z1, Y2, Z2)
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     sxLoop

sxDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
