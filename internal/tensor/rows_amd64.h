// Data movement for the rows-in-lanes kernels (rows_amd64.s,
// vecmath_amd64.s). A kernel works on a block of up to eight rows and moves
// it between row and column layout eight columns at a time: LOADROWS reads
// eight rows' chunk of eight columns, TRANSPOSE8 turns them into eight
// column vectors whose lane r is row r, and the same transpose turns
// columns back into rows for STOREROWS.
//
// Row r of a block is at the byte offset OFFr from the block's first row;
// ROWOFFS sets OFF0-OFF7 (the first 64 bytes of the kernel's frame) to
// min(r, n-1)·stride, so the rows past a partial block's last one read and
// write that last row again: their lanes compute exactly its values, and
// every store to it carries the same bits. The kernels need no row masks.

#define OFF0 0(SP)
#define OFF1 8(SP)
#define OFF2 16(SP)
#define OFF3 24(SP)
#define OFF4 32(SP)
#define OFF5 40(SP)
#define OFF6 48(SP)
#define OFF7 56(SP)

#define ROWOFF(r, last, stride, t, slot) \
	MOVQ    $r, t; \
	CMPQ    t, last; \
	CMOVQGT last, t; \
	IMULQ   stride, t; \
	MOVQ    t, slot

// ROWOFFS: OFFr = min(r, last)·stride, last = n-1 (t scratch).
#define ROWOFFS(last, stride, t) \
	ROWOFF(0, last, stride, t, OFF0); \
	ROWOFF(1, last, stride, t, OFF1); \
	ROWOFF(2, last, stride, t, OFF2); \
	ROWOFF(3, last, stride, t, OFF3); \
	ROWOFF(4, last, stride, t, OFF4); \
	ROWOFF(5, last, stride, t, OFF5); \
	ROWOFF(6, last, stride, t, OFF6); \
	ROWOFF(7, last, stride, t, OFF7)

// CHUNK: ct = min(8, cols − j0), the columns of the chunk at j0, and K1 =
// their opmask (masks holds ·rowMasks' address; t, bits scratch).
#define CHUNK(cols, j0, ct, t, masks, bits) \
	MOVQ    cols, ct; \
	SUBQ    j0, ct; \
	MOVQ    $8, t; \
	CMPQ    ct, t; \
	CMOVQGT t, ct; \
	MOVWLZX (masks)(ct*2), bits; \
	KMOVW   bits, K1

// LOADROWS: Y0-Y7 = rows 0-7 at base, the columns K1 selects (the rest
// +0); t scratch.
#define LOADROWS(base, t) \
	MOVQ      OFF0, t; \
	VMOVUPS.Z (base)(t*1), K1, Z0; \
	MOVQ      OFF1, t; \
	VMOVUPS.Z (base)(t*1), K1, Z1; \
	MOVQ      OFF2, t; \
	VMOVUPS.Z (base)(t*1), K1, Z2; \
	MOVQ      OFF3, t; \
	VMOVUPS.Z (base)(t*1), K1, Z3; \
	MOVQ      OFF4, t; \
	VMOVUPS.Z (base)(t*1), K1, Z4; \
	MOVQ      OFF5, t; \
	VMOVUPS.Z (base)(t*1), K1, Z5; \
	MOVQ      OFF6, t; \
	VMOVUPS.Z (base)(t*1), K1, Z6; \
	MOVQ      OFF7, t; \
	VMOVUPS.Z (base)(t*1), K1, Z7

// STOREROWS: rows 0-7 from Y8-Y15 to base, the columns K1 selects; t
// scratch.
#define STOREROWS(base, t) \
	MOVQ    OFF0, t; \
	VMOVUPS Z8, K1, (base)(t*1); \
	MOVQ    OFF1, t; \
	VMOVUPS Z9, K1, (base)(t*1); \
	MOVQ    OFF2, t; \
	VMOVUPS Z10, K1, (base)(t*1); \
	MOVQ    OFF3, t; \
	VMOVUPS Z11, K1, (base)(t*1); \
	MOVQ    OFF4, t; \
	VMOVUPS Z12, K1, (base)(t*1); \
	MOVQ    OFF5, t; \
	VMOVUPS Z13, K1, (base)(t*1); \
	MOVQ    OFF6, t; \
	VMOVUPS Z14, K1, (base)(t*1); \
	MOVQ    OFF7, t; \
	VMOVUPS Z15, K1, (base)(t*1)

// TRANSPOSE8: Y8-Y15 = the transpose of the 8×8 float32 matrix whose rows
// are Y0-Y7 (Y8+k holds element k of every row, row r in lane r); Y0-Y7
// are clobbered. Unpack pairs of rows, shuffle pairs of pairs, then swap
// 128-bit halves: 24 shuffles.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y9; \
	VUNPCKLPS  Y3, Y2, Y10; \
	VUNPCKHPS  Y3, Y2, Y11; \
	VUNPCKLPS  Y5, Y4, Y12; \
	VUNPCKHPS  Y5, Y4, Y13; \
	VUNPCKLPS  Y7, Y6, Y14; \
	VUNPCKHPS  Y7, Y6, Y15; \
	VSHUFPS    $0x44, Y10, Y8, Y0; \
	VSHUFPS    $0xEE, Y10, Y8, Y1; \
	VSHUFPS    $0x44, Y11, Y9, Y2; \
	VSHUFPS    $0xEE, Y11, Y9, Y3; \
	VSHUFPS    $0x44, Y14, Y12, Y4; \
	VSHUFPS    $0xEE, Y14, Y12, Y5; \
	VSHUFPS    $0x44, Y15, Y13, Y6; \
	VSHUFPS    $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// STORECOLS: the eight column vectors Y8-Y15 to eight consecutive 32-byte
// slots at at(SP).
#define STORECOLS(at) \
	VMOVUPS Y8, (at)(SP); \
	VMOVUPS Y9, (at+32)(SP); \
	VMOVUPS Y10, (at+64)(SP); \
	VMOVUPS Y11, (at+96)(SP); \
	VMOVUPS Y12, (at+128)(SP); \
	VMOVUPS Y13, (at+160)(SP); \
	VMOVUPS Y14, (at+192)(SP); \
	VMOVUPS Y15, (at+224)(SP)
