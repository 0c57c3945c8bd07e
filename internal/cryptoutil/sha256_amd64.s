//go:build !purego

// 16-lane SHA-256 kernel for Equation 1 (see sha256_amd64.go). Each
// ZMM register holds one 32-bit word of all sixteen lanes, so one
// instruction advances sixteen independent hashes by the same step of
// FIPS 180-4's compression function. The multi-buffer shape is that of
// Intel's isa-l_crypto sha256_mb; the code is this package's own.
//
// Registers:
//	Z0-Z7	the working variables a..h, renamed each round by the
//		macros' arguments instead of moved (after 8 rounds every
//		variable is back in its register)
//	Z8-Z23	the message schedule's rolling window: W[t] lives in
//		Z(8 + t%16) and overwrites W[t-16]
//	Z24-Z31	scratch
//	DI	the transposed state, word i of lane l at 64*i + 4*l
//	SI	the lanes' data pointers
//	DX	byte offset of the current chunk in every lane
//	BX	the round constants still to use

#include "textflag.h"

// ROUND is one SHA-256 round on all lanes: h becomes the new a
// (T1 + T2) and d the new e (d + T1). k is the byte offset of K[t]
// from BX.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST k(BX), w, Z24;        \
	VPADDD      Z24, h, h;            \
	VPRORD      $6, e, Z25;           \
	VPRORD      $11, e, Z26;          \
	VPRORD      $25, e, Z27;          \
	VPTERNLOGD  $0x96, Z27, Z26, Z25; \
	VPADDD      Z25, h, h;            \
	VMOVDQA32   e, Z25;               \
	VPTERNLOGD  $0xca, g, f, Z25;     \
	VPADDD      Z25, h, h;            \
	VPADDD      h, d, d;              \
	VPRORD      $2, a, Z28;           \
	VPRORD      $13, a, Z29;          \
	VPRORD      $22, a, Z30;          \
	VPTERNLOGD  $0x96, Z30, Z29, Z28; \
	VPADDD      Z28, h, h;            \
	VMOVDQA32   a, Z28;               \
	VPTERNLOGD  $0xe8, c, b, Z28;     \
	VPADDD      Z28, h, h

// SCHED computes W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
// into w, which holds W[t-16].
#define SCHED(w, w2, w7, w15) \
	VPRORD     $7, w15, Z29;         \
	VPRORD     $18, w15, Z30;        \
	VPSRLD     $3, w15, Z31;         \
	VPTERNLOGD $0x96, Z31, Z30, Z29; \
	VPADDD     Z29, w, w;            \
	VPADDD     w7, w, w;             \
	VPRORD     $17, w2, Z29;         \
	VPRORD     $19, w2, Z30;         \
	VPSRLD     $10, w2, Z31;         \
	VPTERNLOGD $0x96, Z31, Z30, Z29; \
	VPADDD     Z29, w, w

// The eight register assignments of a..h, one per round modulo 8.
#define R0(w, k) ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, w, k)
#define R1(w, k) ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, w, k)
#define R2(w, k) ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, w, k)
#define R3(w, k) ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, w, k)
#define R4(w, k) ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, w, k)
#define R5(w, k) ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, w, k)
#define R6(w, k) ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, w, k)
#define R7(w, k) ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, w, k)

// LOAD reads lane l's 64-byte chunk into row register r.
#define LOAD(l, r) \
	MOVQ      (8*l)(SI), AX; \
	VMOVDQU32 (AX)(DX*1), r

// QUAD4 finishes the transpose for one word index m: q0..q3 hold word
// 4j+m of lanes 4g..4g+3 in 128-bit lane j of qg; the four outputs get
// word m, m+4, m+8 and m+12 of all sixteen lanes. x, y, z and v are
// scratch.
#define QUAD4(q0, q1, q2, q3, x, y, z, v, o0, o1, o2, o3) \
	VSHUFI32X4 $0x44, q1, q0, x; \
	VSHUFI32X4 $0xee, q1, q0, y; \
	VSHUFI32X4 $0x44, q3, q2, z; \
	VSHUFI32X4 $0xee, q3, q2, v; \
	VSHUFI32X4 $0x88, z, x, o0;  \
	VSHUFI32X4 $0xdd, z, x, o1;  \
	VSHUFI32X4 $0x88, v, y, o2;  \
	VSHUFI32X4 $0xdd, v, y, o3

// func sha256x16(state *[8][HashLanes]uint32, ptrs *[HashLanes]*byte, chunks int)
TEXT ·sha256x16(SB), NOSPLIT, $0-24
	MOVQ state+0(FP), DI
	MOVQ ptrs+8(FP), SI
	MOVQ chunks+16(FP), CX
	VMOVDQU32 0(DI), Z0
	VMOVDQU32 64(DI), Z1
	VMOVDQU32 128(DI), Z2
	VMOVDQU32 192(DI), Z3
	VMOVDQU32 256(DI), Z4
	VMOVDQU32 320(DI), Z5
	VMOVDQU32 384(DI), Z6
	VMOVDQU32 448(DI), Z7
	XORQ DX, DX

chunk:
	// Row l of the 16x16 word matrix is lane l's chunk.
	LOAD(0, Z8)
	LOAD(1, Z9)
	LOAD(2, Z10)
	LOAD(3, Z11)
	LOAD(4, Z12)
	LOAD(5, Z13)
	LOAD(6, Z14)
	LOAD(7, Z15)
	LOAD(8, Z16)
	LOAD(9, Z17)
	LOAD(10, Z18)
	LOAD(11, Z19)
	LOAD(12, Z20)
	LOAD(13, Z21)
	LOAD(14, Z22)
	LOAD(15, Z23)

	// Transpose, step 1: interleave the words of row pairs. The low
	// halves go to Z24-Z31, the high halves stay in the odd rows.
	VPUNPCKLDQ Z9, Z8, Z24
	VPUNPCKHDQ Z9, Z8, Z9
	VPUNPCKLDQ Z11, Z10, Z25
	VPUNPCKHDQ Z11, Z10, Z11
	VPUNPCKLDQ Z13, Z12, Z26
	VPUNPCKHDQ Z13, Z12, Z13
	VPUNPCKLDQ Z15, Z14, Z27
	VPUNPCKHDQ Z15, Z14, Z15
	VPUNPCKLDQ Z17, Z16, Z28
	VPUNPCKHDQ Z17, Z16, Z17
	VPUNPCKLDQ Z19, Z18, Z29
	VPUNPCKHDQ Z19, Z18, Z19
	VPUNPCKLDQ Z21, Z20, Z30
	VPUNPCKHDQ Z21, Z20, Z21
	VPUNPCKLDQ Z23, Z22, Z31
	VPUNPCKHDQ Z23, Z22, Z23

	// Step 2: interleave quadwords of pair pairs. For rows 4g..4g+3,
	// word 4j+m of 128-bit lane j lands in Z(8+4g) for m=0,
	// Z(10+4g) for m=1, Z(24+2g) for m=2 and Z(25+2g) for m=3.
	VPUNPCKLQDQ Z25, Z24, Z8
	VPUNPCKHQDQ Z25, Z24, Z10
	VPUNPCKLQDQ Z11, Z9, Z24
	VPUNPCKHQDQ Z11, Z9, Z25
	VPUNPCKLQDQ Z27, Z26, Z12
	VPUNPCKHQDQ Z27, Z26, Z14
	VPUNPCKLQDQ Z15, Z13, Z26
	VPUNPCKHQDQ Z15, Z13, Z27
	VPUNPCKLQDQ Z29, Z28, Z16
	VPUNPCKHQDQ Z29, Z28, Z18
	VPUNPCKLQDQ Z19, Z17, Z28
	VPUNPCKHQDQ Z19, Z17, Z29
	VPUNPCKLQDQ Z31, Z30, Z20
	VPUNPCKHQDQ Z31, Z30, Z22
	VPUNPCKLQDQ Z23, Z21, Z30
	VPUNPCKHQDQ Z23, Z21, Z31

	// Steps 3 and 4: transpose the 4x4 matrices of 128-bit lanes, one
	// per m, so that word t of every lane ends in Z(8+t).
	QUAD4(Z8, Z12, Z16, Z20, Z11, Z15, Z19, Z23, Z8, Z12, Z16, Z20)
	QUAD4(Z10, Z14, Z18, Z22, Z11, Z15, Z19, Z23, Z9, Z13, Z17, Z21)
	QUAD4(Z24, Z26, Z28, Z30, Z11, Z15, Z19, Z23, Z10, Z14, Z18, Z22)
	QUAD4(Z25, Z27, Z29, Z31, Z24, Z26, Z28, Z30, Z11, Z15, Z19, Z23)

	// SHA-256 words are big-endian.
	VPSHUFB bswapMask<>(SB), Z8, Z8
	VPSHUFB bswapMask<>(SB), Z9, Z9
	VPSHUFB bswapMask<>(SB), Z10, Z10
	VPSHUFB bswapMask<>(SB), Z11, Z11
	VPSHUFB bswapMask<>(SB), Z12, Z12
	VPSHUFB bswapMask<>(SB), Z13, Z13
	VPSHUFB bswapMask<>(SB), Z14, Z14
	VPSHUFB bswapMask<>(SB), Z15, Z15
	VPSHUFB bswapMask<>(SB), Z16, Z16
	VPSHUFB bswapMask<>(SB), Z17, Z17
	VPSHUFB bswapMask<>(SB), Z18, Z18
	VPSHUFB bswapMask<>(SB), Z19, Z19
	VPSHUFB bswapMask<>(SB), Z20, Z20
	VPSHUFB bswapMask<>(SB), Z21, Z21
	VPSHUFB bswapMask<>(SB), Z22, Z22
	VPSHUFB bswapMask<>(SB), Z23, Z23

	// Rounds 0-15 use the message words as loaded.
	LEAQ sha256K<>(SB), BX
	R0(Z8, 0)
	R1(Z9, 4)
	R2(Z10, 8)
	R3(Z11, 12)
	R4(Z12, 16)
	R5(Z13, 20)
	R6(Z14, 24)
	R7(Z15, 28)
	R0(Z16, 32)
	R1(Z17, 36)
	R2(Z18, 40)
	R3(Z19, 44)
	R4(Z20, 48)
	R5(Z21, 52)
	R6(Z22, 56)
	R7(Z23, 60)

	// Rounds 16-63, sixteen per pass, each extending the schedule.
	MOVQ $3, R8

rounds:
	SCHED(Z8, Z22, Z17, Z9)
	R0(Z8, 64)
	SCHED(Z9, Z23, Z18, Z10)
	R1(Z9, 68)
	SCHED(Z10, Z8, Z19, Z11)
	R2(Z10, 72)
	SCHED(Z11, Z9, Z20, Z12)
	R3(Z11, 76)
	SCHED(Z12, Z10, Z21, Z13)
	R4(Z12, 80)
	SCHED(Z13, Z11, Z22, Z14)
	R5(Z13, 84)
	SCHED(Z14, Z12, Z23, Z15)
	R6(Z14, 88)
	SCHED(Z15, Z13, Z8, Z16)
	R7(Z15, 92)
	SCHED(Z16, Z14, Z9, Z17)
	R0(Z16, 96)
	SCHED(Z17, Z15, Z10, Z18)
	R1(Z17, 100)
	SCHED(Z18, Z16, Z11, Z19)
	R2(Z18, 104)
	SCHED(Z19, Z17, Z12, Z20)
	R3(Z19, 108)
	SCHED(Z20, Z18, Z13, Z21)
	R4(Z20, 112)
	SCHED(Z21, Z19, Z14, Z22)
	R5(Z21, 116)
	SCHED(Z22, Z20, Z15, Z23)
	R6(Z22, 120)
	SCHED(Z23, Z21, Z16, Z8)
	R7(Z23, 124)
	ADDQ $64, BX
	DECQ R8
	JNZ  rounds

	// Add the chunk's result into the state and keep it for the next.
	VPADDD    0(DI), Z0, Z0
	VPADDD    64(DI), Z1, Z1
	VPADDD    128(DI), Z2, Z2
	VPADDD    192(DI), Z3, Z3
	VPADDD    256(DI), Z4, Z4
	VPADDD    320(DI), Z5, Z5
	VPADDD    384(DI), Z6, Z6
	VPADDD    448(DI), Z7, Z7
	VMOVDQU32 Z0, 0(DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VMOVDQU32 Z5, 320(DI)
	VMOVDQU32 Z6, 384(DI)
	VMOVDQU32 Z7, 448(DI)

	ADDQ $64, DX
	DECQ CX
	JNZ  chunk
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// bswapMask reverses the bytes of every 32-bit word (VPSHUFB works
// within each 128-bit lane, so the pattern repeats four times).
DATA bswapMask<>+0x00(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+0x10(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x18(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+0x20(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x28(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+0x30(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x38(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswapMask<>(SB), RODATA|NOPTR, $64

// sha256K is FIPS 180-4's round constants K[0..63].
DATA sha256K<>+0x00(SB)/4, $0x428a2f98
DATA sha256K<>+0x04(SB)/4, $0x71374491
DATA sha256K<>+0x08(SB)/4, $0xb5c0fbcf
DATA sha256K<>+0x0c(SB)/4, $0xe9b5dba5
DATA sha256K<>+0x10(SB)/4, $0x3956c25b
DATA sha256K<>+0x14(SB)/4, $0x59f111f1
DATA sha256K<>+0x18(SB)/4, $0x923f82a4
DATA sha256K<>+0x1c(SB)/4, $0xab1c5ed5
DATA sha256K<>+0x20(SB)/4, $0xd807aa98
DATA sha256K<>+0x24(SB)/4, $0x12835b01
DATA sha256K<>+0x28(SB)/4, $0x243185be
DATA sha256K<>+0x2c(SB)/4, $0x550c7dc3
DATA sha256K<>+0x30(SB)/4, $0x72be5d74
DATA sha256K<>+0x34(SB)/4, $0x80deb1fe
DATA sha256K<>+0x38(SB)/4, $0x9bdc06a7
DATA sha256K<>+0x3c(SB)/4, $0xc19bf174
DATA sha256K<>+0x40(SB)/4, $0xe49b69c1
DATA sha256K<>+0x44(SB)/4, $0xefbe4786
DATA sha256K<>+0x48(SB)/4, $0x0fc19dc6
DATA sha256K<>+0x4c(SB)/4, $0x240ca1cc
DATA sha256K<>+0x50(SB)/4, $0x2de92c6f
DATA sha256K<>+0x54(SB)/4, $0x4a7484aa
DATA sha256K<>+0x58(SB)/4, $0x5cb0a9dc
DATA sha256K<>+0x5c(SB)/4, $0x76f988da
DATA sha256K<>+0x60(SB)/4, $0x983e5152
DATA sha256K<>+0x64(SB)/4, $0xa831c66d
DATA sha256K<>+0x68(SB)/4, $0xb00327c8
DATA sha256K<>+0x6c(SB)/4, $0xbf597fc7
DATA sha256K<>+0x70(SB)/4, $0xc6e00bf3
DATA sha256K<>+0x74(SB)/4, $0xd5a79147
DATA sha256K<>+0x78(SB)/4, $0x06ca6351
DATA sha256K<>+0x7c(SB)/4, $0x14292967
DATA sha256K<>+0x80(SB)/4, $0x27b70a85
DATA sha256K<>+0x84(SB)/4, $0x2e1b2138
DATA sha256K<>+0x88(SB)/4, $0x4d2c6dfc
DATA sha256K<>+0x8c(SB)/4, $0x53380d13
DATA sha256K<>+0x90(SB)/4, $0x650a7354
DATA sha256K<>+0x94(SB)/4, $0x766a0abb
DATA sha256K<>+0x98(SB)/4, $0x81c2c92e
DATA sha256K<>+0x9c(SB)/4, $0x92722c85
DATA sha256K<>+0xa0(SB)/4, $0xa2bfe8a1
DATA sha256K<>+0xa4(SB)/4, $0xa81a664b
DATA sha256K<>+0xa8(SB)/4, $0xc24b8b70
DATA sha256K<>+0xac(SB)/4, $0xc76c51a3
DATA sha256K<>+0xb0(SB)/4, $0xd192e819
DATA sha256K<>+0xb4(SB)/4, $0xd6990624
DATA sha256K<>+0xb8(SB)/4, $0xf40e3585
DATA sha256K<>+0xbc(SB)/4, $0x106aa070
DATA sha256K<>+0xc0(SB)/4, $0x19a4c116
DATA sha256K<>+0xc4(SB)/4, $0x1e376c08
DATA sha256K<>+0xc8(SB)/4, $0x2748774c
DATA sha256K<>+0xcc(SB)/4, $0x34b0bcb5
DATA sha256K<>+0xd0(SB)/4, $0x391c0cb3
DATA sha256K<>+0xd4(SB)/4, $0x4ed8aa4a
DATA sha256K<>+0xd8(SB)/4, $0x5b9cca4f
DATA sha256K<>+0xdc(SB)/4, $0x682e6ff3
DATA sha256K<>+0xe0(SB)/4, $0x748f82ee
DATA sha256K<>+0xe4(SB)/4, $0x78a5636f
DATA sha256K<>+0xe8(SB)/4, $0x84c87814
DATA sha256K<>+0xec(SB)/4, $0x8cc70208
DATA sha256K<>+0xf0(SB)/4, $0x90befffa
DATA sha256K<>+0xf4(SB)/4, $0xa4506ceb
DATA sha256K<>+0xf8(SB)/4, $0xbef9a3f7
DATA sha256K<>+0xfc(SB)/4, $0xc67178f2
GLOBL sha256K<>(SB), RODATA|NOPTR, $256
