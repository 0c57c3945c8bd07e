// Copyright 2012 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the GO-LICENSE file.

//go:build !purego

// AES-256 kernels for Equation 2 and the KDF (see cbc_amd64.go). The
// key expansion is the 256-bit path of the Go standard library's
// crypto/aes aes_amd64.s with its helper calls written out as macros;
// the loops are this package's own. The AES-NI loops use only SSE,
// SSE2 and AES-NI encodings (CPUID leaf 1 ECX bit 25). The VAES loops
// (names ending in VAES) run four AES blocks per ZMM instruction and
// need VAES and AVX-512 F on top (useVAES).
//
// A schedule is 15 round keys of 16 bytes, in the byte order AESENC
// and AESDEC take. Memory operands of legacy SSE instructions must be
// 16-byte aligned and Go only aligns a stack array to 8, so every
// round key and data block is loaded with MOVUPS first; EVEX memory
// operands have no alignment rule.

#include "textflag.h"

// EXPAND_A derives the next even round key into X0 from X0 and the
// previous odd key X2, and stores it at off(BX). X4 is the shuffle
// scratch the Go source keeps live across the whole expansion.
#define EXPAND_A(rcon, off) \
	AESKEYGENASSIST $rcon, X2, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, (off)(BX)

// EXPAND_B derives the next odd round key into X2 from X2 and the even
// key X0 (SubWord without RotWord or rcon), and stores it at off(BX).
#define EXPAND_B(off) \
	AESKEYGENASSIST $0x00, X0, X1; \
	PSHUFD          $0xaa, X1, X1; \
	SHUFPS          $0x10, X2, X4; \
	PXOR            X4, X2; \
	SHUFPS          $0x8c, X2, X4; \
	PXOR            X4, X2; \
	PXOR            X1, X2; \
	MOVUPS          X2, (off)(BX)

// EXPAND256 writes the encryption schedule of the 32-byte key at (AX)
// to (BX), round key r at r*s(BX).
#define EXPAND256(s) \
	MOVUPS (AX), X0; \
	MOVUPS 16(AX), X2; \
	MOVUPS X0, (BX); \
	MOVUPS X2, (1*s)(BX); \
	PXOR   X4, X4; \
	EXPAND_A(0x01, 2*s); \
	EXPAND_B(3*s); \
	EXPAND_A(0x02, 4*s); \
	EXPAND_B(5*s); \
	EXPAND_A(0x04, 6*s); \
	EXPAND_B(7*s); \
	EXPAND_A(0x08, 8*s); \
	EXPAND_B(9*s); \
	EXPAND_A(0x10, 10*s); \
	EXPAND_B(11*s); \
	EXPAND_A(0x20, 12*s); \
	EXPAND_B(13*s); \
	EXPAND_A(0x40, 14*s)

// func expandKeyEnc(key *Key, ks *schedule)
TEXT ·expandKeyEnc(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ ks+8(FP), BX
	EXPAND256(16)
	RET

// func expandKeyEncLane(key *Key, ks *byte)
//
// The encryption schedule of one lane of a lanes schedule: round key r
// at r*256(ks), where 256 bytes are one round key of each of the 16
// lanes.
TEXT ·expandKeyEncLane(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ ks+8(FP), BX
	EXPAND256(256)
	RET

// SWAP_IMC exchanges round keys a and b of the schedule at (BX), each
// through AESIMC (the equivalent inverse cipher's MixColumns^-1).
#define SWAP_IMC(a, b) \
	MOVUPS a(BX), X0; \
	MOVUPS b(BX), X1; \
	AESIMC X0, X0; \
	AESIMC X1, X1; \
	MOVUPS X1, a(BX); \
	MOVUPS X0, b(BX)

// func expandKeyDec(key *Key, ks *schedule)
//
// The decryption schedule: the encryption schedule reversed, with the
// thirteen inner round keys passed through AESIMC.
TEXT ·expandKeyDec(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   ks+8(FP), BX
	EXPAND256(16)
	MOVUPS (BX), X0
	MOVUPS 224(BX), X1
	MOVUPS X1, (BX)
	MOVUPS X0, 224(BX)
	SWAP_IMC(16, 208)
	SWAP_IMC(32, 192)
	SWAP_IMC(48, 176)
	SWAP_IMC(64, 160)
	SWAP_IMC(80, 144)
	SWAP_IMC(96, 128)
	MOVUPS 112(BX), X0
	AESIMC X0, X0
	MOVUPS X0, 112(BX)
	RET

// func encryptCBCAsm(ks *schedule, iv *[16]byte, dst, src *byte, n int)
//
// One CBC stream of n ≥ 1 blocks. Round keys 1–14 stay in X1–X14 for
// the whole stream and round key 0 is re-read from the schedule; X0
// carries the chaining value. Each block's plaintext is read before its
// ciphertext is written, so dst may equal src.
TEXT ·encryptCBCAsm(SB), NOSPLIT, $0-40
	MOVQ   ks+0(FP), AX
	MOVQ   iv+8(FP), BX
	MOVQ   dst+16(FP), DI
	MOVQ   src+24(FP), SI
	MOVQ   n+32(FP), CX
	MOVUPS (BX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVUPS 64(AX), X4
	MOVUPS 80(AX), X5
	MOVUPS 96(AX), X6
	MOVUPS 112(AX), X7
	MOVUPS 128(AX), X8
	MOVUPS 144(AX), X9
	MOVUPS 160(AX), X10
	MOVUPS 176(AX), X11
	MOVUPS 192(AX), X12
	MOVUPS 208(AX), X13
	MOVUPS 224(AX), X14

encLoop:
	MOVUPS     (SI), X15
	PXOR       X15, X0
	MOVUPS     (AX), X15
	PXOR       X15, X0
	AESENC     X1, X0
	AESENC     X2, X0
	AESENC     X3, X0
	AESENC     X4, X0
	AESENC     X5, X0
	AESENC     X6, X0
	AESENC     X7, X0
	AESENC     X8, X0
	AESENC     X9, X0
	AESENC     X10, X0
	AESENC     X11, X0
	AESENC     X12, X0
	AESENC     X13, X0
	AESENCLAST X14, X0
	MOVUPS     X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        encLoop
	RET

// DEC8 applies the decryption round key at off(AX) to the eight states
// X0–X7 through the scratch register X8.
#define DEC8(op, off) \
	MOVUPS off(AX), X8; \
	op     X8, X0; \
	op     X8, X1; \
	op     X8, X2; \
	op     X8, X3; \
	op     X8, X4; \
	op     X8, X5; \
	op     X8, X6; \
	op     X8, X7

// DEC1 applies the decryption round key at off(AX) to the state X0.
#define DEC1(off) \
	MOVUPS off(AX), X8; \
	AESDEC X8, X0

// func decryptCBCAsm(ks *schedule, iv *[16]byte, dst, src *byte, n int)
//
// One CBC stream of n ≥ 1 blocks, decrypted eight blocks at a time:
// CBC decryption has no chain between blocks until the final XOR, so
// eight AESDEC chains overlap in the pipeline. The first and last round
// keys stay in X10 and X11, X9 carries the previous ciphertext block,
// and fewer than eight remaining blocks go one at a time. All eight
// blocks of a group are read before any is written, so dst may equal
// src.
TEXT ·decryptCBCAsm(SB), NOSPLIT, $0-40
	MOVQ   ks+0(FP), AX
	MOVQ   iv+8(FP), BX
	MOVQ   dst+16(FP), DI
	MOVQ   src+24(FP), SI
	MOVQ   n+32(FP), CX
	MOVUPS (BX), X9
	MOVUPS (AX), X10
	MOVUPS 224(AX), X11
	CMPQ   CX, $8
	JB     decTail

decLoop8:
	MOVUPS     (SI), X0
	MOVUPS     16(SI), X1
	MOVUPS     32(SI), X2
	MOVUPS     48(SI), X3
	MOVUPS     64(SI), X4
	MOVUPS     80(SI), X5
	MOVUPS     96(SI), X6
	MOVUPS     112(SI), X7
	PXOR       X10, X0
	PXOR       X10, X1
	PXOR       X10, X2
	PXOR       X10, X3
	PXOR       X10, X4
	PXOR       X10, X5
	PXOR       X10, X6
	PXOR       X10, X7
	DEC8(AESDEC, 16)
	DEC8(AESDEC, 32)
	DEC8(AESDEC, 48)
	DEC8(AESDEC, 64)
	DEC8(AESDEC, 80)
	DEC8(AESDEC, 96)
	DEC8(AESDEC, 112)
	DEC8(AESDEC, 128)
	DEC8(AESDEC, 144)
	DEC8(AESDEC, 160)
	DEC8(AESDEC, 176)
	DEC8(AESDEC, 192)
	DEC8(AESDEC, 208)
	AESDECLAST X11, X0
	AESDECLAST X11, X1
	AESDECLAST X11, X2
	AESDECLAST X11, X3
	AESDECLAST X11, X4
	AESDECLAST X11, X5
	AESDECLAST X11, X6
	AESDECLAST X11, X7
	PXOR       X9, X0
	MOVUPS     (SI), X8
	PXOR       X8, X1
	MOVUPS     16(SI), X8
	PXOR       X8, X2
	MOVUPS     32(SI), X8
	PXOR       X8, X3
	MOVUPS     48(SI), X8
	PXOR       X8, X4
	MOVUPS     64(SI), X8
	PXOR       X8, X5
	MOVUPS     80(SI), X8
	PXOR       X8, X6
	MOVUPS     96(SI), X8
	PXOR       X8, X7
	MOVUPS     112(SI), X9
	MOVUPS     X0, (DI)
	MOVUPS     X1, 16(DI)
	MOVUPS     X2, 32(DI)
	MOVUPS     X3, 48(DI)
	MOVUPS     X4, 64(DI)
	MOVUPS     X5, 80(DI)
	MOVUPS     X6, 96(DI)
	MOVUPS     X7, 112(DI)
	ADDQ       $128, SI
	ADDQ       $128, DI
	SUBQ       $8, CX
	CMPQ       CX, $8
	JAE        decLoop8

decTail:
	TESTQ CX, CX
	JZ    decDone

decLoop1:
	MOVUPS     (SI), X0
	MOVAPS     X0, X1
	PXOR       X10, X0
	DEC1(16)
	DEC1(32)
	DEC1(48)
	DEC1(64)
	DEC1(80)
	DEC1(96)
	DEC1(112)
	DEC1(128)
	DEC1(144)
	DEC1(160)
	DEC1(176)
	DEC1(192)
	DEC1(208)
	AESDECLAST X11, X0
	PXOR       X9, X0
	MOVAPS     X1, X9
	MOVUPS     X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        decLoop1

decDone:
	RET

// ROUND4 applies round key off of each lane's schedule to that lane's
// state: lane l's schedule starts 240*l bytes into (AX) and its state
// is X(l). X4–X7 are the per-lane key scratch.
#define ROUND4(op, off) \
	MOVUPS off(AX), X4; \
	op     X4, X0; \
	MOVUPS (240+off)(AX), X5; \
	op     X5, X1; \
	MOVUPS (480+off)(AX), X6; \
	op     X6, X2; \
	MOVUPS (720+off)(AX), X7; \
	op     X7, X3

// func encrypt4CBCAsm(ks *[4]schedule, dst, src *[4]*byte, n int)
//
// Four CBC streams of n ≥ 1 blocks each, under four keys and the
// all-zero IV, in lockstep: the four AESENC chains are independent, so
// they fill the pipeline that one chain leaves idle. All four blocks
// of a step are loaded before any is stored, so each lane may have dst
// equal to src, and lanes may repeat one another exactly; they must not
// otherwise overlap.
TEXT ·encrypt4CBCAsm(SB), NOSPLIT, $0-32
	MOVQ ks+0(FP), AX
	MOVQ dst+8(FP), BX
	MOVQ src+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ (DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ (BX), R12
	MOVQ 8(BX), R13
	MOVQ 16(BX), SI
	MOVQ 24(BX), DI
	SHLQ $4, CX
	XORQ BX, BX
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3

enc4Loop:
	MOVUPS (R8)(BX*1), X4
	PXOR   X4, X0
	MOVUPS (R9)(BX*1), X5
	PXOR   X5, X1
	MOVUPS (R10)(BX*1), X6
	PXOR   X6, X2
	MOVUPS (R11)(BX*1), X7
	PXOR   X7, X3
	ROUND4(PXOR, 0)
	ROUND4(AESENC, 16)
	ROUND4(AESENC, 32)
	ROUND4(AESENC, 48)
	ROUND4(AESENC, 64)
	ROUND4(AESENC, 80)
	ROUND4(AESENC, 96)
	ROUND4(AESENC, 112)
	ROUND4(AESENC, 128)
	ROUND4(AESENC, 144)
	ROUND4(AESENC, 160)
	ROUND4(AESENC, 176)
	ROUND4(AESENC, 192)
	ROUND4(AESENC, 208)
	ROUND4(AESENCLAST, 224)
	MOVUPS X0, (R12)(BX*1)
	MOVUPS X1, (R13)(BX*1)
	MOVUPS X2, (SI)(BX*1)
	MOVUPS X3, (DI)(BX*1)
	ADDQ   $16, BX
	CMPQ   BX, CX
	JB     enc4Loop
	RET

// ECB1 applies the round key at off(AX) to the state X0 through the
// scratch register X15.
#define ECB1(op, off) \
	MOVUPS off(AX), X15; \
	op     X15, X0

// func encryptECBAsm(ks *schedule, dst, src *byte, n int)
//
// n ≥ 1 AES blocks, each enciphered on its own (the KDF's ECB). No
// block depends on another, so the CPU overlaps consecutive iterations
// without unrolling. Each block is read before it is written, so dst
// may equal src.
TEXT ·encryptECBAsm(SB), NOSPLIT, $0-32
	MOVQ ks+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

ecbLoop:
	MOVUPS     (SI), X0
	ECB1(PXOR, 0)
	ECB1(AESENC, 16)
	ECB1(AESENC, 32)
	ECB1(AESENC, 48)
	ECB1(AESENC, 64)
	ECB1(AESENC, 80)
	ECB1(AESENC, 96)
	ECB1(AESENC, 112)
	ECB1(AESENC, 128)
	ECB1(AESENC, 144)
	ECB1(AESENC, 160)
	ECB1(AESENC, 176)
	ECB1(AESENC, 192)
	ECB1(AESENC, 208)
	ECB1(AESENCLAST, 224)
	MOVUPS     X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        ecbLoop
	RET

// BCAST15 broadcasts each of the 15 round keys of the schedule at (AX)
// to all four 128-bit lanes of one of Z16–Z30.
#define BCAST15 \
	VBROADCASTI32X4 (AX), Z16; \
	VBROADCASTI32X4 16(AX), Z17; \
	VBROADCASTI32X4 32(AX), Z18; \
	VBROADCASTI32X4 48(AX), Z19; \
	VBROADCASTI32X4 64(AX), Z20; \
	VBROADCASTI32X4 80(AX), Z21; \
	VBROADCASTI32X4 96(AX), Z22; \
	VBROADCASTI32X4 112(AX), Z23; \
	VBROADCASTI32X4 128(AX), Z24; \
	VBROADCASTI32X4 144(AX), Z25; \
	VBROADCASTI32X4 160(AX), Z26; \
	VBROADCASTI32X4 176(AX), Z27; \
	VBROADCASTI32X4 192(AX), Z28; \
	VBROADCASTI32X4 208(AX), Z29; \
	VBROADCASTI32X4 224(AX), Z30

// VROUND4 applies the broadcast round key k to the states Z0–Z3.
#define VROUND4(op, k) \
	op k, Z0, Z0; \
	op k, Z1, Z1; \
	op k, Z2, Z2; \
	op k, Z3, Z3

// VROUNDS13 is the 13 middle rounds of the broadcast schedule on Z0–Z3.
#define VROUNDS13(op) \
	VROUND4(op, Z17); \
	VROUND4(op, Z18); \
	VROUND4(op, Z19); \
	VROUND4(op, Z20); \
	VROUND4(op, Z21); \
	VROUND4(op, Z22); \
	VROUND4(op, Z23); \
	VROUND4(op, Z24); \
	VROUND4(op, Z25); \
	VROUND4(op, Z26); \
	VROUND4(op, Z27); \
	VROUND4(op, Z28); \
	VROUND4(op, Z29)

// func decryptCBCVAES(ks *schedule, iv *[16]byte, dst, src *byte, n int)
//
// decryptCBCAsm for n ≥ 16, a multiple of 16: one CBC stream decrypted
// sixteen blocks a step, four to a ZMM register, under the decryption
// round keys broadcast once into Z16–Z30. Block i's plaintext is its
// decryption XOR ciphertext block i−1, so register j's chaining values
// are the last block of the register before it and its own first
// three: VALIGNQ $6 of the two. Z15 carries the step's last ciphertext
// register into the next step (at the start, the IV in its top block).
// All four ciphertext registers of a step are loaded before any
// plaintext is stored, so dst may equal src. On return *iv holds the
// last ciphertext block, the chaining value for a tail that follows.
TEXT ·decryptCBCVAES(SB), NOSPLIT, $0-40
	MOVQ            ks+0(FP), AX
	MOVQ            iv+8(FP), BX
	MOVQ            dst+16(FP), DI
	MOVQ            src+24(FP), SI
	MOVQ            n+32(FP), CX
	BCAST15
	VBROADCASTI32X4 (BX), Z15
	SHRQ            $4, CX

vdecLoop:
	VMOVDQU64 (SI), Z4
	VMOVDQU64 64(SI), Z5
	VMOVDQU64 128(SI), Z6
	VMOVDQU64 192(SI), Z7
	VALIGNQ   $6, Z15, Z4, Z8
	VALIGNQ   $6, Z4, Z5, Z9
	VALIGNQ   $6, Z5, Z6, Z10
	VALIGNQ   $6, Z6, Z7, Z11
	VMOVDQA64 Z7, Z15
	VPXORQ    Z16, Z4, Z0
	VPXORQ    Z16, Z5, Z1
	VPXORQ    Z16, Z6, Z2
	VPXORQ    Z16, Z7, Z3
	VROUNDS13(VAESDEC)
	VROUND4(VAESDECLAST, Z30)
	VPXORQ    Z8, Z0, Z0
	VPXORQ    Z9, Z1, Z1
	VPXORQ    Z10, Z2, Z2
	VPXORQ    Z11, Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DI
	DECQ      CX
	JNZ       vdecLoop
	VEXTRACTI32X4 $3, Z15, (BX)
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 matrix of 128-bit lanes in q0–q3 in
// place through the scratch Z20–Z23: afterwards lane j of qi is what
// lane i of qj was. Between lane rows (lane l's 64 bytes in one
// register) and CBC steps (block j of four lanes in one register) it is
// its own inverse.
#define TRANSPOSE4(q0, q1, q2, q3) \
	VSHUFI64X2 $0x44, q1, q0, Z20; \
	VSHUFI64X2 $0xee, q1, q0, Z21; \
	VSHUFI64X2 $0x44, q3, q2, Z22; \
	VSHUFI64X2 $0xee, q3, q2, Z23; \
	VSHUFI64X2 $0x88, Z22, Z20, q0; \
	VSHUFI64X2 $0xdd, Z22, Z20, q1; \
	VSHUFI64X2 $0x88, Z23, Z21, q2; \
	VSHUFI64X2 $0xdd, Z23, Z21, q3

// LROUND applies round r of every lane to the states Z16–Z19: lanes
// 4g..4g+3 are state Z(16+g), and their round keys are the 64 bytes at
// r*256 + g*64 of the lanes schedule at (AX).
#define LROUND(op, r) \
	op (r*256)(AX), Z16, Z16; \
	op (r*256+64)(AX), Z17, Z17; \
	op (r*256+128)(AX), Z18, Z18; \
	op (r*256+192)(AX), Z19, Z19

// LSTEP is one CBC step of all 16 lanes: a, b, c and d hold the next
// plaintext block of lanes 0–3, 4–7, 8–11 and 12–15. Each state takes
// its block and round key 0 in one three-way XOR, runs the rounds, and
// is copied back over the plaintext as this step's ciphertext (and
// stays as the next step's chaining value).
#define LSTEP(a, b, c, d) \
	VPTERNLOGQ $0x96, (AX), a, Z16;    \
	VPTERNLOGQ $0x96, 64(AX), b, Z17;  \
	VPTERNLOGQ $0x96, 128(AX), c, Z18; \
	VPTERNLOGQ $0x96, 192(AX), d, Z19; \
	LROUND(VAESENC, 1);                \
	LROUND(VAESENC, 2);                \
	LROUND(VAESENC, 3);                \
	LROUND(VAESENC, 4);                \
	LROUND(VAESENC, 5);                \
	LROUND(VAESENC, 6);                \
	LROUND(VAESENC, 7);                \
	LROUND(VAESENC, 8);                \
	LROUND(VAESENC, 9);                \
	LROUND(VAESENC, 10);               \
	LROUND(VAESENC, 11);               \
	LROUND(VAESENC, 12);               \
	LROUND(VAESENC, 13);               \
	LROUND(VAESENCLAST, 14);           \
	VMOVDQA64  Z16, a;                 \
	VMOVDQA64  Z17, b;                 \
	VMOVDQA64  Z18, c;                 \
	VMOVDQA64  Z19, d

// LLOAD reads lane l's next 64-byte row into r.
#define LLOAD(l, r) \
	MOVQ      (8*l)(SI), R9; \
	VMOVDQU64 (R9)(DX*1), r

// LSTORE writes r as lane l's next 64-byte row.
#define LSTORE(l, r) \
	MOVQ      (8*l)(DI), R9; \
	VMOVDQU64 r, (R9)(DX*1)

// func encrypt16CBCVAES(ks *lanesSchedule, dst, src *[HashLanes]*byte, rows int)
//
// Sixteen CBC streams of rows ≥ 1 rows of 64 bytes (four AES blocks)
// each, under sixteen keys and the all-zero IV, in lockstep: four ZMM
// states of four lanes each, so every round is four independent VAESENC
// chains. A step reads one row of every lane into Z0–Z15 and transposes
// each group of four rows so that Z(4g+j) holds block j of lanes
// 4g..4g+3; four CBC steps encrypt the blocks in place, and the
// transpose turns them back into rows. All rows of a step are read
// before any is written, so each lane may have dst equal to src, and
// lanes may repeat one another exactly; they must not otherwise
// overlap.
TEXT ·encrypt16CBCVAES(SB), NOSPLIT, $0-32
	MOVQ   ks+0(FP), AX
	MOVQ   dst+8(FP), DI
	MOVQ   src+16(FP), SI
	MOVQ   rows+24(FP), CX
	XORQ   DX, DX
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19

enc16Loop:
	LLOAD(0, Z0)
	LLOAD(1, Z1)
	LLOAD(2, Z2)
	LLOAD(3, Z3)
	LLOAD(4, Z4)
	LLOAD(5, Z5)
	LLOAD(6, Z6)
	LLOAD(7, Z7)
	LLOAD(8, Z8)
	LLOAD(9, Z9)
	LLOAD(10, Z10)
	LLOAD(11, Z11)
	LLOAD(12, Z12)
	LLOAD(13, Z13)
	LLOAD(14, Z14)
	LLOAD(15, Z15)
	TRANSPOSE4(Z0, Z1, Z2, Z3)
	TRANSPOSE4(Z4, Z5, Z6, Z7)
	TRANSPOSE4(Z8, Z9, Z10, Z11)
	TRANSPOSE4(Z12, Z13, Z14, Z15)
	LSTEP(Z0, Z4, Z8, Z12)
	LSTEP(Z1, Z5, Z9, Z13)
	LSTEP(Z2, Z6, Z10, Z14)
	LSTEP(Z3, Z7, Z11, Z15)
	TRANSPOSE4(Z0, Z1, Z2, Z3)
	TRANSPOSE4(Z4, Z5, Z6, Z7)
	TRANSPOSE4(Z8, Z9, Z10, Z11)
	TRANSPOSE4(Z12, Z13, Z14, Z15)
	LSTORE(0, Z0)
	LSTORE(1, Z1)
	LSTORE(2, Z2)
	LSTORE(3, Z3)
	LSTORE(4, Z4)
	LSTORE(5, Z5)
	LSTORE(6, Z6)
	LSTORE(7, Z7)
	LSTORE(8, Z8)
	LSTORE(9, Z9)
	LSTORE(10, Z10)
	LSTORE(11, Z11)
	LSTORE(12, Z12)
	LSTORE(13, Z13)
	LSTORE(14, Z14)
	LSTORE(15, Z15)
	ADDQ   $64, DX
	DECQ   CX
	JNZ    enc16Loop
	VZEROUPPER
	RET
