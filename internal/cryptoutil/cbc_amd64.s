// Copyright 2012 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the GO-LICENSE file.

//go:build !purego

// AES-256-CBC kernel for Equation 2 (see cbc_amd64.go). The key
// expansion is the 256-bit path of the Go standard library's
// crypto/aes aes_amd64.s with its helper calls written out as macros;
// the three CBC loops are this package's own. Only SSE, SSE2 and
// AES-NI encodings are used, so CPUID leaf 1 ECX bit 25 is the one
// feature check.
//
// A schedule is 15 round keys of 16 bytes, in the byte order AESENC
// and AESDEC take. Memory operands of legacy SSE instructions must be
// 16-byte aligned and Go only aligns a stack array to 8, so every
// round key and data block is loaded with MOVUPS first.

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
	MOVUPS          X0, off(BX)

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
	MOVUPS          X2, off(BX)

// EXPAND256 writes the encryption schedule of the 32-byte key at (AX)
// to (BX).
#define EXPAND256 \
	MOVUPS (AX), X0; \
	MOVUPS 16(AX), X2; \
	MOVUPS X0, (BX); \
	MOVUPS X2, 16(BX); \
	PXOR   X4, X4; \
	EXPAND_A(0x01, 32); \
	EXPAND_B(48); \
	EXPAND_A(0x02, 64); \
	EXPAND_B(80); \
	EXPAND_A(0x04, 96); \
	EXPAND_B(112); \
	EXPAND_A(0x08, 128); \
	EXPAND_B(144); \
	EXPAND_A(0x10, 160); \
	EXPAND_B(176); \
	EXPAND_A(0x20, 192); \
	EXPAND_B(208); \
	EXPAND_A(0x40, 224)

// func expandKeyEnc(key *Key, ks *schedule)
TEXT ·expandKeyEnc(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ ks+8(FP), BX
	EXPAND256
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
	EXPAND256
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
// they fill the pipeline that one chain leaves idle. Each lane may
// have dst equal to src; lanes must not overlap one another.
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

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET
