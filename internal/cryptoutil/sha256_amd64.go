//go:build amd64 && !purego

package cryptoutil

import (
	"crypto/sha256"
	"encoding/binary"
)

// avx512 reports whether EVEX instructions on ZMM registers can run:
// the CPU has AVX-512 F, and the OS saves the opmask and all 32 ZMM
// registers (XCR0 bits 1, 2, 5, 6 and 7), without which any EVEX
// instruction faults. The hash kernel and the VAES loops (useVAES)
// share it.
var avx512 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return xgetbv0()&zmmState == zmmState && cpuid7EBX&(1<<16) != 0
}()

// cpuid7EBX and cpuid7ECX are the extended feature flags,
// CPUID.(EAX=7,ECX=0). They are only read after avx512 checked that the
// leaf exists.
var _, cpuid7EBX, cpuid7ECX, _ = cpuid(7, 0)

// useHashKernel reports whether the 16-lane kernel can run: avx512, and
// AVX-512 BW for VPSHUFB on ZMM.
var useHashKernel = avx512 && cpuid7EBX&(1<<30) != 0

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

// sha256x16 runs chunks 64-byte chunks of each of HashLanes streams
// through the compression function: lane l reads ptrs[l][64*i:] for
// chunk i, and word w of its state is state[w][l], before and after.
//
//go:noescape
func sha256x16(state *[8][HashLanes]uint32, ptrs *[HashLanes]*byte, chunks int)

// sha256IV is FIPS 180-4's initial hash value H(0).
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// hashLanes hashes 1..HashLanes blocks of one length in one pass of the
// kernel over their whole chunks and one over their padded tails. Idle
// lanes re-read lane 0's bytes; their digests are dropped.
func hashLanes(dst []Hash, src [][]byte) {
	var (
		state [8][HashLanes]uint32
		ptrs  [HashLanes]*byte
		tails [HashLanes][2 * sha256.BlockSize]byte
	)
	for w, v := range sha256IV {
		for l := range HashLanes {
			state[w][l] = v
		}
	}
	size := len(src[0])
	whole := size / sha256.BlockSize
	if whole > 0 {
		for l := range ptrs {
			ptrs[l] = &src[l%len(src)][0]
		}
		sha256x16(&state, &ptrs, whole)
	}
	// The tail is the bytes after the last whole chunk, 0x80, zeros and
	// the message length in bits: one chunk, or two when fewer than 9
	// bytes are left after the data. Without trailing bytes every lane
	// of one length has the same padding chunk, so they share one.
	rest := size - whole*sha256.BlockSize
	tailChunks := 1
	if rest >= sha256.BlockSize-8 {
		tailChunks = 2
	}
	end := tailChunks * sha256.BlockSize
	padded := 1
	if rest > 0 {
		padded = len(src)
	}
	for l := range padded {
		t := &tails[l]
		copy(t[:], src[l][whole*sha256.BlockSize:])
		t[rest] = 0x80
		binary.BigEndian.PutUint64(t[end-8:end], uint64(size)<<3)
	}
	for l := range ptrs {
		ptrs[l] = &tails[l%padded][0]
	}
	sha256x16(&state, &ptrs, tailChunks)
	for l := range dst {
		for w := range state {
			binary.BigEndian.PutUint32(dst[l][4*w:], state[w][l])
		}
	}
}
