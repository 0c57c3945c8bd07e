//go:build amd64 && !purego

package cryptoutil

import "crypto/aes"

// useKernel reports whether the CPU has AES-NI (CPUID.1:ECX bit 25).
// The AES-NI loops use SSE2 and AES-NI only, and SSE2 is part of amd64.
var useKernel = func() bool {
	_, _, c, _ := cpuid(1, 0)
	return c&(1<<25) != 0
}()

// useVAES reports whether the ZMM loops can run as well: VAES
// (CPUID.(7,0):ECX bit 9) on top of AES-NI and the AVX-512 check the
// hash kernel shares (avx512). Tests turn it off to keep the AES-NI
// loops covered on a VAES host.
var useVAES = useKernel && avx512 && cpuid7ECX&(1<<9) != 0

//go:noescape
func expandKeyEnc(key *Key, ks *schedule)

//go:noescape
func expandKeyEncLane(key *Key, ks *byte)

//go:noescape
func expandKeyDec(key *Key, ks *schedule)

//go:noescape
func encryptCBCAsm(ks *schedule, iv *[aes.BlockSize]byte, dst, src *byte, n int)

//go:noescape
func decryptCBCAsm(ks *schedule, iv *[aes.BlockSize]byte, dst, src *byte, n int)

//go:noescape
func decryptCBCVAES(ks *schedule, iv *[aes.BlockSize]byte, dst, src *byte, n int)

//go:noescape
func encrypt4CBCAsm(ks *[Lanes]schedule, dst, src *[Lanes]*byte, n int)

//go:noescape
func encrypt16CBCVAES(ks *lanesSchedule, dst, src *[HashLanes]*byte, rows int)

//go:noescape
func encryptECBAsm(ks *schedule, dst, src *byte, n int)

// lanesSchedule is the 16-lane loop's key schedules, interleaved: round
// r of lanes 4g..4g+3 is the 64 bytes [r][g], the operand of one
// VAESENC on the ZMM register that carries those four lanes.
type lanesSchedule [15][HashLanes / 4][4 * aes.BlockSize]byte

// encryptCBC runs one CBC stream. The caller has checked the lengths.
func encryptCBC(dst, src []byte, key *Key, iv *[aes.BlockSize]byte) {
	if !useKernel {
		encryptCBCStdlib(dst, src, *key, *iv)
		return
	}
	var ks schedule
	expandKeyEnc(key, &ks)
	encryptCBCAsm(&ks, iv, &dst[0], &src[0], len(src)/aes.BlockSize)
}

// decryptCBC inverts encryptCBC: with VAES, the whole 256-byte steps go
// through the ZMM loop and a shorter tail (a compressed payload's)
// through the AES-NI loop, chained from the last ciphertext block.
func decryptCBC(dst, src []byte, key *Key, iv *[aes.BlockSize]byte) {
	if !useKernel {
		decryptCBCStdlib(dst, src, *key, *iv)
		return
	}
	var ks schedule
	expandKeyDec(key, &ks)
	n := len(src) / aes.BlockSize
	if wide := n &^ 15; useVAES && wide > 0 {
		chain := *iv
		decryptCBCVAES(&ks, &chain, &dst[0], &src[0], wide)
		if wide < n {
			off := wide * aes.BlockSize
			decryptCBCAsm(&ks, &chain, &dst[off], &src[off], n-wide)
		}
		return
	}
	decryptCBCAsm(&ks, iv, &dst[0], &src[0], n)
}

// encryptLanes encrypts 1..HashLanes streams under the fixed IV: at
// least vaesCrossover of them through the 16-lane loop, otherwise up to
// Lanes at a time through the 4-lane one (a group of two or three
// costs what four do, and less than as many single streams) and a last
// one single-stream.
func encryptLanes(dst, src [][]byte, keys []Key) {
	switch {
	case !useKernel:
		for i := range src {
			encryptCBCStdlib(dst[i], src[i], keys[i], fixedIV)
		}
	case useVAES && len(src) >= vaesCrossover:
		encrypt16(dst, src, keys)
	default:
		for len(src) > 1 {
			n := min(len(src), Lanes)
			encrypt4(dst[:n], src[:n], keys[:n])
			dst, src, keys = dst[n:], src[n:], keys[n:]
		}
		if len(src) == 1 {
			encryptCBC(dst[0], src[0], &keys[0], &fixedIV)
		}
	}
}

// encrypt4 runs 1..Lanes streams through the 4-lane loop, the lanes past
// len(src) repeating lane 0: the prefix all of them share in lockstep,
// and each longer lane finishes single-stream from its last ciphertext
// block, which is exactly the chaining value CBC continues from.
func encrypt4(dst, src [][]byte, keys []Key) {
	var (
		ks   [Lanes]schedule
		d, s [Lanes]*byte
	)
	n := len(src[0])
	for l := range Lanes {
		i := l
		if i >= len(src) {
			i = 0
		}
		n = min(n, len(src[i]))
		expandKeyEnc(&keys[i], &ks[l])
		d[l], s[l] = &dst[i][0], &src[i][0]
	}
	encrypt4CBCAsm(&ks, &d, &s, n/aes.BlockSize)
	for i := range src {
		finishLane(dst[i], src[i], n, &ks[i])
	}
}

// encrypt16 runs 1..HashLanes streams through the 16-lane loop, the
// lanes past len(src) repeating lane 0: the whole 64-byte rows all of
// them share in lockstep, and each lane's rest single-stream.
func encrypt16(dst, src [][]byte, keys []Key) {
	var (
		lks  lanesSchedule
		d, s [HashLanes]*byte
	)
	n := len(src[0])
	for l := range HashLanes {
		i := l
		if i >= len(src) {
			i = 0
		}
		n = min(n, len(src[i]))
		expandKeyEncLane(&keys[i], &lks[0][l/4][l%4*aes.BlockSize])
		d[l], s[l] = &dst[i][0], &src[i][0]
	}
	done := n / (4 * aes.BlockSize) * (4 * aes.BlockSize)
	if done > 0 {
		encrypt16CBCVAES(&lks, &d, &s, done/(4*aes.BlockSize))
	}
	var ks schedule
	for i := range src {
		if len(src[i]) > done {
			expandKeyEnc(&keys[i], &ks)
			finishLane(dst[i], src[i], done, &ks)
		}
	}
}

// finishLane encrypts src[done:] of a lane whose first done bytes are
// already in dst, chained from the last of them (or the fixed IV).
func finishLane(dst, src []byte, done int, ks *schedule) {
	rest := len(src) - done
	if rest == 0 {
		return
	}
	iv := &fixedIV
	if done > 0 {
		iv = (*[aes.BlockSize]byte)(dst[done-aes.BlockSize : done])
	}
	encryptCBCAsm(ks, iv, &dst[done], &src[done], rest/aes.BlockSize)
}

// init expands the inner key's schedule once: the kernel's, or
// crypto/aes's without AES-NI.
func (d *CEKeyDeriver) init(inner *Key) {
	if !useKernel {
		d.c = newAESCipher(inner)
		return
	}
	expandKeyEnc(inner, &d.ks)
}

// ecb enciphers the AES blocks of src into dst under the inner key.
func (d *CEKeyDeriver) ecb(dst, src []byte) {
	if !useKernel {
		d.ecbStdlib(dst, src)
		return
	}
	encryptECBAsm(&d.ks, &dst[0], &src[0], len(src)/aes.BlockSize)
}
