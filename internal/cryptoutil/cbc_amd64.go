//go:build amd64 && !purego

package cryptoutil

import "crypto/aes"

// schedule is an expanded AES-256 key: 15 round keys of one AES block
// each, as AESENC (encryption) or AESDEC (decryption) takes them. It
// lives on the caller's stack; the kernel never keeps one.
type schedule [15 * aes.BlockSize]byte

// useKernel reports whether the CPU has AES-NI (CPUID.1:ECX bit 25).
// The kernel uses SSE2 and AES-NI only, and SSE2 is part of amd64.
var useKernel = cpuid1ECX()&(1<<25) != 0

func cpuid1ECX() uint32

//go:noescape
func expandKeyEnc(key *Key, ks *schedule)

//go:noescape
func expandKeyDec(key *Key, ks *schedule)

//go:noescape
func encryptCBCAsm(ks *schedule, iv *[aes.BlockSize]byte, dst, src *byte, n int)

//go:noescape
func decryptCBCAsm(ks *schedule, iv *[aes.BlockSize]byte, dst, src *byte, n int)

//go:noescape
func encrypt4CBCAsm(ks *[Lanes]schedule, dst, src *[Lanes]*byte, n int)

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

// decryptCBC inverts encryptCBC.
func decryptCBC(dst, src []byte, key *Key, iv *[aes.BlockSize]byte) {
	if !useKernel {
		decryptCBCStdlib(dst, src, *key, *iv)
		return
	}
	var ks schedule
	expandKeyDec(key, &ks)
	decryptCBCAsm(&ks, iv, &dst[0], &src[0], len(src)/aes.BlockSize)
}

// encryptLanes encrypts Lanes streams under the fixed IV: the prefix
// all four share runs through the 4-lane loop, and each longer lane
// finishes single-stream from its last ciphertext block, which is
// exactly the chaining value CBC continues from.
func encryptLanes(dst, src [][]byte, keys []Key) {
	if !useKernel {
		for i := range src {
			encryptCBCStdlib(dst[i], src[i], keys[i], fixedIV)
		}
		return
	}
	n := min(len(src[0]), len(src[1]), len(src[2]), len(src[3]))
	var (
		ks   [Lanes]schedule
		d, s [Lanes]*byte
	)
	for l := range Lanes {
		expandKeyEnc(&keys[l], &ks[l])
		d[l], s[l] = &dst[l][0], &src[l][0]
	}
	encrypt4CBCAsm(&ks, &d, &s, n/aes.BlockSize)
	for l := range Lanes {
		if rest := len(src[l]) - n; rest > 0 {
			iv := (*[aes.BlockSize]byte)(dst[l][n-aes.BlockSize : n])
			encryptCBCAsm(&ks[l], iv, &dst[l][n], &src[l][n], rest/aes.BlockSize)
		}
	}
}
