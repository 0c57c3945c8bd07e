package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"unsafe"
)

// fixedIV is the invariant initialization vector used for convergent
// data-block encryption (paper footnote 2: convergent encryption uses
// an invariant IV to preserve data equality in the ciphertext).
var fixedIV [aes.BlockSize]byte

// Lanes is how many blocks the AES-NI multi-buffer loop encrypts side
// by side. EncryptBlocksCBC takes up to HashLanes blocks a pass: with
// VAES, groups of at least vaesCrossover blocks go through the 16-lane
// loop; smaller groups, and every group on a CPU without VAES, go
// through the AES-NI loop Lanes at a time.
const Lanes = 4

// vaesCrossover is the fewest lanes EncryptBlocksCBC hands the 16-lane
// VAES loop, which costs the same with 1 or HashLanes lanes busy; below
// it they go through the AES-NI loop. One pass of the 16-lane loop
// costs about what two passes of the 4-lane one do, eight 4 KiB blocks
// (BenchmarkCBCEncryptLanes), so the 16-lane loop wins from nine lanes.
const vaesCrossover = 9

// schedule is an expanded AES-256 key: 15 round keys of one AES block
// each, as AESENC (encryption) or AESDEC (decryption) takes them. The
// kernels never keep one; CEKeyDeriver keeps the inner key's.
type schedule [15 * aes.BlockSize]byte

// EncryptBlockCBC implements the paper's Equation (2):
//
//	CipherBlock_i = E_AES(Block_i, CEKey_i, IV_fixed)
//
// AES-256-CBC with the fixed IV. dst and src must be the same length,
// a positive multiple of 16 bytes; dst and src may alias.
func EncryptBlockCBC(dst, src []byte, key Key) error {
	if err := checkCBC(dst, src); err != nil {
		return err
	}
	encryptCBC(dst, src, &key, &fixedIV)
	return nil
}

// DecryptBlockCBC inverts EncryptBlockCBC.
func DecryptBlockCBC(dst, src []byte, key Key) error {
	if err := checkCBC(dst, src); err != nil {
		return err
	}
	decryptCBC(dst, src, &key, &fixedIV)
	return nil
}

// EncryptBlocksCBC is EncryptBlockCBC over many blocks at once: lane i
// encrypts src[i] into dst[i] under keys[i]. Each lane obeys
// EncryptBlockCBC's rules, and lanes may differ in length but must not
// overlap one another. Every convergent block is its own CBC stream, so
// the lanes are independent: they go up to HashLanes at a time through
// the multi-buffer loops, which run the prefix a group shares in
// lockstep and finish each longer lane on its own. Nothing is written
// unless every lane is valid.
func EncryptBlocksCBC(dst, src [][]byte, keys []Key) error {
	if len(dst) != len(src) || len(keys) != len(src) {
		return fmt.Errorf("%w: %d dst, %d src, %d keys", ErrBadLength, len(dst), len(src), len(keys))
	}
	for i := range src {
		if err := checkCBC(dst[i], src[i]); err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
	}
	for len(src) > 0 {
		n := min(len(src), HashLanes)
		encryptLanes(dst[:n], src[:n], keys[:n])
		dst, src, keys = dst[n:], src[n:], keys[n:]
	}
	return nil
}

// EncryptBlockCBCIV is EncryptBlockCBC with a caller-supplied IV. It is
// used by the conventional-encryption baseline (internal/encfs), which
// derives a distinct IV per block so that equal plaintext does NOT
// yield equal ciphertext.
func EncryptBlockCBCIV(dst, src []byte, key Key, iv [aes.BlockSize]byte) error {
	if err := checkCBC(dst, src); err != nil {
		return err
	}
	encryptCBC(dst, src, &key, &iv)
	return nil
}

// DecryptBlockCBCIV inverts EncryptBlockCBCIV.
func DecryptBlockCBCIV(dst, src []byte, key Key, iv [aes.BlockSize]byte) error {
	if err := checkCBC(dst, src); err != nil {
		return err
	}
	decryptCBC(dst, src, &key, &iv)
	return nil
}

// checkCBC enforces the rules every CBC entry point shares. Like
// crypto/cipher, it panics on a dst that overlaps src other than
// exactly.
func checkCBC(dst, src []byte) error {
	if len(src) == 0 || len(src)%aes.BlockSize != 0 {
		return fmt.Errorf("%w: CBC payload %d bytes", ErrBadLength, len(src))
	}
	if len(dst) != len(src) {
		return fmt.Errorf("%w: dst %d bytes, src %d bytes", ErrBadLength, len(dst), len(src))
	}
	d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
	if d != s && d < s+uintptr(len(src)) && s < d+uintptr(len(dst)) {
		panic("cryptoutil: invalid buffer overlap")
	}
	return nil
}

// encryptCBCStdlib and decryptCBCStdlib are Equation 2 on crypto/cipher:
// the whole implementation where the kernel does not run, and the
// definition the kernel is tested against. key and iv are copies so
// that the kernel path's own stay on the stack.
func encryptCBCStdlib(dst, src []byte, key Key, iv [aes.BlockSize]byte) {
	cipher.NewCBCEncrypter(newAESCipher(&key), iv[:]).CryptBlocks(dst, src)
}

func decryptCBCStdlib(dst, src []byte, key Key, iv [aes.BlockSize]byte) {
	cipher.NewCBCDecrypter(newAESCipher(&key), iv[:]).CryptBlocks(dst, src)
}

// newAESCipher is crypto/aes under key, whose length cannot be wrong.
func newAESCipher(key *Key) cipher.Block {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic("cryptoutil: aes.NewCipher: " + err.Error())
	}
	return c
}

// ecbStdlib is the KDF's ECB on crypto/aes, where the kernel does not
// run. Each block goes through a buffer of its own: a slice handed to
// cipher.Block escapes, and the caller's arrays must not, so that the
// kernel path allocates nothing.
func (d *CEKeyDeriver) ecbStdlib(dst, src []byte) {
	var b [aes.BlockSize]byte
	for i := 0; i < len(src); i += aes.BlockSize {
		copy(b[:], src[i:])
		d.c.Encrypt(b[:], b[:])
		copy(dst[i:], b[:])
	}
}
