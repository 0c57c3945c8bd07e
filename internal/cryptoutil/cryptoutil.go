// Package cryptoutil implements the cryptographic primitives Lamassu
// is built from (paper §2.2):
//
//   - SHA-256 block hashing (H).
//   - The convergent key-derivation function
//     CEKey = E_AES256(Kin, H(Block)) — the 32-byte hash is enciphered
//     with AES-256-ECB under the secret inner key. This is a
//     deterministic KDF: equal plaintext blocks under the same inner
//     key always derive the same convergent key, and without Kin an
//     attacker cannot derive keys even from guessed plaintext
//     (the paper's defence against the chosen-plaintext attack).
//   - Convergent data-block encryption: AES-256-CBC with a fixed
//     (all-zero) initialization vector, so equal plaintext yields
//     equal ciphertext (the deduplication property).
//   - Metadata sealing: AES-256-GCM under the outer key with a random
//     nonce, providing both confidentiality and the per-metadata-block
//     message authentication tag from Figure 3.
//
// Equation 2 and the KDF have their own kernels on amd64 CPUs with
// AES-NI (cbc_amd64.s): single-stream CBC encryption with the round keys
// in registers, pipelined CBC decryption, a 4-lane encryption that runs
// four blocks' CBC streams under four keys at once (EncryptBlocksCBC),
// and the KDF's ECB over a whole group of hashes (DeriveKeys). Where the
// CPU also has VAES and AVX-512, the same work runs four AES blocks per
// ZMM instruction: decryption sixteen blocks a step and a 16-lane
// encryption for groups of at least vaesCrossover blocks; the KDF stays
// on its AES-NI pass. Without AES-NI, off amd64, and under the
// purego build tag, they run on crypto/cipher instead. Equation 1's
// hash has one too on amd64 CPUs with AVX-512 (sha256_amd64.s): a
// 16-lane SHA-256 that hashes up to HashLanes equal-length blocks in
// lockstep (BlockHashes); elsewhere, and for fewer blocks than its
// crossover, it is crypto/sha256. The cipher, the KDF and the hash are
// format; their kernels are not: TestCBCMatchesStdlib,
// TestDeriveKeysMatchDeriveCEKey and TestBlockHashesMatchStdlib hold
// them to crypto/cipher, crypto/aes and crypto/sha256 byte for byte.
// Every other primitive comes from the Go standard library, which uses
// AES-NI and the SHA extensions where the CPU has them, mirroring the
// paper's use of Intel AES-NI and AVX SHA-256.
package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"unsafe"
)

// KeySize is the size in bytes of every key in the system: the inner
// key, the outer key, and each derived convergent key (AES-256).
const KeySize = 32

// HashSize is the size of the per-block convergent hash (SHA-256).
const HashSize = sha256.Size

// GCMNonceSize is the nonce length used for metadata sealing.
const GCMNonceSize = 12

// GCMTagSize is the AES-GCM authentication tag length.
const GCMTagSize = 16

// Key is a 256-bit symmetric key.
type Key [KeySize]byte

// Hash is a SHA-256 digest of a data block.
type Hash [HashSize]byte

// ErrAuth is returned when AES-GCM authentication of a metadata block
// fails, indicating corruption or tampering.
var ErrAuth = errors.New("cryptoutil: metadata authentication failed")

// ErrBadLength reports an input whose length is not compatible with
// the requested operation (for example a CBC payload that is not a
// multiple of the AES block size).
var ErrBadLength = errors.New("cryptoutil: bad input length")

// NewRandomKey generates a fresh random key using crypto/rand.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("cryptoutil: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies a 32-byte slice into a Key.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("%w: key must be %d bytes, got %d", ErrBadLength, KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// Equal reports whether two keys are identical, in constant time.
func (k Key) Equal(other Key) bool { return hmac.Equal(k[:], other[:]) }

// IsZero reports whether the key is all zero bytes. The all-zero key is
// used as the "empty slot" sentinel in metadata key tables; SHA-256 of
// any block is never all zeroes in practice, and the KDF output being
// all zero has probability 2^-256.
func (k Key) IsZero() bool {
	var zero Key
	return k == zero
}

// Zero wipes the key material in place.
func (k *Key) Zero() {
	for i := range k {
		k[i] = 0
	}
}

// BlockHash computes H(block): the SHA-256 digest of a plaintext data
// block.
func BlockHash(block []byte) Hash { return sha256.Sum256(block) }

// HashLanes is how many blocks BlockHashes hashes side by side; a
// caller that groups blocks in runs of up to HashLanes gives every run
// one pass of the multi-buffer loop.
const HashLanes = 16

// hashCrossover is the fewest equal-length blocks that BlockHashes
// hands the multi-buffer loop, which costs the same with 1 or
// HashLanes lanes busy. Below it each block takes crypto/sha256 alone.
const hashCrossover = 8

// BlockHashes is BlockHash over many blocks at once: dst[i] becomes
// the SHA-256 digest of src[i]. Blocks of one length go HashLanes at a
// time through the multi-buffer loop where the CPU runs it; fewer than
// hashCrossover, and blocks of differing lengths, are hashed one by one.
// It panics unless len(dst) == len(src).
func BlockHashes(dst []Hash, src [][]byte) {
	if len(dst) != len(src) {
		panic("cryptoutil: BlockHashes: len(dst) != len(src)")
	}
	for useHashKernel && len(src) >= hashCrossover {
		n := min(len(src), HashLanes)
		if !sameLength(src[:n]) {
			break
		}
		hashLanes(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	for i, b := range src {
		dst[i] = sha256.Sum256(b)
	}
}

func sameLength(src [][]byte) bool {
	for _, b := range src[1:] {
		if len(b) != len(src[0]) {
			return false
		}
	}
	return true
}

// Hasher incrementally hashes data; used by the workload verifiers.
func Hasher() interface {
	Write(p []byte) (int, error)
	Sum(b []byte) []byte
} {
	return sha256.New()
}

// DeriveCEKey implements the paper's Equation (1):
//
//	CEKey_i = F(H(Block_i), Kin)
//
// where F enciphers the 32-byte hash with AES-256 under the inner key.
// The two 16-byte halves of the hash are enciphered independently
// (ECB over exactly two blocks). ECB is safe here because the "message"
// is a fixed-length, high-entropy digest and the construction is used
// strictly as a PRF-style KDF, never for bulk confidentiality.
func DeriveCEKey(h Hash, inner Key) Key {
	c := newAESCipher(&inner)
	var out Key
	c.Encrypt(out[0:16], h[0:16])
	c.Encrypt(out[16:32], h[16:32])
	return out
}

// CEKeyForBlock hashes the plaintext block and derives its convergent
// key in one call.
func CEKeyForBlock(block []byte, inner Key) Key {
	return DeriveCEKey(BlockHash(block), inner)
}

// CEKeyDeriver is a convergent KDF with the inner-key AES schedule
// expanded once. The inner key never changes over the life of an FS,
// so deriving through a CEKeyDeriver avoids the per-block key expansion
// that DeriveCEKey pays on every call. On amd64 with AES-NI the
// schedule is the in-tree kernel's, and Derive and DeriveKeys allocate
// nothing; elsewhere it is crypto/aes's. Safe for concurrent use (the
// schedule is read-only after NewCEKeyDeriver).
type CEKeyDeriver struct {
	ks schedule     // the kernel's
	c  cipher.Block // crypto/aes's, where the kernel does not run
}

// NewCEKeyDeriver expands the inner key's AES schedule for reuse.
func NewCEKeyDeriver(inner Key) *CEKeyDeriver {
	d := new(CEKeyDeriver)
	d.init(&inner)
	return d
}

// Derive returns CEKey = E_AES(Kin, h), identically to DeriveCEKey.
func (d *CEKeyDeriver) Derive(h Hash) Key {
	var out Key
	d.ecb(out[:], h[:])
	return out
}

// DeriveKeys is Derive over a group: keys[i] becomes the convergent key
// of hs[i]. The two AES blocks of every hash are independent, so the
// whole group is one ECB pass, whose iterations the CPU overlaps. It
// panics unless len(keys) == len(hs).
func (d *CEKeyDeriver) DeriveKeys(keys []Key, hs []Hash) {
	if len(keys) != len(hs) {
		panic("cryptoutil: DeriveKeys: len(keys) != len(hs)")
	}
	if len(hs) == 0 {
		return
	}
	d.ecb(unsafe.Slice(&keys[0][0], len(keys)*KeySize), unsafe.Slice(&hs[0][0], len(hs)*HashSize))
}

// NewNonce returns a fresh random GCM nonce (IV_rand in Equation 3).
func NewNonce() ([GCMNonceSize]byte, error) {
	var n [GCMNonceSize]byte
	if _, err := rand.Read(n[:]); err != nil {
		return n, fmt.Errorf("cryptoutil: generating nonce: %w", err)
	}
	return n, nil
}

// SealMeta implements the paper's Equation (3):
//
//	CipherMeta_i = E_AES(Meta_i, Kout, IV_rand)
//
// using AES-256-GCM. The returned ciphertext has the same length as
// the plaintext; the 16-byte authentication tag is returned separately
// so the caller can place nonce, tag and ciphertext at the exact
// on-disk offsets of Figure 3. aad binds additional context (unused by
// the current layout, which seals the segment index inside the
// payload instead; kept for forward compatibility).
func SealMeta(plaintext []byte, outer Key, nonce [GCMNonceSize]byte, aad []byte) (ciphertext []byte, tag [GCMTagSize]byte, err error) {
	g, err := newGCM(outer)
	if err != nil {
		return nil, tag, err
	}
	sealed := g.Seal(nil, nonce[:], plaintext, aad)
	if len(sealed) != len(plaintext)+GCMTagSize {
		return nil, tag, fmt.Errorf("cryptoutil: unexpected sealed length %d", len(sealed))
	}
	copy(tag[:], sealed[len(plaintext):])
	return sealed[:len(plaintext)], tag, nil
}

// OpenMeta authenticates and decrypts a metadata payload sealed by
// SealMeta. It returns ErrAuth if the tag does not verify.
func OpenMeta(ciphertext []byte, outer Key, nonce [GCMNonceSize]byte, tag [GCMTagSize]byte, aad []byte) ([]byte, error) {
	g, err := newGCM(outer)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(ciphertext)+GCMTagSize)
	buf = append(buf, ciphertext...)
	buf = append(buf, tag[:]...)
	plain, err := g.Open(nil, nonce[:], buf, aad)
	if err != nil {
		return nil, ErrAuth
	}
	return plain, nil
}

// MetaSealer is Equation 3 under one outer key with the GCM built once:
// SealMeta and OpenMeta expand the key schedule and allocate their
// output on every call, a MetaSealer works in the caller's buffer and
// allocates nothing. Safe for concurrent use (a cipher.AEAD keeps no
// per-call state).
type MetaSealer struct {
	g cipher.AEAD
}

// NewMetaSealer builds the AES-256-GCM of outer once.
func NewMetaSealer(outer Key) *MetaSealer {
	g, err := newGCM(outer)
	if err != nil {
		panic(err.Error())
	}
	return &MetaSealer{g: g}
}

// Seal encrypts buf[:len(buf)-GCMTagSize] in place under nonce
// (GCMNonceSize bytes) and writes the authentication tag into the last
// GCMTagSize bytes of buf.
func (s *MetaSealer) Seal(buf, nonce []byte) {
	s.g.Seal(buf[:0], nonce, buf[:len(buf)-GCMTagSize], nil)
}

// Open authenticates and decrypts buf — ciphertext ‖ tag, as Seal
// leaves it — in place, leaving the plaintext in buf[:len(buf)-
// GCMTagSize]. It returns ErrAuth if the tag does not verify.
func (s *MetaSealer) Open(buf, nonce []byte) error {
	if _, err := s.g.Open(buf[:0], nonce, buf, nil); err != nil {
		return ErrAuth
	}
	return nil
}

func newGCM(key Key) (cipher.AEAD, error) {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: aes.NewCipher: %w", err)
	}
	g, err := cipher.NewGCM(c)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: cipher.NewGCM: %w", err)
	}
	return g, nil
}

// DeriveSubKey deterministically derives a labelled sub-key from a
// parent key using HMAC-SHA-256. It is used by the baseline EncFS
// implementation (per-file keys from the volume key) and by tests.
func DeriveSubKey(parent Key, label string) Key {
	m := hmac.New(sha256.New, parent[:])
	m.Write([]byte(label))
	var out Key
	copy(out[:], m.Sum(nil))
	return out
}
