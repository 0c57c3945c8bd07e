package cryptoutil

import (
	"bytes"
	"crypto/aes"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b ^ byte(i*7)
	}
	return k
}

func TestKeyFromBytes(t *testing.T) {
	raw := make([]byte, KeySize)
	for i := range raw {
		raw[i] = byte(i)
	}
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	if !bytes.Equal(k[:], raw) {
		t.Fatalf("KeyFromBytes copied wrong bytes")
	}
	if _, err := KeyFromBytes(raw[:31]); err == nil {
		t.Fatalf("KeyFromBytes accepted short input")
	}
	if _, err := KeyFromBytes(append(raw, 0)); err == nil {
		t.Fatalf("KeyFromBytes accepted long input")
	}
}

func TestKeyEqualAndZero(t *testing.T) {
	a := testKey(1)
	b := testKey(1)
	c := testKey(2)
	if !a.Equal(b) {
		t.Errorf("identical keys not Equal")
	}
	if a.Equal(c) {
		t.Errorf("distinct keys reported Equal")
	}
	var z Key
	if !z.IsZero() {
		t.Errorf("zero key not IsZero")
	}
	if a.IsZero() {
		t.Errorf("nonzero key IsZero")
	}
	a.Zero()
	if !a.IsZero() {
		t.Errorf("Zero did not wipe key")
	}
}

func TestNewRandomKeyDistinct(t *testing.T) {
	a, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatalf("two random keys are identical")
	}
}

func TestBlockHashMatchesSHA256(t *testing.T) {
	data := []byte("lamassu block hash test vector")
	want := sha256.Sum256(data)
	if got := BlockHash(data); got != Hash(want) {
		t.Fatalf("BlockHash mismatch with crypto/sha256")
	}
}

// The convergent property: same plaintext + same inner key -> same
// CEKey; different inner key -> different CEKey (isolation zones).
func TestDeriveCEKeyConvergence(t *testing.T) {
	block := bytes.Repeat([]byte{0xAB}, 4096)
	inner1 := testKey(3)
	inner2 := testKey(4)

	k1 := CEKeyForBlock(block, inner1)
	k2 := CEKeyForBlock(block, inner1)
	k3 := CEKeyForBlock(block, inner2)
	if !k1.Equal(k2) {
		t.Errorf("same block and inner key must derive equal CEKeys")
	}
	if k1.Equal(k3) {
		t.Errorf("different inner keys must derive different CEKeys")
	}

	block2 := bytes.Repeat([]byte{0xAC}, 4096)
	k4 := CEKeyForBlock(block2, inner1)
	if k1.Equal(k4) {
		t.Errorf("different blocks must derive different CEKeys")
	}
}

// DeriveCEKey is injective on distinct hashes under a fixed key
// because AES is a permutation applied to each half.
func TestDeriveCEKeyInvertibleHalves(t *testing.T) {
	inner := testKey(9)
	h1 := BlockHash([]byte("a"))
	h2 := BlockHash([]byte("b"))
	if DeriveCEKey(h1, inner).Equal(DeriveCEKey(h2, inner)) {
		t.Fatalf("distinct hashes derived equal keys")
	}
	// Decrypting the derived key with AES must recover the hash.
	k := DeriveCEKey(h1, inner)
	c, err := aes.NewCipher(inner[:])
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	c.Decrypt(back[0:16], k[0:16])
	c.Decrypt(back[16:32], k[16:32])
	if back != h1 {
		t.Fatalf("KDF is not the documented AES-ECB of the hash")
	}
}

func TestEncryptBlockCBCDeterministic(t *testing.T) {
	block := bytes.Repeat([]byte{0x5A}, 4096)
	key := testKey(7)

	ct1 := make([]byte, len(block))
	ct2 := make([]byte, len(block))
	if err := EncryptBlockCBC(ct1, block, key); err != nil {
		t.Fatal(err)
	}
	if err := EncryptBlockCBC(ct2, block, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct1, ct2) {
		t.Fatalf("convergent CBC encryption is not deterministic")
	}
	if bytes.Equal(ct1, block) {
		t.Fatalf("ciphertext equals plaintext")
	}

	pt := make([]byte, len(block))
	if err := DecryptBlockCBC(pt, ct1, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, block) {
		t.Fatalf("CBC round trip failed")
	}
}

func TestEncryptBlockCBCInPlace(t *testing.T) {
	block := bytes.Repeat([]byte{0x11, 0x22}, 2048)
	orig := append([]byte(nil), block...)
	key := testKey(8)
	if err := EncryptBlockCBC(block, block, key); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(block, orig) {
		t.Fatalf("in-place encryption did not change buffer")
	}
	if err := DecryptBlockCBC(block, block, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(block, orig) {
		t.Fatalf("in-place round trip failed")
	}
}

func TestCBCBadLengths(t *testing.T) {
	key := testKey(1)
	if err := EncryptBlockCBC(make([]byte, 15), make([]byte, 15), key); !errors.Is(err, ErrBadLength) {
		t.Errorf("encrypt accepted non-multiple length: %v", err)
	}
	if err := EncryptBlockCBC(nil, nil, key); !errors.Is(err, ErrBadLength) {
		t.Errorf("encrypt accepted empty input: %v", err)
	}
	if err := EncryptBlockCBC(make([]byte, 16), make([]byte, 32), key); !errors.Is(err, ErrBadLength) {
		t.Errorf("encrypt accepted mismatched dst: %v", err)
	}
	if err := DecryptBlockCBC(make([]byte, 17), make([]byte, 17), key); !errors.Is(err, ErrBadLength) {
		t.Errorf("decrypt accepted non-multiple length: %v", err)
	}
	if err := DecryptBlockCBC(make([]byte, 32), make([]byte, 16), key); !errors.Is(err, ErrBadLength) {
		t.Errorf("decrypt accepted mismatched dst: %v", err)
	}
}

func TestEncryptBlockCBCIVDistinctIVs(t *testing.T) {
	block := bytes.Repeat([]byte{0x42}, 4096)
	key := testKey(2)
	var iv1, iv2 [aes.BlockSize]byte
	iv2[0] = 1

	ct1 := make([]byte, len(block))
	ct2 := make([]byte, len(block))
	if err := EncryptBlockCBCIV(ct1, block, key, iv1); err != nil {
		t.Fatal(err)
	}
	if err := EncryptBlockCBCIV(ct2, block, key, iv2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatalf("different IVs produced equal ciphertext")
	}
	pt := make([]byte, len(block))
	if err := DecryptBlockCBCIV(pt, ct2, key, iv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, block) {
		t.Fatalf("CBC-IV round trip failed")
	}
	if err := EncryptBlockCBCIV(make([]byte, 8), make([]byte, 8), key, iv1); !errors.Is(err, ErrBadLength) {
		t.Errorf("CBC-IV accepted bad length")
	}
	if err := DecryptBlockCBCIV(make([]byte, 8), make([]byte, 8), key, iv1); !errors.Is(err, ErrBadLength) {
		t.Errorf("CBC-IV decrypt accepted bad length")
	}
}

func TestSealOpenMetaRoundTrip(t *testing.T) {
	outer := testKey(5)
	nonce, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{0xEE, 0x01}, 2016) // 4032 bytes like a slot table
	ct, tag, err := SealMeta(plain, outer, nonce, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(plain) {
		t.Fatalf("ciphertext length %d != plaintext length %d", len(ct), len(plain))
	}
	got, err := OpenMeta(ct, outer, nonce, tag, nil)
	if err != nil {
		t.Fatalf("OpenMeta: %v", err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("GCM round trip failed")
	}
}

func TestOpenMetaDetectsTampering(t *testing.T) {
	outer := testKey(6)
	nonce, _ := NewNonce()
	plain := bytes.Repeat([]byte{7}, 128)
	ct, tag, err := SealMeta(plain, outer, nonce, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one ciphertext bit.
	bad := append([]byte(nil), ct...)
	bad[10] ^= 0x80
	if _, err := OpenMeta(bad, outer, nonce, tag, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered ciphertext not detected: %v", err)
	}

	// Flip one tag bit.
	badTag := tag
	badTag[0] ^= 1
	if _, err := OpenMeta(ct, outer, nonce, badTag, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered tag not detected: %v", err)
	}

	// Wrong key.
	if _, err := OpenMeta(ct, testKey(7), nonce, tag, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key not detected: %v", err)
	}

	// Wrong nonce.
	badNonce := nonce
	badNonce[3] ^= 1
	if _, err := OpenMeta(ct, outer, badNonce, tag, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong nonce not detected: %v", err)
	}
}

func TestSealMetaAADBinding(t *testing.T) {
	outer := testKey(6)
	nonce, _ := NewNonce()
	plain := []byte("metadata payload")
	ct, tag, err := SealMeta(plain, outer, nonce, []byte("segment-7"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMeta(ct, outer, nonce, tag, []byte("segment-8")); !errors.Is(err, ErrAuth) {
		t.Errorf("AAD mismatch not detected")
	}
	if _, err := OpenMeta(ct, outer, nonce, tag, []byte("segment-7")); err != nil {
		t.Errorf("matching AAD rejected: %v", err)
	}
}

func TestNewNonceDistinct(t *testing.T) {
	a, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("two random nonces identical")
	}
}

func TestDeriveSubKey(t *testing.T) {
	parent := testKey(9)
	a := DeriveSubKey(parent, "file:a")
	b := DeriveSubKey(parent, "file:b")
	a2 := DeriveSubKey(parent, "file:a")
	if !a.Equal(a2) {
		t.Errorf("sub-key derivation not deterministic")
	}
	if a.Equal(b) {
		t.Errorf("different labels derived equal sub-keys")
	}
	if a.Equal(parent) {
		t.Errorf("sub-key equals parent")
	}
}

// Property: CBC with the fixed IV round-trips for arbitrary block-
// aligned payloads and keys.
func TestQuickCBCRoundTrip(t *testing.T) {
	f := func(seed []byte, keyByte byte, nBlocks uint8) bool {
		n := int(nBlocks%64) + 1
		src := make([]byte, n*16)
		for i := range src {
			if len(seed) > 0 {
				src[i] = seed[i%len(seed)]
			}
		}
		key := testKey(keyByte)
		ct := make([]byte, len(src))
		if err := EncryptBlockCBC(ct, src, key); err != nil {
			return false
		}
		pt := make([]byte, len(src))
		if err := DecryptBlockCBC(pt, ct, key); err != nil {
			return false
		}
		return bytes.Equal(pt, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: convergence — equal plaintext yields byte-identical
// ciphertext; unequal plaintext yields different ciphertext.
func TestQuickConvergence(t *testing.T) {
	inner := testKey(11)
	f := func(a, b []byte) bool {
		pa := pad16(a)
		pb := pad16(b)
		ka := CEKeyForBlock(pa, inner)
		kb := CEKeyForBlock(pb, inner)
		cta := make([]byte, len(pa))
		ctb := make([]byte, len(pb))
		if err := EncryptBlockCBC(cta, pa, ka); err != nil {
			return false
		}
		if err := EncryptBlockCBC(ctb, pb, kb); err != nil {
			return false
		}
		if bytes.Equal(pa, pb) {
			return bytes.Equal(cta, ctb)
		}
		return !bytes.Equal(cta, ctb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: GCM seal/open round-trips and any single-byte corruption
// is detected.
func TestQuickGCMDetection(t *testing.T) {
	outer := testKey(13)
	f := func(payload []byte, flip uint16) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		nonce, err := NewNonce()
		if err != nil {
			return false
		}
		ct, tag, err := SealMeta(payload, outer, nonce, nil)
		if err != nil {
			return false
		}
		got, err := OpenMeta(ct, outer, nonce, tag, nil)
		if err != nil || !bytes.Equal(got, payload) {
			return false
		}
		bad := append([]byte(nil), ct...)
		bad[int(flip)%len(bad)] ^= 0x01
		_, err = OpenMeta(bad, outer, nonce, tag, nil)
		return errors.Is(err, ErrAuth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pad16(b []byte) []byte {
	n := len(b)
	if n == 0 {
		n = 1
	}
	padded := make([]byte, ((n+15)/16)*16)
	copy(padded, b)
	return padded
}

// The paper's §4.2 microbenchmark: hash alternatives for GetCEKey.
// "OpenSSL SHA-1 consumes 58% fewer, and OpenSSL MD5 consumes 38%
// fewer CPU cycles for computing the same 4KB block-hash compared
// with our SHA-256 function" (on their AVX build; with SHA-NI the
// gap narrows or inverts — the bench records what this machine does).
// The weaker hashes stay unused on the data path for the security
// reasons the paper gives; this bench only reproduces the comparison.
func BenchmarkHashAlternatives(b *testing.B) {
	block := bytes.Repeat([]byte{0x5A}, 4096)
	b.Run("sha256", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			_ = sha256.Sum256(block)
		}
	})
	b.Run("sha1", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			_ = sha1.Sum(block)
		}
	})
	b.Run("md5", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			_ = md5.Sum(block)
		}
	})
}

func BenchmarkDeriveCEKey(b *testing.B) {
	h := BlockHash([]byte("bench"))
	k := testKey(1)
	for i := 0; i < b.N; i++ {
		_ = DeriveCEKey(h, k)
	}
}

func BenchmarkSealMeta4K(b *testing.B) {
	payload := bytes.Repeat([]byte{0x44}, 4064)
	k := testKey(2)
	nonce, _ := NewNonce()
	b.SetBytes(4064)
	for i := 0; i < b.N; i++ {
		if _, _, err := SealMeta(payload, k, nonce, nil); err != nil {
			b.Fatal(err)
		}
	}
}
