package cryptoutil

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand/v2"
	"testing"
)

// withoutVAES runs fn with the VAES loops off and restores them.
func withoutVAES(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	if !useVAES {
		t.Skip("VAES loops not in use")
	}
	useVAES = false
	defer func() { useVAES = true }()
	fn(t)
}

// stdlibCBC is the oracle: Equation 2 on crypto/cipher, written out
// here so that it shares no code with the package under test.
func stdlibCBC(encrypt bool, key Key, iv [aes.BlockSize]byte, src []byte) []byte {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	out := make([]byte, len(src))
	if encrypt {
		cipher.NewCBCEncrypter(c, iv[:]).CryptBlocks(out, src)
	} else {
		cipher.NewCBCDecrypter(c, iv[:]).CryptBlocks(out, src)
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func randKey(rng *rand.Rand) (k Key) {
	copy(k[:], randBytes(rng, KeySize))
	return k
}

// cbcOp runs one entry point into dst. Each op is checked with dst
// disjoint from src and with dst == src.
type cbcOp struct {
	name string
	run  func(dst, src []byte) error
	want []byte
}

// checkCBCMatchesStdlib holds the four single-stream entry points to
// crypto/cipher for one key, IV and payload.
func checkCBCMatchesStdlib(t testing.TB, key Key, iv [aes.BlockSize]byte, plain []byte) {
	t.Helper()
	var zero [aes.BlockSize]byte
	ct, ctIV := stdlibCBC(true, key, zero, plain), stdlibCBC(true, key, iv, plain)
	ops := []cbcOp{
		{"EncryptBlockCBC", func(d, s []byte) error { return EncryptBlockCBC(d, s, key) }, ct},
		{"DecryptBlockCBC", func(d, s []byte) error { return DecryptBlockCBC(d, s, key) }, plain},
		{"EncryptBlockCBCIV", func(d, s []byte) error { return EncryptBlockCBCIV(d, s, key, iv) }, ctIV},
		{"DecryptBlockCBCIV", func(d, s []byte) error { return DecryptBlockCBCIV(d, s, key, iv) }, plain},
	}
	for i, op := range ops {
		src := plain
		if i%2 == 1 {
			src = ops[i-1].want
		}
		dst := make([]byte, len(src))
		if err := op.run(dst, src); err != nil {
			t.Fatalf("%s, %d bytes: %v", op.name, len(src), err)
		}
		if !bytes.Equal(dst, op.want) {
			t.Fatalf("%s, %d bytes: differs from crypto/cipher", op.name, len(src))
		}
		buf := bytes.Clone(src)
		if err := op.run(buf, buf); err != nil {
			t.Fatalf("%s in place, %d bytes: %v", op.name, len(src), err)
		}
		if !bytes.Equal(buf, op.want) {
			t.Fatalf("%s in place, %d bytes: differs from crypto/cipher", op.name, len(src))
		}
	}
}

// checkLanesMatchStdlib holds EncryptBlocksCBC to crypto/cipher lane by
// lane, with every dst disjoint from its src and with every lane in
// place.
func checkLanesMatchStdlib(t testing.TB, keys []Key, plains [][]byte) {
	t.Helper()
	var zero [aes.BlockSize]byte
	dst, inPlace := make([][]byte, len(plains)), make([][]byte, len(plains))
	for i, p := range plains {
		dst[i], inPlace[i] = make([]byte, len(p)), bytes.Clone(p)
	}
	if err := EncryptBlocksCBC(dst, plains, keys); err != nil {
		t.Fatalf("%d lanes: %v", len(plains), err)
	}
	if err := EncryptBlocksCBC(inPlace, inPlace, keys); err != nil {
		t.Fatalf("%d lanes in place: %v", len(plains), err)
	}
	for i, p := range plains {
		want := stdlibCBC(true, keys[i], zero, p)
		if !bytes.Equal(dst[i], want) || !bytes.Equal(inPlace[i], want) {
			t.Fatalf("%d lanes: lane %d (%d bytes) differs from crypto/cipher", len(plains), i, len(p))
		}
	}
}

// TestCBCMatchesStdlib holds Equation 2 to crypto/cipher: every entry
// point, random keys and IVs, every length from one AES block to two
// engine blocks (so a decrypt tail of every length mod 256 bytes behind
// the VAES loop's 256-byte steps), and 0–HashLanes+2 lanes (a second
// group of one and of two) of equal and of mixed lengths, each disjoint
// and in place. Off the kernel the package runs crypto/cipher itself
// and this holds trivially.
func TestCBCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 2))
	for n := aes.BlockSize; n <= 8192; n += aes.BlockSize {
		var iv [aes.BlockSize]byte
		copy(iv[:], randBytes(rng, aes.BlockSize))
		checkCBCMatchesStdlib(t, randKey(rng), iv, randBytes(rng, n))
	}
	for lanes := 0; lanes <= HashLanes+2; lanes++ {
		for _, mixed := range []bool{false, true} {
			keys, plains := make([]Key, lanes), make([][]byte, lanes)
			for i := range lanes {
				n := 4096
				if mixed {
					n = aes.BlockSize * (1 + rng.IntN(4096/aes.BlockSize))
				}
				keys[i], plains[i] = randKey(rng), randBytes(rng, n)
			}
			checkLanesMatchStdlib(t, keys, plains)
		}
	}
}

// TestCBCWithoutVAES is TestCBCMatchesStdlib with the VAES loops off,
// so that the AES-NI loops stay tested on a VAES host.
func TestCBCWithoutVAES(t *testing.T) {
	withoutVAES(t, TestCBCMatchesStdlib)
}

// TestCBCNoAllocsWithoutVAES is TestCBCNoAllocs on the AES-NI loops.
func TestCBCNoAllocsWithoutVAES(t *testing.T) {
	withoutVAES(t, TestCBCNoAllocs)
}

// FuzzCBCMatchesStdlib explores TestCBCMatchesStdlib's space: an
// arbitrary key, IV and payload (cut to a whole number of AES blocks,
// at most 8 KiB), and up to HashLanes+1 lanes cut from the payload, of
// equal or of mixed lengths.
func FuzzCBCMatchesStdlib(f *testing.F) {
	rng := rand.New(rand.NewPCG(34, 3))
	for _, n := range []int{16, 64, 112, 128, 144, 4032, 4096, 8192} {
		f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, n), uint8(n%10))
	}
	f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, 4096), uint8(128+6))
	f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, 4096), uint8(HashLanes))
	f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, 4096), uint8(128+vaesCrossover))
	f.Fuzz(func(t *testing.T, keyBytes, ivBytes, data []byte, lanes uint8) {
		var key Key
		var iv [aes.BlockSize]byte
		copy(key[:], keyBytes)
		copy(iv[:], ivBytes)
		n := min(len(data), 8192) / aes.BlockSize * aes.BlockSize
		if n == 0 {
			return
		}
		data = data[:n]
		checkCBCMatchesStdlib(t, key, iv, data)
		mixed, count := lanes >= 128, int(lanes%128)%(HashLanes+2)
		keys, plains := make([]Key, count), make([][]byte, count)
		for i := range count {
			keys[i], plains[i] = key, data
			keys[i][0] ^= byte(i)
			if mixed {
				plains[i] = data[:n-aes.BlockSize*(i*37%(n/aes.BlockSize))]
			}
		}
		checkLanesMatchStdlib(t, keys, plains)
	})
}

// TestCBCNoAllocs guards the kernel's promise: no entry point allocates,
// the multi-buffer ones at both widths and the KDF included. The
// crypto/cipher fallback allocates a cipher and a mode per call, so off
// the kernel there is nothing to guard.
func TestCBCNoAllocs(t *testing.T) {
	if !useKernel {
		t.Skip("crypto/cipher fallback in use")
	}
	key, iv := testKey(1), [aes.BlockSize]byte{1}
	buf := make([]byte, 4096)
	tail := buf[:4096-48]
	lanes, keys := make([][]byte, HashLanes), make([]Key, HashLanes)
	for i := range lanes {
		lanes[i], keys[i] = make([]byte, 4096-64*(i%3)), testKey(byte(i))
	}
	d := NewCEKeyDeriver(key)
	hs, derived := make([]Hash, HashLanes), make([]Key, HashLanes)
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"EncryptBlockCBC", func() error { return EncryptBlockCBC(buf, buf, key) }},
		{"DecryptBlockCBC", func() error { return DecryptBlockCBC(buf, buf, key) }},
		{"DecryptBlockCBC/tail", func() error { return DecryptBlockCBC(tail, tail, key) }},
		{"EncryptBlockCBCIV", func() error { return EncryptBlockCBCIV(buf, buf, key, iv) }},
		{"DecryptBlockCBCIV", func() error { return DecryptBlockCBCIV(buf, buf, key, iv) }},
		{"EncryptBlocksCBC/6", func() error { return EncryptBlocksCBC(lanes[:6], lanes[:6], keys[:6]) }},
		{"EncryptBlocksCBC/16", func() error { return EncryptBlocksCBC(lanes, lanes, keys) }},
		{"Derive", func() error { d.Derive(hs[0]); return nil }},
		{"DeriveKeys/1", func() error { d.DeriveKeys(derived[:1], hs[:1]); return nil }},
		{"DeriveKeys/16", func() error { d.DeriveKeys(derived, hs); return nil }},
	} {
		var err error
		if a := testing.AllocsPerRun(20, func() { err = c.fn() }); a != 0 || err != nil {
			t.Errorf("%s: %v allocations per call (err %v), want 0", c.name, a, err)
		}
	}
}

// TestDeriveKeysMatchDeriveCEKey holds the KDF's kernel to DeriveCEKey,
// which runs on crypto/aes: groups of 0–2·HashLanes+1 random hashes
// under a random inner key, through DeriveKeys and through Derive.
func TestDeriveKeysMatchDeriveCEKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	for n := 0; n <= 2*HashLanes+1; n++ {
		hs := make([]Hash, n)
		for i := range hs {
			copy(hs[i][:], randBytes(rng, HashSize))
		}
		checkDeriveKeys(t, randKey(rng), hs)
	}
}

func checkDeriveKeys(t testing.TB, inner Key, hs []Hash) {
	t.Helper()
	d := NewCEKeyDeriver(inner)
	keys := make([]Key, len(hs))
	d.DeriveKeys(keys, hs)
	for i, h := range hs {
		want := DeriveCEKey(h, inner)
		if keys[i] != want {
			t.Fatalf("%d hashes: DeriveKeys key %d differs from DeriveCEKey", len(hs), i)
		}
		if d.Derive(h) != want {
			t.Fatalf("Derive of hash %d differs from DeriveCEKey", i)
		}
	}
}

// FuzzDeriveKeysMatchDeriveCEKey explores TestDeriveKeysMatchDeriveCEKey's
// space: an arbitrary inner key and up to 2·HashLanes+1 hashes cut from
// an arbitrary payload.
func FuzzDeriveKeysMatchDeriveCEKey(f *testing.F) {
	rng := rand.New(rand.NewPCG(47, 2))
	for _, n := range []int{1, 2, 8, HashLanes, HashLanes + 1, 2*HashLanes + 1} {
		f.Add(randBytes(rng, KeySize), randBytes(rng, n*HashSize))
	}
	f.Fuzz(func(t *testing.T, keyBytes, data []byte) {
		var inner Key
		copy(inner[:], keyBytes)
		hs := make([]Hash, min(len(data)/HashSize, 2*HashLanes+1))
		for i := range hs {
			copy(hs[i][:], data[i*HashSize:])
		}
		checkDeriveKeys(t, inner, hs)
	})
}

// benchKeys gives every op of a CBC benchmark a fresh key, so the key
// schedule is paid per block as the engine pays it.
func benchKeys() []Key {
	rng := rand.New(rand.NewPCG(34, 4))
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	return keys
}

func BenchmarkCBCEncrypt(b *testing.B) {
	keys, src, dst := benchKeys(), bytes.Repeat([]byte{0x33}, 4096), make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := EncryptBlockCBC(dst, src, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCBCDecrypt is one 4 KiB block per op, on the VAES loop where
// the CPU has it; the aesni row is the AES-NI loop it replaces.
func BenchmarkCBCDecrypt(b *testing.B) {
	benchWidths(b, func(b *testing.B) {
		keys, src, dst := benchKeys(), bytes.Repeat([]byte{0x33}, 4096), make([]byte, 4096)
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if err := DecryptBlockCBC(dst, src, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWidths runs fn as is and, where the VAES loops run, once more as
// the aesni row with them off.
func benchWidths(b *testing.B, fn func(b *testing.B)) {
	b.Run("kernel", fn)
	if useVAES {
		b.Run("aesni", func(b *testing.B) {
			useVAES = false
			defer func() { useVAES = true }()
			fn(b)
		})
	}
}

// BenchmarkCBCEncryptLanes is one EncryptBlocksCBC call over lanes 4 KiB
// blocks per op; ns/block is the per-block cost to set against
// BenchmarkCBCEncrypt. Where the CPU has VAES, every width runs twice:
// on the 16-lane loop (vaes) and on the AES-NI loop (aesni). The
// lanes=Lanes row is the AES-NI loop's width, and the rows either side
// of vaesCrossover are where that constant comes from.
func BenchmarkCBCEncryptLanes(b *testing.B) {
	for _, lanes := range []int{Lanes, vaesCrossover - 1, vaesCrossover, HashLanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			keys := benchKeys()
			src, dst := make([][]byte, lanes), make([][]byte, lanes)
			for l := range lanes {
				src[l], dst[l] = bytes.Repeat([]byte{byte(l)}, 4096), make([]byte, 4096)
			}
			run := func(b *testing.B, encrypt func(dst, src [][]byte, keys []Key)) {
				b.SetBytes(int64(lanes) * 4096)
				b.ReportAllocs()
				ops := 0
				for ; b.Loop(); ops++ {
					k := ops * lanes % (len(keys) - lanes)
					encrypt(dst, src, keys[k:k+lanes])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*lanes), "ns/block")
			}
			if !useVAES {
				run(b, func(dst, src [][]byte, keys []Key) {
					if err := EncryptBlocksCBC(dst, src, keys); err != nil {
						b.Fatal(err)
					}
				})
				return
			}
			b.Run("vaes", func(b *testing.B) { run(b, encrypt16) })
			b.Run("aesni", func(b *testing.B) {
				useVAES = false
				defer func() { useVAES = true }()
				run(b, encryptLanes)
			})
		})
	}
}

// BenchmarkDeriveKeys is one DeriveKeys call over lanes hashes per op;
// ns/key is the KDF's per-block cost.
func BenchmarkDeriveKeys(b *testing.B) {
	for _, lanes := range []int{1, HashLanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			d := NewCEKeyDeriver(testKey(3))
			hs, keys := make([]Hash, lanes), make([]Key, lanes)
			b.ReportAllocs()
			ops := 0
			for ; b.Loop(); ops++ {
				d.DeriveKeys(keys, hs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*lanes), "ns/key")
		})
	}
}

// BenchmarkBlockHash is H(Block) on a 4 KiB block: the SHA-256 half of
// the per-block CPU floor, next to the CBC half above.
func BenchmarkBlockHash(b *testing.B) {
	block := bytes.Repeat([]byte{0x33}, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for b.Loop() {
		BlockHash(block)
	}
}
