package cryptoutil

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand/v2"
	"testing"
)

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
// engine blocks, and 0–9 lanes of equal and of mixed lengths. Off the
// kernel the package runs crypto/cipher itself and this holds
// trivially.
func TestCBCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 2))
	for n := aes.BlockSize; n <= 8192; n += aes.BlockSize {
		var iv [aes.BlockSize]byte
		copy(iv[:], randBytes(rng, aes.BlockSize))
		checkCBCMatchesStdlib(t, randKey(rng), iv, randBytes(rng, n))
	}
	for lanes := 0; lanes <= 9; lanes++ {
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

// FuzzCBCMatchesStdlib explores TestCBCMatchesStdlib's space: an
// arbitrary key, IV and payload (cut to a whole number of AES blocks,
// at most 8 KiB), and up to 9 lanes cut from the payload, of equal or
// of mixed lengths.
func FuzzCBCMatchesStdlib(f *testing.F) {
	rng := rand.New(rand.NewPCG(34, 3))
	for _, n := range []int{16, 64, 112, 128, 144, 4032, 4096, 8192} {
		f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, n), uint8(n%10))
	}
	f.Add(randBytes(rng, KeySize), randBytes(rng, aes.BlockSize), randBytes(rng, 4096), uint8(128+6))
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
		mixed, count := lanes >= 128, int(lanes%128)%10
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
// the multi-buffer one included. The crypto/cipher fallback allocates a
// cipher and a mode per call, so off the kernel there is nothing to
// guard.
func TestCBCNoAllocs(t *testing.T) {
	if !useKernel {
		t.Skip("crypto/cipher fallback in use")
	}
	key, iv := testKey(1), [aes.BlockSize]byte{1}
	buf := make([]byte, 4096)
	lanes, keys := make([][]byte, 6), make([]Key, 6)
	for i := range lanes {
		lanes[i], keys[i] = make([]byte, 4096-64*i), testKey(byte(i))
	}
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"EncryptBlockCBC", func() error { return EncryptBlockCBC(buf, buf, key) }},
		{"DecryptBlockCBC", func() error { return DecryptBlockCBC(buf, buf, key) }},
		{"EncryptBlockCBCIV", func() error { return EncryptBlockCBCIV(buf, buf, key, iv) }},
		{"DecryptBlockCBCIV", func() error { return DecryptBlockCBCIV(buf, buf, key, iv) }},
		{"EncryptBlocksCBC", func() error { return EncryptBlocksCBC(lanes, lanes, keys) }},
	} {
		var err error
		if a := testing.AllocsPerRun(20, func() { err = c.fn() }); a != 0 || err != nil {
			t.Errorf("%s: %v allocations per call (err %v), want 0", c.name, a, err)
		}
	}
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

func BenchmarkCBCDecrypt(b *testing.B) {
	keys, src, dst := benchKeys(), bytes.Repeat([]byte{0x33}, 4096), make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := DecryptBlockCBC(dst, src, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCBCEncrypt4 is one EncryptBlocksCBC call over Lanes 4 KiB
// blocks per op; ns/block is the per-block cost to set against
// BenchmarkCBCEncrypt.
func BenchmarkCBCEncrypt4(b *testing.B) {
	keys := benchKeys()
	src, dst := make([][]byte, Lanes), make([][]byte, Lanes)
	for l := range Lanes {
		src[l], dst[l] = bytes.Repeat([]byte{byte(l)}, 4096), make([]byte, 4096)
	}
	b.SetBytes(Lanes * 4096)
	b.ReportAllocs()
	ops := 0
	for ; b.Loop(); ops++ {
		k := ops * Lanes % len(keys)
		if err := EncryptBlocksCBC(dst, src, keys[k:k+Lanes]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*Lanes), "ns/block")
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
