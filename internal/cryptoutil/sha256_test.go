package cryptoutil

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"testing"
)

// hashLengths are the block lengths the multi-buffer tests cover: the
// empty message, both sides of the one- and two-chunk padding edges,
// and one and two engine blocks.
var hashLengths = []int{0, 1, 55, 56, 63, 64, 65, 4096, 8192}

// checkBlockHashes holds BlockHashes to crypto/sha256, the oracle, lane
// by lane.
func checkBlockHashes(t *testing.T, src [][]byte) {
	t.Helper()
	dst := make([]Hash, len(src))
	BlockHashes(dst, src)
	for i, b := range src {
		if want := sha256.Sum256(b); dst[i] != want {
			t.Fatalf("%d lanes: lane %d (%d bytes) differs from crypto/sha256", len(src), i, len(b))
		}
	}
}

// TestBlockHashesMatchStdlib holds Equation 1's hash to crypto/sha256:
// 0–33 lanes (two full kernel passes and a ragged third), every length
// in hashLengths with all lanes equal, and lanes of mixed lengths. Off
// the kernel the package runs crypto/sha256 itself and this holds
// trivially.
func TestBlockHashesMatchStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	for lanes := 0; lanes <= 2*HashLanes+1; lanes++ {
		for _, n := range hashLengths {
			src := make([][]byte, lanes)
			for i := range src {
				src[i] = randBytes(rng, n)
			}
			checkBlockHashes(t, src)
		}
		src := make([][]byte, lanes)
		for i := range src {
			src[i] = randBytes(rng, hashLengths[rng.IntN(len(hashLengths))])
		}
		checkBlockHashes(t, src)
	}
	// A group whose lanes are one length but the next group's are not.
	src := make([][]byte, HashLanes+hashCrossover)
	for i := range src {
		src[i] = randBytes(rng, 4096-i/HashLanes*64*(i%2))
	}
	checkBlockHashes(t, src)
}

// FuzzBlockHashesMatchStdlib explores TestBlockHashesMatchStdlib's
// space: up to 2*HashLanes+1 lanes cut from an arbitrary payload of at
// most 8 KiB, all of its length or of mixed lengths.
func FuzzBlockHashesMatchStdlib(f *testing.F) {
	rng := rand.New(rand.NewPCG(37, 2))
	for _, n := range hashLengths {
		f.Add(randBytes(rng, n), uint8(n%(2*HashLanes+2)))
	}
	f.Add(randBytes(rng, 4096), uint8(128+HashLanes))
	f.Fuzz(func(t *testing.T, data []byte, lanes uint8) {
		data = data[:min(len(data), 8192)]
		mixed, count := lanes >= 128, int(lanes%128)%(2*HashLanes+2)
		src := make([][]byte, count)
		for i := range src {
			src[i] = bytes.Clone(data)
			if len(data) > 0 {
				src[i][0] ^= byte(i)
			}
			if mixed {
				src[i] = src[i][:len(data)-i*37%(len(data)+1)]
			}
		}
		checkBlockHashes(t, src)
	})
}

// TestBlockHashesNoAllocs guards the kernel's promise: a full group and
// a ragged one hash without allocating. Off the kernel BlockHashes is
// crypto/sha256, which guards itself.
func TestBlockHashesNoAllocs(t *testing.T) {
	if !useHashKernel {
		t.Skip("crypto/sha256 fallback in use")
	}
	src := make([][]byte, HashLanes+hashCrossover)
	for i := range src {
		src[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	dst := make([]Hash, len(src))
	if a := testing.AllocsPerRun(20, func() { BlockHashes(dst, src) }); a != 0 {
		t.Errorf("BlockHashes: %v allocations per call, want 0", a)
	}
}

// BenchmarkBlockHashes is one BlockHashes call over lanes 4 KiB blocks
// per op; ns/block is the per-block cost to set against
// BenchmarkBlockHash. The rows just below and at hashCrossover are the
// measurement that constant comes from: one block-by-block and one
// pass of the multi-buffer loop with most of its lanes idle.
func BenchmarkBlockHashes(b *testing.B) {
	for _, lanes := range []int{hashCrossover - 1, hashCrossover, HashLanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			src, dst := make([][]byte, lanes), make([]Hash, lanes)
			for l := range src {
				src[l] = bytes.Repeat([]byte{byte(l)}, 4096)
			}
			b.SetBytes(int64(lanes) * 4096)
			b.ReportAllocs()
			ops := 0
			for ; b.Loop(); ops++ {
				BlockHashes(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*lanes), "ns/block")
		})
	}
}
