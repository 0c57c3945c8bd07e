package core

import (
	"bytes"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

// stridedOverwrites is the paper's I/O cost model (§2.4) as a workload
// of the one engine: it writes a file of the given number of whole
// blocks at geometry (4096, r), then overwrites every other block with
// content that differs from what is on disk. No two pending blocks are
// adjacent, so each is its own extent and a batch of m blocks costs
// m+2 backing writes — two metadata writes plus one per block — with a
// batch committing every r overwrites. It runs on a one-slot window,
// whose commits land inside the write that triggers them, so the count
// read after the last write is exact. It returns the backing writes
// the overwrites cost (and a closing Sync's, when sync is set) and the
// number of blocks overwritten.
func stridedOverwrites(t *testing.T, r, blocks int, sync bool) (writes int64, n int) {
	t.Helper()
	store := backend.NewMemStore()
	geo, err := layout.NewGeometry(4096, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Geometry = geo
	cfg.IOWindow = 1
	lfs := newFS(t, store, cfg)
	if err := vfs.WriteAll(lfs, "f", bytes.Repeat([]byte{0x61}, blocks*4096)); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	store.ResetStats()
	buf := bytes.Repeat([]byte{0x62}, 4096)
	for b := 0; b < blocks; b += 2 {
		if _, err := f.WriteAt(buf, int64(b)*4096); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return store.Stats().Writes, n
}

// With a single reserved slot (R=1) every live overwrite commits alone
// and costs three backing writes: two metadata writes plus the data
// block itself.
func TestThreeIOsPerWriteAtR1(t *testing.T) {
	writes, n := stridedOverwrites(t, 1, 64, false)
	if writes != int64(3*n) {
		t.Fatalf("R=1: %d backing writes for %d block writes, want exactly %d", writes, n, 3*n)
	}
}

// Batching amortizes the two metadata I/Os over R block writes: one
// batch of R strided overwrites costs R+2.
func TestBatchedCommitIOs(t *testing.T) {
	for _, r := range []int{2, 8, 32} {
		writes, n := stridedOverwrites(t, r, 2*r, false)
		if n != r {
			t.Fatalf("R=%d: overwrote %d blocks, want one batch of %d", r, n, r)
		}
		if want := int64(r + 2); writes != want {
			t.Fatalf("R=%d: %d backing writes for one batch, want %d", r, writes, want)
		}
	}
}

// Write amplification falls as R grows — the mechanism behind Figure
// 10's write-throughput curve: a batch of R strided overwrites costs
// (R+2)/R writes per block. (Fresh data batches until its segment is
// full whatever R is: TestCoalescedSegmentCommitThreeIOs.)
func TestWriteAmplificationDecreasesWithR(t *testing.T) {
	amp := func(r int) float64 {
		writes, n := stridedOverwrites(t, r, 472, true) // 4 segments at R=8
		return float64(writes) / float64(n)
	}
	a1 := amp(1)
	a8 := amp(8)
	a48 := amp(48)
	if !(a1 > a8 && a8 > a48) {
		t.Fatalf("amplification not decreasing: R=1:%.2f R=8:%.2f R=48:%.2f", a1, a8, a48)
	}
	if a1 < 2.9 || a1 > 3.1 {
		t.Fatalf("R=1 amplification %.2f, want ~3", a1)
	}
	if a48 > 1.3 {
		t.Fatalf("R=48 amplification %.2f, want close to 1", a48)
	}
}

// Reads are never amplified by the commit protocol: a warm sequential
// read costs one backing read per data block plus one per metadata
// block.
func TestReadIOCount(t *testing.T) {
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	const blocks = 236 // 2 full segments
	data := make([]byte, blocks*4096)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store.ResetStats()
	buf := make([]byte, 4096)
	for i := 0; i < blocks; i++ {
		if _, err := f.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	reads := store.Stats().Reads
	// blocks data reads + 2 metadata reads (one per segment, cached
	// afterwards).
	if want := int64(blocks + 2); reads != want {
		t.Fatalf("%d backing reads, want %d", reads, want)
	}
}

// The Figure 9 instrumentation: on a RAM-disk backend the write path
// charges GetCEKey (hashing) and Encrypt; the full-integrity read path
// charges GetCEKey and Decrypt; meta-only reads skip the re-hash.
func TestLatencyBreakdownCategories(t *testing.T) {
	run := func(mode IntegrityMode) (write, read metrics.Breakdown) {
		store := backend.NewMemStore()
		rec := metrics.New()
		cfg := testConfig()
		cfg.Integrity = mode
		cfg.Recorder = rec
		lfs := newFS(t, store, cfg)

		data := make([]byte, 118*4096)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if err := vfs.WriteAll(lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		write = rec.Snapshot()
		rec.Reset()

		f, err := lfs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		for i := 0; i < 118; i++ {
			if _, err := f.ReadAt(buf, int64(i)*4096); err != nil {
				t.Fatal(err)
			}
		}
		read = rec.Snapshot()
		return write, read
	}

	wFull, rFull := run(IntegrityFull)
	if wFull.Total[metrics.GetCEKey] == 0 || wFull.Total[metrics.Encrypt] == 0 || wFull.Total[metrics.IO] == 0 {
		t.Fatalf("write breakdown missing categories: %v", wFull)
	}
	if rFull.Total[metrics.GetCEKey] == 0 || rFull.Total[metrics.Decrypt] == 0 {
		t.Fatalf("full-integrity read breakdown missing categories: %v", rFull)
	}

	_, rMeta := run(IntegrityMetaOnly)
	if rMeta.Total[metrics.Decrypt] == 0 {
		t.Fatalf("meta-only read did not decrypt: %v", rMeta)
	}
	// Meta-only reads do not re-hash data blocks: GetCEKey should be
	// (near) zero, which is the paper's 81% read-latency reduction.
	if rMeta.Total[metrics.GetCEKey] > rFull.Total[metrics.GetCEKey]/4 {
		t.Fatalf("meta-only GetCEKey %v not much smaller than full %v",
			rMeta.Total[metrics.GetCEKey], rFull.Total[metrics.GetCEKey])
	}
	if rFull.Ops != 118 {
		t.Fatalf("read op count = %d", rFull.Ops)
	}
}
