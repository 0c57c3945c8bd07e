package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

// fillChunk fills one workload chunk. The random case is the classic
// sweep (random bytes escape compression to raw); the compressible
// case keeps an 8-byte random prefix for per-op uniqueness and fills
// the rest with a repeated phrase so the compressed engine's short
// stored extents — and their crash states — actually get exercised.
// Both callers below must consume the rng identically, so the random
// draw happens unconditionally.
func fillChunk(rng *rand.Rand, chunk []byte, compressible bool) {
	rng.Read(chunk)
	if !compressible {
		return
	}
	const phrase = "crash sweep compressible payload "
	for i := 8; i < len(chunk); i++ {
		chunk[i] = phrase[i%len(phrase)]
	}
}

// writeWorkload applies a deterministic overwrite workload to a file
// that already contains oldData, returning the intended new content.
// It drives the multiphase commit across several segments.
func writeWorkload(f vfs.File, oldData []byte, seed int64, compressible bool) ([]byte, error) {
	want := append([]byte(nil), oldData...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		off := rng.Intn(len(want) - 4096)
		n := rng.Intn(3*4096) + 100
		if off+n > len(want) {
			n = len(want) - off
		}
		chunk := make([]byte, n)
		fillChunk(rng, chunk, compressible)
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			return want, err
		}
		copy(want[off:off+n], chunk)
	}
	if err := f.Sync(); err != nil {
		return want, err
	}
	return want, nil
}

// blockHistories replays the workload against a shadow buffer and
// records, per block, every value the block ever legitimately held
// (the initial content plus the state after each application write).
// Because writes are buffered and batched, a crash may surface any of
// these intermediate states — but never anything else.
func blockHistories(oldData []byte, seed int64, blockSize int, compressible bool) []map[string]bool {
	nBlocks := (len(oldData) + blockSize - 1) / blockSize
	hist := make([]map[string]bool, nBlocks)
	shadow := append([]byte(nil), oldData...)
	snap := func(b int) {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > len(shadow) {
			hi = len(shadow)
		}
		if hist[b] == nil {
			hist[b] = make(map[string]bool)
		}
		hist[b][string(shadow[lo:hi])] = true
	}
	for b := 0; b < nBlocks; b++ {
		snap(b)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		off := rng.Intn(len(shadow) - 4096)
		n := rng.Intn(3*4096) + 100
		if off+n > len(shadow) {
			n = len(shadow) - off
		}
		chunk := make([]byte, n)
		fillChunk(rng, chunk, compressible)
		copy(shadow[off:off+n], chunk)
		for b := off / blockSize; b <= (off+n-1)/blockSize; b++ {
			snap(b)
		}
	}
	return hist
}

// TestCrashSweepEveryWritePoint is the central §2.4 validation: run
// the same workload repeatedly, crashing the store after the 1st, 2nd,
// 3rd, ... backend write; after each crash, run recovery and verify
// that every block of the file decrypts and hash-verifies, and that
// each block holds one of the states the write sequence legitimately
// produced (per-block atomicity — the guarantee the multiphase commit
// provides).
func TestCrashSweepEveryWritePoint(t *testing.T) {
	forEachBackend(t, testCrashSweepEveryWritePoint)
	// The R=2 column: the same whole-system power loss, but the store
	// under the engine is a replicated sharded deployment — every
	// surviving backend write reached both owners, and recovery and the
	// post-crash audit run through the replicated read path.
	t.Run("shard-r2", func(t *testing.T) {
		testCrashSweepEveryWritePoint(t, func(t *testing.T) backend.Store {
			leaves := []backend.Store{
				backend.NewMemStore(), backend.NewMemStore(), backend.NewMemStore(),
			}
			s, err := shard.New(leaves, shard.Config{StripeBytes: 2048, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// The sweep runs raw (every crash point lands before, between or after
// whole extents) and with compression on — where phase 2 writes
// variable stored extents, the workload is compressible (short frames,
// extent pads), and recovery must restore paired (key, length) state.
func testCrashSweepEveryWritePoint(t *testing.T, mk storeMaker) {
	t.Run("coalesced", func(t *testing.T) { crashSweepEveryWritePoint(t, mk, false) })
	t.Run("coalesced-compress", func(t *testing.T) { crashSweepEveryWritePoint(t, mk, true) })
}

func crashSweepEveryWritePoint(t *testing.T, mk storeMaker, compress bool) {
	geo, err := layout.NewGeometry(512, 4) // small blocks: many I/Os, fast
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress}

	// First, a dry run to count the total number of backend writes.
	// The compressed sweep starts from compressible old data too, so
	// the initial commit already stores short extents whose crash
	// states the workload then overwrites.
	oldData := make([]byte, 40*1024)
	rand.New(rand.NewSource(99)).Read(oldData)
	if compress {
		const phrase = "crash sweep compressible payload "
		for i := 8; i < len(oldData); i++ {
			oldData[i] = phrase[i%len(phrase)] ^ byte(i>>9)
		}
	}

	// The counting run also proves the sweep cuts between two data
	// extents of one phase 2: some commit must write at least two, that
	// is, more extents than phase-1 barriers.
	logged := &planStore{Store: mk(t)}
	countStore := faultfs.New(logged)
	rec := metrics.New()
	countCfg := cfg
	countCfg.Recorder = rec
	fsCount, err := New(countStore, countCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(fsCount, "f", oldData); err != nil {
		t.Fatal(err)
	}
	countStore.ResetWriteCount()
	rec.Reset()
	logged.take()
	f, err := fsCount.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeWorkload(f, oldData, 7, compress); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	totalWrites := countStore.WriteCount()
	if totalWrites < 20 {
		t.Fatalf("workload issued only %d writes; widen it", totalWrites)
	}
	logged.mu.Lock()
	writes := logged.writes // in issue order; take would sort them
	logged.mu.Unlock()
	if extents, phase1 := rec.Snapshot().Event(metrics.WriteRun), phase1Writes(geo, writes); extents <= phase1 {
		t.Fatalf("%d data extents in %d commits: no commit wrote two, so no cut falls between them; change the workload",
			extents, phase1)
	}
	hist := blockHistories(oldData, 7, geo.BlockSize, compress)

	// In -short (race-instrumented CI) sample the crash points instead
	// of sweeping all of them; the full sweep runs under `go test`.
	stride := int64(1)
	if testing.Short() {
		stride = 9
	}
	for _, mode := range []faultfs.Mode{faultfs.ModeCrashAfter, faultfs.ModeCrashBefore} {
		for crashAt := int64(1); crashAt <= totalWrites; crashAt += stride {
			fstore := faultfs.New(mk(t))
			lfs, err := New(fstore, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
				t.Fatal(err)
			}

			fstore.Arm(mode, crashAt, 0)
			fw, err := lfs.OpenRW("f")
			if err != nil {
				t.Fatalf("crashAt=%d: open: %v", crashAt, err)
			}
			_, werr := writeWorkload(fw, oldData, 7, compress)
			_ = fw.Close() // post-crash close errors are expected
			if werr == nil && fstore.Crashed() {
				t.Fatalf("crashAt=%d: workload succeeded despite crash", crashAt)
			}
			fstore.Disarm()

			// "Reboot": recover, then audit.
			if _, err := lfs.Recover("f"); err != nil {
				t.Fatalf("mode=%v crashAt=%d: recovery failed: %v", mode, crashAt, err)
			}
			rep, err := lfs.Check("f")
			if err != nil {
				t.Fatalf("mode=%v crashAt=%d: check: %v", mode, crashAt, err)
			}
			if !rep.Clean() {
				t.Fatalf("mode=%v crashAt=%d: post-recovery audit dirty: %+v", mode, crashAt, rep)
			}

			// Every block must hold one of its legitimate states.
			got, err := vfs.ReadAll(lfs, "f")
			if err != nil {
				t.Fatalf("mode=%v crashAt=%d: read after recovery: %v", mode, crashAt, err)
			}
			if len(got) != len(oldData) {
				t.Fatalf("mode=%v crashAt=%d: size changed: %d", mode, crashAt, len(got))
			}
			bs := geo.BlockSize
			for b := 0; b*bs < len(got); b++ {
				lo, hi := b*bs, (b+1)*bs
				if hi > len(got) {
					hi = len(got)
				}
				if !hist[b][string(got[lo:hi])] {
					t.Fatalf("mode=%v crashAt=%d: block %d holds a state the workload never produced",
						mode, crashAt, b)
				}
			}
		}
	}
}

// phase1Writes counts the phase-1 barriers in the write log of an
// engine without an I/O window, whose commits run one at a time: each
// is a metadata write followed directly by a data write.
func phase1Writes(geo layout.Geometry, writes []planOp) int64 {
	isMeta := func(op planOp) bool { return op.off%geo.SegmentPhysBytes() == 0 }
	var n int64
	for i := 1; i < len(writes); i++ {
		if isMeta(writes[i-1]) && !isMeta(writes[i]) {
			n++
		}
	}
	return n
}

// A crash exactly between phase 1 and phase 2 leaves the old data on
// disk with the new key staged; the transient key must still decrypt
// it transparently on the read path, before any recovery runs.
func TestReadThroughMidUpdateSegment(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) {
		testReadThroughMidUpdateSegment(t, mk, false)
	})
}

// The same phase-1/phase-2 crash with compression on: the transient
// slot pairs the old key with the old stored length, and the fallback
// read must decode the old short frame through that pair.
func TestReadThroughMidUpdateSegmentCompressed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) {
		testReadThroughMidUpdateSegment(t, mk, true)
	})
}

func testReadThroughMidUpdateSegment(t *testing.T, mk storeMaker, compress bool) {
	geo := layout.Default()
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress}
	fstore := faultfs.New(mk(t))
	lfs, err := New(fstore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldData := bytes.Repeat([]byte{0x11}, 16*4096)
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}

	// Crash after exactly one write: commit phase 1 (the metadata
	// write) lands, the data write does not.
	fstore.Arm(faultfs.ModeCrashAfter, 1, 0)
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0x22}, 4096)
	_, _ = f.WriteAt(patch, 0)
	_ = f.Sync() // triggers the commit; phase 2 write fails
	_ = f.Close()
	fstore.Disarm()

	// Without recovery, reads must fall back to the transient key.
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatalf("read through midupdate segment: %v", err)
	}
	if !bytes.Equal(got, oldData) {
		t.Fatalf("midupdate fallback returned wrong data")
	}

	// The segment is flagged; Check must report it.
	rep, err := lfs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	if rep.MidUpdate != 1 {
		t.Fatalf("MidUpdate = %d, want 1", rep.MidUpdate)
	}

	// Recovery repairs it and the flag clears.
	st, err := lfs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 {
		t.Fatalf("Repaired = %d, want 1", st.Repaired)
	}
	rep, err = lfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("post-recovery: %+v, %v", rep, err)
	}
	got, err = vfs.ReadAll(lfs, "f")
	if err != nil || !bytes.Equal(got, oldData) {
		t.Fatalf("post-recovery content wrong: %v", err)
	}
}

// Writing to a segment that is still midupdate from a previous crash
// first recovers it, so the transient slots are never clobbered while
// they still carry recovery state.
func TestWriteToMidUpdateSegmentRecoversFirst(t *testing.T) {
	forEachBackend(t, testWriteToMidUpdateSegmentRecoversFirst)
}

func testWriteToMidUpdateSegmentRecoversFirst(t *testing.T, mk storeMaker) {
	geo := layout.Default()
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo}
	fstore := faultfs.New(mk(t))
	lfs, err := New(fstore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldData := bytes.Repeat([]byte{0x33}, 20*4096)
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}
	fstore.Arm(faultfs.ModeCrashAfter, 1, 0)
	f, _ := lfs.OpenRW("f")
	_, _ = f.WriteAt(bytes.Repeat([]byte{0x44}, 4096), 0)
	_ = f.Sync()
	_ = f.Close()
	fstore.Disarm()

	// No explicit recovery: just write again through a fresh handle.
	f2, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0x55}, 4096)
	if _, err := f2.WriteAt(patch, 8192); err != nil {
		t.Fatalf("write to crashed segment: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	want := append([]byte(nil), oldData...)
	copy(want[8192:], patch)
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("content after implicit recovery wrong")
	}
	rep, err := lfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after implicit recovery: %+v, %v", rep, err)
	}
}

// A torn (sub-block) data write is outside the consistency guarantee
// (§2.4: "our method does not provide any mechanism for handling a
// partial-block write failure") — but it must be *detected*, not
// silently returned.
func TestTornDataWriteDetectedNotRepaired(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) {
		testTornDataWriteDetectedNotRepaired(t, mk, false)
	})
}

// A torn compressed frame: the short stored payload is half new
// ciphertext, half old — the DEFLATE stream no longer inflates and
// the hash no longer verifies, so the read fails ErrIntegrity and
// recovery reports the segment unrecoverable, exactly as raw.
func TestTornDataWriteDetectedNotRepairedCompressed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) {
		testTornDataWriteDetectedNotRepaired(t, mk, true)
	})
}

func testTornDataWriteDetectedNotRepaired(t *testing.T, mk storeMaker, compress bool) {
	geo := layout.Default()
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress}
	fstore := faultfs.New(mk(t))
	lfs, err := New(fstore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldData := bytes.Repeat([]byte{0x66}, 8*4096)
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}

	// Tear the 2nd write of the commit (the data block): phase 1 meta
	// lands, the data block is half old, half new. In compressed mode
	// the block must compress to well OVER half its slot: a tear at
	// 50% of a tiny frame would land every meaningful payload byte and
	// the "torn" block would read back fine — which is correct, but
	// not the case under test. Half random bytes pin the frame above
	// the tear point so the cut lands mid-DEFLATE-stream.
	patch := bytes.Repeat([]byte{0x77}, 4096)
	if compress {
		rand.New(rand.NewSource(42)).Read(patch[:2048])
	}
	fstore.Arm(faultfs.ModeTorn, 2, 0.5)
	f, _ := lfs.OpenRW("f")
	_, _ = f.WriteAt(patch, 0)
	_ = f.Sync()
	_ = f.Close()
	fstore.Disarm()

	// Reads of the torn block fail the integrity check.
	fr, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := fr.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("torn block read: %v, want ErrIntegrity", err)
	}
	// Other blocks remain readable.
	if _, err := fr.ReadAt(buf, 4096); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("adjacent block unreadable: %v", err)
	}
	fr.Close()

	// Recovery reports the segment as unrecoverable.
	if _, err := lfs.Recover("f"); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("recovery of torn write: %v, want ErrUnrecoverable", err)
	}
	if !IsUnrecoverable(ErrUnrecoverable) {
		t.Fatalf("IsUnrecoverable helper broken")
	}
}

// Crash while appending brand-new blocks (old key = hole): recovery
// restores the hole so the file reads consistently at its old size.
func TestCrashDuringAppend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) { testCrashDuringAppend(t, mk, false) })
}

// Appending compressible blocks stores short frames and pads the
// physical extent with a truncate AFTER phase 2 — a crash at any of
// the first write points must still recover to a clean audit (no
// keyed slot beyond the backing extent).
func TestCrashDuringAppendCompressed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) { testCrashDuringAppend(t, mk, true) })
}

func testCrashDuringAppend(t *testing.T, mk storeMaker, compress bool) {
	geo := layout.Default()
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress}
	for crashAt := int64(1); crashAt <= 3; crashAt++ {
		fstore := faultfs.New(mk(t))
		lfs, err := New(fstore, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oldData := bytes.Repeat([]byte{0x88}, 4*4096)
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}

		fstore.Arm(faultfs.ModeCrashAfter, crashAt, 0)
		f, _ := lfs.OpenRW("f")
		_, _ = f.WriteAt(bytes.Repeat([]byte{0x99}, 2*4096), int64(len(oldData)))
		_ = f.Sync()
		_ = f.Close()
		fstore.Disarm()

		if _, err := lfs.Recover("f"); err != nil {
			t.Fatalf("crashAt=%d: recover: %v", crashAt, err)
		}
		rep, err := lfs.Check("f")
		if err != nil || !rep.Clean() {
			t.Fatalf("crashAt=%d: audit: %+v, %v", crashAt, rep, err)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatalf("crashAt=%d: read: %v", crashAt, err)
		}
		// The old prefix must be intact; the size is either old or
		// new depending on whether the final meta write landed.
		if !bytes.Equal(got[:len(oldData)], oldData) {
			t.Fatalf("crashAt=%d: old data damaged", crashAt)
		}
		if len(got) != len(oldData) && len(got) != len(oldData)+2*4096 {
			t.Fatalf("crashAt=%d: unexpected size %d", crashAt, len(got))
		}
		// Any appended region reads as either the new data or zeros.
		for i := len(oldData); i < len(got); i++ {
			if got[i] != 0x99 && got[i] != 0 {
				t.Fatalf("crashAt=%d: appended byte %d = %#x", crashAt, i, got[i])
			}
		}
	}
}

// Recovery is idempotent: running it on a clean file changes nothing.
func TestRecoverCleanFileIsNoOp(t *testing.T) { forEachBackend(t, testRecoverCleanFileIsNoOp) }

func testRecoverCleanFileIsNoOp(t *testing.T, mk storeMaker) {
	store := mk(t)
	lfs, err := New(store, Config{Inner: testKey(1), Outer: testKey(2)})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 130*4096)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	before, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	st, err := lfs.Recover("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 0 || st.Segments != 2 {
		t.Fatalf("stats = %+v", st)
	}
	after, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("recovery of clean file modified it")
	}
	// Recovering an empty file is fine too.
	if err := vfs.WriteAll(lfs, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lfs.Recover("empty"); err != nil {
		t.Fatal(err)
	}
	// Recovering a missing file reports ErrNotExist.
	if _, err := lfs.Recover("missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Recover(missing) = %v", err)
	}
}
