package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
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

// crashFile is the file every §2.4 sweep writes, crashes and recovers.
const crashFile = "f"

// sweepCrashStates is core's one crash-state generator, built the way
// ALICE (Pillai et al., OSDI '14) and CrashMonkey (Mohan et al., OSDI
// '18) build theirs. It writes oldData to crashFile and runs workload
// on it once, on a planStore over a fresh mk(t) store that logs every
// mutation in arrival order. Then, for every stride-th prefix of the
// workload's log, it rebuilds base + prefix in a fresh mk(t) store and
// reboots onto it: a fresh New, Recover and a clean Check of crashFile,
// and check, the sweep's oracle, on the file's recovered content. A
// prefix that ends on a WriteAt is a power cut right after that write;
// §2.4 assumes whole-block writes, so writes are the unit of a cut.
//
// On a multi-slot I/O window the write order changes from run to run,
// so every ninth cut the sweep visits records the workload again and
// replays the new log from that cut on: the sweep samples write orders
// as well as cut points. It returns the first recording's workload
// log.
func sweepCrashStates(t *testing.T, mk storeMaker, cfg Config, stride int, oldData []byte,
	workload func(f vfs.File) error, check func(at string, got []byte)) []storeOp {
	t.Helper()
	record := func() (log []storeOp, base int) {
		ps := &planStore{Store: mk(t)}
		lfs, err := New(ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteAll(lfs, crashFile, oldData); err != nil {
			t.Fatal(err)
		}
		ps.mu.Lock()
		base = len(ps.log)
		ps.mu.Unlock()
		f, err := lfs.OpenRW(crashFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.log, base
	}
	log, base := record()
	first := log[base:]
	for i, cut := 0, 0; cut <= len(log)-base; i, cut = i+1, cut+stride {
		if i%9 == 8 {
			log, base = record()
			cut = min(cut, len(log)-base)
		}
		at := fmt.Sprintf("cut %d of %d", cut, len(log)-base)
		if cut > 0 {
			op := log[base+cut-1]
			at += fmt.Sprintf(" (after %s at %d)", op.kind, op.off)
		}
		store := mk(t)
		files := map[string]backend.File{}
		for _, op := range log[:base+cut] {
			f := files[op.name]
			if f == nil {
				var err error
				if f, err = store.Open(op.name, backend.OpenCreate); err != nil {
					t.Fatalf("%s: rebuild: %v", at, err)
				}
				files[op.name] = f
			}
			var err error
			switch op.kind {
			case "write":
				_, err = f.WriteAt(op.data, op.off)
			case "truncate":
				err = f.Truncate(op.off)
			}
			if err != nil {
				t.Fatalf("%s: rebuild: %v", at, err)
			}
		}
		for _, f := range files {
			f.Close()
		}

		// Reboot: a fresh mount recovers, audits and reads.
		lfs, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lfs.Recover(crashFile); err != nil {
			t.Fatalf("%s: recovery failed: %v", at, err)
		}
		rep, err := lfs.Check(crashFile)
		if err != nil {
			t.Fatalf("%s: check: %v", at, err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: post-recovery audit dirty: %+v", at, rep)
		}
		got, err := vfs.ReadAll(lfs, crashFile)
		if err != nil {
			t.Fatalf("%s: read after recovery: %v", at, err)
		}
		check(at, got)
	}
	return first
}

// TestCrashSweepEveryWritePoint is the central §2.4 validation: crash
// the store after every backend write of a workload, recover, and
// verify that every block of the file decrypts and hash-verifies, and
// that each block holds one of the states the write sequence
// legitimately produced (per-block atomicity — the guarantee the
// multiphase commit provides).
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
	t.Run("one-call-chunks", func(t *testing.T) { crashSweepOneCallChunks(t, mk, false) })
	t.Run("one-call-chunks-compress", func(t *testing.T) { crashSweepOneCallChunks(t, mk, true) })
}

// crashSweepOneCallChunks cuts the chunks of one CPU half: a single
// WriteAt overwrites 3R+2 live blocks of one segment, so the commit it
// triggers derives and encodes the groups it completes once and lands
// them as back-to-back phase 1–3 chunks of liveCap overwrites each; the
// last 2 blocks land at Sync. Every cut must leave each block holding
// its old or its new content.
func crashSweepOneCallChunks(t *testing.T, mk storeMaker, compress bool) {
	geo, err := layout.NewGeometry(1024, 4) // room for 3R+2 blocks in one segment
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress}
	bs := geo.BlockSize
	const first = 1 // the overwrite starts one block into the segment
	n := 3*geo.Reserved + 2
	rng := rand.New(rand.NewSource(5))
	fill := func(b []byte, salt byte) {
		rng.Read(b)
		if !compress {
			return
		}
		// Compressible, and different in every block and version, so
		// no block drops out of the commit as already durable.
		const phrase = "crash sweep compressible payload "
		for i := range b {
			b[i] = phrase[i%len(phrase)] ^ byte(i/bs) ^ salt
		}
	}
	oldData := make([]byte, (first+n+2)*bs)
	fill(oldData, 0)
	newData := make([]byte, n*bs)
	fill(newData, 0x80)

	stride := 1
	if testing.Short() {
		stride = 3
	}
	ops := sweepCrashStates(t, mk, cfg, stride, oldData,
		func(f vfs.File) error {
			if _, err := f.WriteAt(newData, int64(first*bs)); err != nil {
				return err
			}
			return f.Sync()
		},
		func(at string, got []byte) {
			if len(got) != len(oldData) {
				t.Fatalf("%s: size changed: %d", at, len(got))
			}
			for b := 0; b*bs < len(got); b++ {
				blk := got[b*bs : (b+1)*bs]
				if bytes.Equal(blk, oldData[b*bs:(b+1)*bs]) {
					continue
				}
				if j := b - first; j >= 0 && j < n && bytes.Equal(blk, newData[j*bs:(j+1)*bs]) {
					continue
				}
				t.Fatalf("%s: block %d holds neither its old nor its new content", at, b)
			}
		})

	// The cuts must fall between and inside chunks of one commit: at
	// least 3 phase 1–3 chunks of the segment land back to back — a
	// metadata write, its data writes, a metadata write — with no other
	// write between them.
	var seq []byte
	for _, op := range ops {
		switch {
		case op.kind != "write" || op.off >= geo.SegmentPhysBytes():
			seq = append(seq, '.')
		case op.off == geo.MetaBlockOffset(0):
			seq = append(seq, 'M')
		default:
			seq = append(seq, 'D')
		}
	}
	if !regexp.MustCompile(`(MD+M){3}`).Match(seq) {
		t.Fatalf("no 3 back-to-back phase 1–3 chunks of segment 0 in the log %q", seq)
	}
}

func crashSweepEveryWritePoint(t *testing.T, mk storeMaker, compress bool) {
	geo, err := layout.NewGeometry(512, 4) // small blocks: many I/Os, fast
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism 4 on the default window: a commit's phase-2 writes
	// race each other to the store, so a cut keeps an arbitrary subset
	// of them.
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Compression: compress, Parallelism: 4}

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
	hist := blockHistories(oldData, 7, geo.BlockSize, compress)

	// In -short (race-instrumented CI) sample the crash points instead
	// of sweeping all of them; the full sweep runs under `go test`.
	stride := 1
	if testing.Short() {
		stride = 9
	}
	ops := sweepCrashStates(t, mk, cfg, stride, oldData,
		func(f vfs.File) error {
			_, err := writeWorkload(f, oldData, 7, compress)
			return err
		},
		func(at string, got []byte) {
			if len(got) != len(oldData) {
				t.Fatalf("%s: size changed: %d", at, len(got))
			}
			// Every block must hold one of its legitimate states.
			bs := geo.BlockSize
			for b := 0; b*bs < len(got); b++ {
				lo, hi := b*bs, min((b+1)*bs, len(got))
				if !hist[b][string(got[lo:hi])] {
					t.Fatalf("%s: block %d holds a state the workload never produced", at, b)
				}
			}
		})

	// The sweep must cut inside a phase 2: some segment takes two data
	// writes with no metadata write of that segment between them.
	writes, inPhase2, split := 0, map[int64]bool{}, false
	for _, op := range ops {
		if op.kind != "write" {
			continue
		}
		writes++
		seg, meta := op.off/geo.SegmentPhysBytes(), op.off%geo.SegmentPhysBytes() == 0
		split = split || (inPhase2[seg] && !meta)
		inPhase2[seg] = !meta
	}
	if writes < 20 {
		t.Fatalf("workload issued only %d writes; widen it", writes)
	}
	if !split {
		t.Fatalf("no segment took two data writes between metadata writes, so no cut falls inside a phase 2; change the workload")
	}
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
// physical extent with a truncate AFTER phase 2 — a crash anywhere in
// the append, between the pad and the final metadata write included,
// must still recover to a clean audit (no keyed slot beyond the
// backing extent).
func TestCrashDuringAppendCompressed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk storeMaker) { testCrashDuringAppend(t, mk, true) })
}

func testCrashDuringAppend(t *testing.T, mk storeMaker, compress bool) {
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: layout.Default(), Compression: compress}
	oldData := bytes.Repeat([]byte{0x88}, 4*4096)
	sweepCrashStates(t, mk, cfg, 1, oldData,
		func(f vfs.File) error {
			if _, err := f.WriteAt(bytes.Repeat([]byte{0x99}, 2*4096), int64(len(oldData))); err != nil {
				return err
			}
			return f.Sync()
		},
		func(at string, got []byte) {
			// The old prefix must be intact; the size is either old or
			// new depending on whether the final meta write landed.
			if len(got) != len(oldData) && len(got) != len(oldData)+2*4096 {
				t.Fatalf("%s: unexpected size %d", at, len(got))
			}
			if !bytes.Equal(got[:len(oldData)], oldData) {
				t.Fatalf("%s: old data damaged", at)
			}
			// Any appended region reads as either the new data or zeros.
			for i := len(oldData); i < len(got); i++ {
				if got[i] != 0x99 && got[i] != 0 {
					t.Fatalf("%s: appended byte %d = %#x", at, i, got[i])
				}
			}
		})
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
