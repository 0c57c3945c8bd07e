package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
	"lamassu/internal/fstest"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

// The coalescing acceptance bound: a sequential full-segment append
// through the engine commits once — fresh blocks claim no transient
// slots, so the whole 118-block segment batches — and phase 2 merges
// the batch into a single run, for runs+2 = 3 backend writes where the
// paper's cost model charges m+2 = 120. The metrics.IO counter must
// stay under a quarter of that.
func TestCoalescedSegmentCommitThreeIOs(t *testing.T) {
	store := backend.NewMemStore()
	rec := metrics.New()
	cfg := testConfig()
	cfg.Recorder = rec
	lfs := newFS(t, store, cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	k := lfs.geo.KeysPerSegment() // 118 at the default geometry
	for i := 0; i < k; i++ {
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if writes := store.Stats().Writes; writes != 3 {
		t.Fatalf("full-segment append: %d backend writes, want runs+2 = 3", writes)
	}
	if ios := rec.Snapshot().IOs(); 4*ios > int64(k+2) {
		t.Fatalf("metrics.IO = %d for a %d-block append, want under a quarter of the paper's m+2 = %d",
			ios, k, k+2)
	}
}

// Overwrites of live blocks still claim the R transient slots, so the
// paper's batching cadence — one commit per R block writes — is
// preserved for them; coalescing only merges each batch's data writes
// into one run (R+2 -> 3 backend writes per batch). A WriteAt that
// carries many overwrites of one segment checks the trigger once for
// the run, derives and encodes the groups it completes in one fan-out
// each, and lands them as the same R-overwrite chunks; the overwrites
// past the last complete group stay pending for the next write or Sync.
// The per-call I/O counts are taken on a one-slot window, whose commits
// land inside the write that triggers them. On the default window the
// I/O halves, which release the committed part of the pending set, run
// behind the writer, so only the CPU halves' fan-outs are counted per
// call there.
func TestCoalescedOverwriteKeepsPaperBatching(t *testing.T) {
	const batches = 4
	r := layout.Default().Reserved
	for _, tc := range []struct {
		name  string
		calls []overwriteCall
		// sync is the backend writes and WriteRuns after the final Sync.
		syncWrites, syncRuns int64
	}{
		{
			name: "one-block-calls",
			calls: func() []overwriteCall {
				cs := make([]overwriteCall, batches*r)
				for i := range cs {
					n := int64(i+1) / int64(r)
					cs[i] = overwriteCall{first: i, blocks: 1, writes: 3 * n, runs: n, fanouts: 2 * n}
				}
				return cs
			}(),
			syncWrites: batches * 3, syncRuns: batches,
		},
		{
			// 4R+3 overwrites in one call: four chunks from one derive
			// and one encode fan-out, where a per-block trigger runs
			// both four times; the last 3 blocks land at Sync.
			name:       "one-call",
			calls:      []overwriteCall{{first: 0, blocks: batches*r + 3, writes: batches * 3, runs: batches, fanouts: 2}},
			syncWrites: batches*3 + 3, syncRuns: batches + 1,
		},
		{
			// A call that ends mid-segment leaves its last 3 blocks
			// pending; the next call's run completes the group and
			// commits them with it, as one extent.
			name: "ends-mid-segment",
			calls: []overwriteCall{
				{first: 0, blocks: r + 3, writes: 3, runs: 1, fanouts: 2},
				{first: r + 3, blocks: r - 3, writes: 6, runs: 2, fanouts: 4},
			},
			syncWrites: 6, syncRuns: 2,
		},
	} {
		for _, window := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/window=%d", tc.name, window), func(t *testing.T) {
				testOverwriteBatching(t, window, tc.calls, tc.syncWrites, tc.syncRuns)
			})
		}
	}
}

// overwriteCall is one WriteAt of TestCoalescedOverwriteKeepsPaperBatching:
// blocks blocks from block first on. writes and runs are the backend
// writes and WriteRuns so far once the call returns; fanouts counts the
// pool batches so far.
type overwriteCall struct {
	first, blocks         int
	writes, runs, fanouts int64
}

func testOverwriteBatching(t *testing.T, window int, calls []overwriteCall, syncWrites, syncRuns int64) {
	store := backend.NewMemStore()
	rec := metrics.New()
	cfg := testConfig()
	cfg.Recorder = rec
	cfg.IOWindow = window
	lfs := newFS(t, store, cfg)

	data := make([]byte, 64*4096)
	rand.New(rand.NewSource(1)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	store.ResetStats()
	rec.Reset()
	batches0 := lfs.PoolStats().Batches
	want := bytes.Clone(data)
	for i, c := range calls {
		buf := bytes.Repeat([]byte{byte(0x50 + i)}, c.blocks*4096)
		if _, err := f.WriteAt(buf, int64(c.first)*4096); err != nil {
			t.Fatal(err)
		}
		copy(want[c.first*4096:], buf)
		if writes := store.Stats().Writes; window == 1 && writes != c.writes {
			t.Errorf("call %d: %d backend writes so far, want %d", i, writes, c.writes)
		}
		if runs := rec.Snapshot().Event(metrics.WriteRun); window == 1 && runs != c.runs {
			t.Errorf("call %d: WriteRun = %d so far, want %d", i, runs, c.runs)
		}
		if fanouts := lfs.PoolStats().Batches - batches0; fanouts != c.fanouts {
			t.Errorf("call %d: %d pool batches so far, want %d", i, fanouts, c.fanouts)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if writes := store.Stats().Writes; writes != syncWrites {
		t.Errorf("after Sync: %d backend writes, want %d", writes, syncWrites)
	}
	if runs := rec.Snapshot().Event(metrics.WriteRun); runs != syncRuns {
		t.Errorf("after Sync: WriteRun = %d, want %d", runs, syncRuns)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back differs from what was written")
	}
}

// A multi-block read merges adjacent blocks into one backend read per
// segment-contiguous run.
func TestCoalescedReadRunIOs(t *testing.T) {
	store := backend.NewMemStore()
	rec := metrics.New()
	cfg := testConfig()
	cfg.Recorder = rec
	lfs := newFS(t, store, cfg)

	k := lfs.geo.KeysPerSegment()
	data := make([]byte, 2*k*4096) // exactly two full segments
	rand.New(rand.NewSource(2)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	store.ResetStats()
	rec.Reset()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("coalesced read returned wrong bytes")
	}
	// One data read per segment run plus one metadata read per segment.
	if reads := store.Stats().Reads; reads != 4 {
		t.Fatalf("%d backend reads for a 2-segment read, want 4 (2 runs + 2 metas)", reads)
	}
	if runs := rec.Snapshot().Event(metrics.ReadRun); runs != 2 {
		t.Fatalf("ReadRun = %d, want 2", runs)
	}
}

// Readahead conformance: the async prefetcher must never change what a
// reader observes.
func TestConformanceWithReadahead(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 64
	cfg.Readahead = 8
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

// A forward scan arms the readahead, which populates the block cache
// ahead of the reader. A read at offset 0 starts a scan, so it arms the
// first window, blocks 1–16: that prefetch's backend read is held by
// count until the test has seen it in flight, and once Close has waited
// for it, every block of the window is cached.
func TestReadaheadPopulatesCache(t *testing.T) {
	geo := layout.Default()
	rec := metrics.New()
	cfg := testConfig()
	cfg.Recorder = rec
	cfg.CacheBlocks = 1024
	cfg.Readahead = 16
	sched := faultfs.NewScheduler(faultfs.Policy{})
	lfs := newFS(t, sched.Leaf(0, backend.NewMemStore()), cfg)

	data := make([]byte, 256*4096)
	rand.New(rand.NewSource(3)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	window := [2]int64{geo.DataBlockOffset(1), geo.DataBlockOffset(1 + int64(cfg.Readahead))}
	sched.SetPolicy(faultfs.When(func(ev *faultfs.Event) bool {
		return ev.Op == faultfs.OpRead && ev.Off >= window[0] && ev.Off < window[1]
	}, faultfs.Park))
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data[:4096]) {
		t.Fatalf("block 0: %v, equal %v", err, bytes.Equal(buf, data[:4096]))
	}
	prefetch := sched.Await(t, 1)
	sched.Stop()
	faultfs.Release(prefetch...)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for b := int64(1); b <= int64(cfg.Readahead); b++ {
		if !lfs.cache.getData("f", b, buf) {
			t.Fatalf("block %d of the readahead window is not cached", b)
		}
	}

	if f, err = lfs.Open("f"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[i*4096:(i+1)*4096]) {
			t.Fatalf("block %d: wrong bytes", i)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Event(metrics.Prefetch); got == 0 {
		t.Fatal("sequential scan issued no prefetch")
	}
	if hits := lfs.CacheStats().Hits; hits == 0 {
		t.Fatal("no cache activity after readahead")
	}
}

// A crash that tears a coalesced run write at a BLOCK boundary is the
// same failure the paper's model already recovers from: some blocks of
// the batch landed, some did not. For a fresh append the unlanded
// blocks revert to holes; for live overwrites they revert to their
// transient (old) keys.
func TestCrashMidRunWrite(t *testing.T) {
	// Fresh append: 16 fresh blocks commit as a single run at Sync;
	// tear the run at 1/4, 1/2, 3/4 (block-aligned).
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		fstore := faultfs.New(backend.NewMemStore())
		lfs := newFS(t, fstore, testConfig())
		f, err := lfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 16
		data := make([]byte, blocks*4096)
		rand.New(rand.NewSource(4)).Read(data)
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		// Write 1 is the phase-1 metadata block; write 2 is the run.
		fstore.Arm(faultfs.ModeTorn, 2, frac)
		if err := f.Sync(); err == nil {
			t.Fatalf("frac=%.2f: sync succeeded despite torn run", frac)
		}
		_ = f.Close()
		fstore.Disarm()

		if _, err := lfs.Recover("f"); err != nil {
			t.Fatalf("frac=%.2f: recovery failed: %v", frac, err)
		}
		rep, err := lfs.Check("f")
		if err != nil || !rep.Clean() {
			t.Fatalf("frac=%.2f: post-recovery audit: %+v err=%v", frac, rep, err)
		}
		landed := int(float64(blocks*4096)*frac) / 4096
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatalf("frac=%.2f: read after recovery: %v", frac, err)
		}
		zeroBlock := make([]byte, 4096)
		for b := 0; b < blocks && b*4096 < len(got); b++ {
			blk := got[b*4096 : min((b+1)*4096, len(got))]
			switch {
			case b < landed:
				if !bytes.Equal(blk, data[b*4096:b*4096+len(blk)]) {
					t.Fatalf("frac=%.2f: landed block %d lost", frac, b)
				}
			default:
				if !bytes.Equal(blk, zeroBlock[:len(blk)]) {
					t.Fatalf("frac=%.2f: unlanded block %d not a hole", frac, b)
				}
			}
		}
	}

	// Live overwrite: R contiguous blocks commit as one run; tear it
	// mid-run and every block must come back as either its old or its
	// new value.
	for _, frac := range []float64{0.25, 0.5} {
		fstore := faultfs.New(backend.NewMemStore())
		lfs := newFS(t, fstore, testConfig())
		r := lfs.geo.Reserved
		oldData := make([]byte, r*4096)
		rand.New(rand.NewSource(5)).Read(oldData)
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}
		newData := make([]byte, r*4096)
		rand.New(rand.NewSource(6)).Read(newData)

		f, err := lfs.OpenRW("f")
		if err != nil {
			t.Fatal(err)
		}
		fstore.Arm(faultfs.ModeTorn, 2, frac) // write 1 = phase-1 meta, write 2 = the run
		_, werr := f.WriteAt(newData, 0)      // Rth live overwrite triggers the commit
		// The commit may run behind the write; its error then surfaces
		// at the Close barrier.
		if cerr := f.Close(); werr == nil && cerr == nil {
			t.Fatalf("frac=%.2f: overwrite succeeded despite torn run", frac)
		}
		fstore.Disarm()

		if _, err := lfs.Recover("f"); err != nil {
			t.Fatalf("frac=%.2f: recovery failed: %v", frac, err)
		}
		rep, err := lfs.Check("f")
		if err != nil || !rep.Clean() {
			t.Fatalf("frac=%.2f: post-recovery audit: %+v err=%v", frac, rep, err)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatalf("frac=%.2f: read after recovery: %v", frac, err)
		}
		for b := 0; b < r; b++ {
			blk := got[b*4096 : (b+1)*4096]
			if !bytes.Equal(blk, oldData[b*4096:(b+1)*4096]) && !bytes.Equal(blk, newData[b*4096:(b+1)*4096]) {
				t.Fatalf("frac=%.2f: block %d holds neither old nor new value", frac, b)
			}
		}
	}
}

// A transient phase-2 failure must not strand the segment: with two
// non-adjacent runs of fresh blocks, the first run lands and the
// second fails; recovery then promotes the landed blocks to LIVE
// under their new keys, and a naive retry would count them against
// the R transient slots and fail forever with an internal error. The
// commit must recognize already-durable blocks (stable key == derived
// key, one-to-one with content under convergent encryption), skip
// them, and converge.
func TestCommitRetryAfterPartialRunFailure(t *testing.T) {
	fstore := faultfs.New(backend.NewMemStore())
	lfs := newFS(t, fstore, testConfig())
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	// Two 10-block runs (blocks 0-9 and 20-29): 20 fresh blocks, more
	// than R=8 of them, committing as two WriteAts at Sync.
	data := make([]byte, 10*4096)
	rand.New(rand.NewSource(10)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 20*4096); err != nil {
		t.Fatal(err)
	}
	// Write 1 = phase-1 meta, writes 2 and 3 = the two runs. Drop the
	// third (one run lands, one does not).
	fstore.Arm(faultfs.ModeCrashBefore, 3, 0)
	if err := f.Sync(); err == nil {
		t.Fatal("sync succeeded despite dropped run write")
	}
	fstore.Disarm()

	// The "transient" failure is over; the retry must converge.
	if err := f.Sync(); err != nil {
		t.Fatalf("commit retry after partial run failure: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("post-retry audit: %+v err=%v", rep, err)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:10*4096], data) || !bytes.Equal(got[20*4096:30*4096], data) {
		t.Fatal("retried commit lost data")
	}
}

// Zero-length reads inside the file are free: no backend I/O, no
// error, (0, nil) — as before coalescing.
func TestZeroLengthReadIsNoOp(t *testing.T) {
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	if err := vfs.WriteAll(lfs, "f", make([]byte, 8*4096)); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store.ResetStats()
	if n, err := f.ReadAt(nil, 4096); n != 0 || err != nil {
		t.Fatalf("ReadAt(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := f.ReadAt([]byte{}, 100); n != 0 || err != nil {
		t.Fatalf("ReadAt(empty) = (%d, %v), want (0, nil)", n, err)
	}
	if reads := store.Stats().Reads; reads != 0 {
		t.Fatalf("zero-length reads issued %d backend reads, want 0", reads)
	}
}

// A tear INSIDE a block (not at a block boundary) is the torn
// sub-block write the paper's model explicitly does not defend
// against; it must be detected as unrecoverable, not silently
// repaired.
func TestCrashMidRunWriteTornBlockDetected(t *testing.T) {
	fstore := faultfs.New(backend.NewMemStore())
	lfs := newFS(t, fstore, testConfig())
	r := lfs.geo.Reserved
	oldData := make([]byte, r*4096)
	rand.New(rand.NewSource(7)).Read(oldData)
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}
	newData := make([]byte, r*4096)
	rand.New(rand.NewSource(8)).Read(newData)
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	// 0.4375 of an 8-block run = 3.5 blocks: block 3 is torn mid-block.
	fstore.Arm(faultfs.ModeTorn, 2, 3.5/float64(r))
	_, werr := f.WriteAt(newData, 0)
	// The commit may run behind the write; its error then surfaces at
	// the Close barrier.
	if cerr := f.Close(); werr == nil && cerr == nil {
		t.Fatal("overwrite succeeded despite torn run")
	}
	fstore.Disarm()
	if _, err := lfs.Recover("f"); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("recovery of torn sub-block write: err=%v, want ErrUnrecoverable", err)
	}
}

// Zero-allocation guards for the hot loops: a cache-hit full-block
// read and an overwrite of an already-pending block must not touch the
// heap at all in steady state.
func TestZeroAllocCachedRead(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 64
	lfs := newFS(t, backend.NewMemStore(), cfg)
	data := make([]byte, 16*4096)
	rand.New(rand.NewSource(9)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil { // populate the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit ReadAt allocates %.1f times per op, want 0", allocs)
	}
}

// A cache-miss one-block read runs through the multi-block read's
// extent fetch and allocates nothing: the fetch must keep the read's
// one-span array off the heap, and the §2.5 hash check derives its key
// through the KDF kernel, whose arrays stay on the stack.
func TestCacheMissReadAllocs(t *testing.T) {
	lfs := newFS(t, backend.NewMemStore(), testConfig()) // no cache: every read misses
	data := make([]byte, 16*4096)
	rand.New(rand.NewSource(9)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 4096); err != nil { // load the metadata
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-miss ReadAt allocates %.1f times per op, want 0", allocs)
	}
	if !bytes.Equal(buf, data[4096:8192]) {
		t.Fatal("cache-miss ReadAt returned the wrong bytes")
	}
}

// On a full cache every miss inserts and evicts, and still allocates
// nothing: the insert fills the entry the last eviction retired.
func TestCacheFullMissReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops slab pool items")
	}
	const blocks, capBlocks = 16, 4
	cfg := testConfig()
	cfg.CacheBlocks = capBlocks
	lfs := newFS(t, backend.NewMemStore(), cfg)
	data := make([]byte, blocks*4096)
	rand.New(rand.NewSource(9)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	next := 0
	read := func() {
		off := int64(next%blocks) * 4096
		next++
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+4096]) {
			t.Fatalf("full-cache miss at %d returned the wrong bytes", off)
		}
	}
	for i := 0; i < 2*blocks; i++ { // fill the cache and its spares
		read()
	}
	before := lfs.CacheStats()
	allocs := testing.AllocsPerRun(200, read)
	if allocs != 0 {
		t.Fatalf("full-cache miss ReadAt allocates %.1f times per op, want 0", allocs)
	}
	// Cycling 16 blocks through 4 entries, every read misses.
	if st := lfs.CacheStats(); st.Entries != capBlocks || st.Hits != before.Hits {
		t.Fatalf("cache stats %+v after %+v, want a full cache and no hits", st, before)
	}
}

// A metadata write seals into its slab through the FS's one GCM, so
// the two barriers of every commit allocate nothing.
func TestWriteMetaNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops slab pool items")
	}
	cfg := testConfig()
	cfg.CacheBlocks = 16
	lfs := newFS(t, backend.NewMemStore(), cfg)
	bf, err := lfs.store.Open("f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	m := layout.NewMetaBlock(lfs.geo, 0)
	m.SetStableKey(3, testKey(9))
	m.LogicalSize = 5 * 4096
	if err := lfs.writeMeta(nil, bf, "f", m); err != nil { // the store grows once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := lfs.writeMeta(nil, bf, "f", m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writeMeta allocates %.1f times per call, want 0", allocs)
	}
	got, err := lfs.readMeta(nil, bf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Slots, m.Slots) || got.LogicalSize != m.LogicalSize {
		t.Fatal("metadata read back differs from what was written")
	}
}

// A metadata read decodes in its slab, so the MetaBlock it returns
// (with its slot table, one allocation under the default geometry) is
// all it allocates.
func TestReadMetaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops slab pool items")
	}
	lfs := newFS(t, backend.NewMemStore(), testConfig())
	bf, err := lfs.store.Open("f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	m := layout.NewMetaBlock(lfs.geo, 0)
	m.SetStableKey(3, testKey(9))
	m.LogicalSize = 5 * 4096
	if err := lfs.writeMeta(nil, bf, "f", m); err != nil {
		t.Fatal(err)
	}
	var got *layout.MetaBlock
	allocs := testing.AllocsPerRun(200, func() {
		if got, err = lfs.readMeta(nil, bf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readMeta allocates %.1f times per call, want 1", allocs)
	}
	if !reflect.DeepEqual(got.Slots, m.Slots) || got.LogicalSize != m.LogicalSize {
		t.Fatal("metadata read back differs from what was written")
	}
}

func TestZeroAllocPendingOverwrite(t *testing.T) {
	lfs := newFS(t, backend.NewMemStore(), testConfig())
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil { // block 0 becomes pending
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pending-hit WriteAt allocates %.1f times per op, want 0", allocs)
	}
}

// Reads served from pending state through the single-block fast path
// are also allocation-free.
func TestZeroAllocPendingRead(t *testing.T) {
	lfs := newFS(t, backend.NewMemStore(), testConfig())
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pending-hit ReadAt allocates %.1f times per op, want 0", allocs)
	}
}

// A segment joins the handle's dirty set with its first pending block,
// and Sync and a shrink drain it, so neither walks every segment the
// handle has touched.
func TestDirtySegmentsDrain(t *testing.T) {
	lfs := newFS(t, backend.NewMemStore(), testConfig())
	vf, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	f := vf.(*file)
	defer f.Close()
	seg := int64(lfs.geo.KeysPerSegment() * lfs.geo.BlockSize)
	block := bytes.Repeat([]byte{7}, lfs.geo.BlockSize)
	dirty := func() []int64 {
		f.stateMu.Lock()
		defer f.stateMu.Unlock()
		return slices.Sorted(maps.Keys(f.dirty))
	}
	write := func(segs ...int64) {
		t.Helper()
		for _, si := range segs {
			if _, err := f.WriteAt(block, si*seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(4, 0, 2)
	if got := dirty(); !slices.Equal(got, []int64{0, 2, 4}) {
		t.Fatalf("dirty segments %v after writes to 4, 0, 2", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := dirty(); len(got) != 0 {
		t.Fatalf("dirty segments %v after Sync", got)
	}
	write(1, 3)
	if err := f.Truncate(2*seg + 1); err != nil { // drops segment 3's block
		t.Fatal(err)
	}
	if got := dirty(); len(got) != 0 {
		t.Fatalf("dirty segments %v after a shrink", got)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*seg+1)
	for _, si := range []int64{0, 1} {
		copy(want[si*seg:], block)
	}
	want[2*seg] = 7
	if !bytes.Equal(got, want) {
		t.Fatal("content after the drained commits differs")
	}
}

// TestPlanExtents table-tests the one adjacency rule both directions
// plan under. Blocks are data-block indices in the default geometry
// (K = 118 blocks per segment); F is a block stored full-slot, S one
// stored short.
func TestPlanExtents(t *testing.T) {
	geo := layout.Default()
	bs := geo.BlockSize
	k := int64(geo.KeysPerSegment())
	planner := func(stripeBlocks int64) *file {
		fs := &FS{geo: geo}
		if stripeBlocks > 0 {
			fs.sharded = stripedPlanStore{&planStore{stripe: stripeBlocks * int64(bs)}}
		}
		return &file{fs: fs, name: "f"}
	}
	bounds := func(exts []extent) [][2]int {
		out := make([][2]int, len(exts))
		for i, x := range exts {
			out[i] = [2]int{x.lo, x.hi}
		}
		return out
	}
	plan := func(f *file, blocks []int64, mix string) []extent {
		return f.planExtents(len(blocks),
			func(i int) int64 { return blocks[i] },
			func(i int) int {
				if mix[i] == 'S' {
					return bs / 2
				}
				return bs
			})
	}
	seq := func(from int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = from + int64(i)
		}
		return out
	}

	for _, tc := range []struct {
		name         string
		stripeBlocks int64
		blocks       []int64
		mix          string
		want         [][2]int
	}{
		{"all-full neighbours merge", 0, seq(0, 6), "FFFFFF", [][2]int{{0, 6}}},
		{"short block ends its extent, and may be its last block", 0,
			seq(0, 6), "FFSFSS", [][2]int{{0, 3}, {3, 5}, {5, 6}}},
		{"gap splits", 0, []int64{0, 1, 3, 4}, "FFFF", [][2]int{{0, 2}, {2, 4}}},
		// Block i is physical block i+1, so 4-block stripes end after
		// blocks 2 and 6.
		{"stripe edge splits", 4, seq(0, 8), "FFFFFFFF", [][2]int{{0, 3}, {3, 7}, {7, 8}}},
		{"segment edge splits", 0, seq(k-2, 4), "FFFF", [][2]int{{0, 2}, {2, 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := bounds(plan(planner(tc.stripeBlocks), tc.blocks, tc.mix))
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("extents %v, want %v", got, tc.want)
			}
		})
	}

	// One stripe has one owner group, so an extent inside one stripe
	// is one store call on one owner group.
	t.Run("every extent carries its offset and owner", func(t *testing.T) {
		stripe := 4 * int64(bs)
		for _, x := range plan(planner(4), seq(0, 8), "FFFFFFFF") {
			off := geo.DataBlockOffset(int64(x.lo))
			last := geo.DataBlockOffset(int64(x.hi - 1))
			if x.off != off || off/stripe != last/stripe {
				t.Fatalf("extent %+v: want off %d and one stripe, got stripes %d..%d", x, off, off/stripe, last/stripe)
			}
		}
	})

	// A raw segment is the all-full case of a compressed one; and the
	// commit's view of a batch (sorted slots + encoded lengths) plans
	// the same boundaries as a read's view of the same blocks (spans +
	// the sealed length table) — the promise that what was written as
	// one I/O is fetched as one I/O.
	t.Run("raw equals all-full, commit plan equals read plan", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for round := 0; round < 50; round++ {
			f := planner(int64(rng.Intn(3)) * 3) // unsharded, or 3/6-block stripes
			const si = 2
			raw := layout.NewMetaBlock(geo, si)
			full := layout.NewMetaBlock(geo, si)
			full.InitCompressed()
			mixed := layout.NewMetaBlock(geo, si)
			mixed.InitCompressed()
			var slots, lens []int
			var spans []vfs.Span
			for s := 0; s < int(k); s++ {
				if rng.Intn(4) == 0 {
					continue
				}
				units := geo.UnitsPerBlock()
				if rng.Intn(3) == 0 {
					units = 1 + rng.Intn(units-1)
				}
				full.SetStoredLen(s, uint8(geo.UnitsPerBlock()))
				mixed.SetStoredLen(s, uint8(units))
				slots = append(slots, s)
				lens = append(lens, units*layout.LenUnit)
				spans = append(spans, vfs.Span{Index: si*k + int64(s)})
			}
			readPlan := func(meta *layout.MetaBlock) [][2]int {
				return bounds(f.planExtents(len(spans),
					func(i int) int64 { return spans[i].Index },
					func(i int) int { return storedBytes(meta, geo.SlotOfBlock(spans[i].Index), bs) }))
			}
			if r, c := readPlan(raw), readPlan(full); !reflect.DeepEqual(r, c) {
				t.Fatalf("round %d: raw plan %v != all-full compressed plan %v", round, r, c)
			}
			commitPlan := bounds(f.planExtents(len(slots),
				func(i int) int64 { return si*k + int64(slots[i]) },
				func(i int) int { return lens[i] }))
			if r := readPlan(mixed); !reflect.DeepEqual(commitPlan, r) {
				t.Fatalf("round %d: commit plan %v != read plan %v", round, commitPlan, r)
			}
		}
	})
}
