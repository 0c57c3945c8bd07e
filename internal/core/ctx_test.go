package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	"lamassu/internal/simclock"
	"lamassu/internal/vfs"
)

// writeWorkloadCtx is writeWorkload driven through the context-aware
// methods; identical offsets/contents per seed, so blockHistories
// applies unchanged.
func writeWorkloadCtx(ctx context.Context, f vfs.File, oldData []byte, seed int64) ([]byte, error) {
	want := append([]byte(nil), oldData...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		off := rng.Intn(len(want) - 4096)
		n := rng.Intn(3*4096) + 100
		if off+n > len(want) {
			n = len(want) - off
		}
		chunk := make([]byte, n)
		rng.Read(chunk)
		if _, err := f.WriteAtCtx(ctx, chunk, int64(off)); err != nil {
			return want, err
		}
		copy(want[off:off+n], chunk)
	}
	if err := f.SyncCtx(ctx); err != nil {
		return want, err
	}
	return want, nil
}

// cancelFixture builds the store stack for one sweep configuration over
// leaves leaf makes: unsharded (one scheduled leaf) or sharded (two
// scheduled leaves behind a striping shard.Store, stripe = one
// segment). The scheduler threads ctx to the leaves, so the fixture
// doubles as a check that ctx threads through every wrapper above them.
func cancelFixture(t *testing.T, geo layout.Geometry, sharded bool, sched *faultfs.Scheduler, leaf func() backend.Store) backend.Store {
	t.Helper()
	if !sharded {
		return sched.Leaf(0, leaf())
	}
	stores := []backend.Store{sched.Leaf(0, leaf()), sched.Leaf(1, leaf())}
	ss, err := shard.New(stores, shard.Config{StripeBytes: geo.SegmentPhysBytes()})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func memLeaf() backend.Store { return backend.NewMemStore() }

// TestCancelMidCommitSweep is the cancellation analogue of the §2.4
// crash sweep, and the PR's acceptance property: cancel the workload
// after the 1st, 2nd, 3rd, ... backend write; the failing operation
// must report ErrCanceled (wrapping context.Canceled), and after
// recovery every block must hold a state the workload legitimately
// produced. Swept sharded and unsharded — and once more each with its
// writes pipelined on an I/O window over the object backend, where a
// cut also strands multipart sessions and the commits the workload's
// writes trigger run behind them (writebehind.go).
func TestCancelMidCommitSweep(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "unsharded"
		if sharded {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("coalesced", func(t *testing.T) { cancelMidCommitSweep(t, sharded, false) })
			t.Run("coalesced-windowed-objstore", func(t *testing.T) { cancelMidCommitSweep(t, sharded, true) })
		})
	}
}

// cancelMidCommitSweep runs the sweep over memory stores, or — remote —
// over zero-latency object stores with an I/O window of 8.
func cancelMidCommitSweep(t *testing.T, sharded, remote bool) {
	geo, err := layout.NewGeometry(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo}
	var servers []*objstore.Memserver
	leaf := memLeaf
	if remote {
		cfg.IOWindow = 8
		leaf = func() backend.Store {
			srv := objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual())
			servers = append(servers, srv)
			return objstore.New(srv)
		}
	}

	oldData := make([]byte, 40*1024)
	rand.New(rand.NewSource(99)).Read(oldData)

	// Dry run: count the workload's backend writes.
	sched := faultfs.NewScheduler(faultfs.Policy{})
	store := cancelFixture(t, geo, sharded, sched, leaf)
	lfs, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}
	sched.Take()
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeWorkloadCtx(context.Background(), f, oldData, 7); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	totalWrites := faultfs.Count(sched.Take(), faultfs.OpWrite)
	if totalWrites < 10 {
		t.Fatalf("workload issued only %d backend writes; widen it", totalWrites)
	}
	hist := blockHistories(oldData, 7, geo.BlockSize, false)

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for cancelAt := 1; cancelAt <= totalWrites; cancelAt += stride {
		sched := faultfs.NewScheduler(faultfs.Policy{})
		servers = servers[:0]
		store := cancelFixture(t, geo, sharded, sched, leaf)
		lfs, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		sched.SetPolicy(faultfs.CancelAfter(faultfs.OpWrite, cancelAt, cancel))
		fw, err := lfs.OpenRW("f")
		if err != nil {
			t.Fatalf("cancelAt=%d: open: %v", cancelAt, err)
		}
		_, werr := writeWorkloadCtx(ctx, fw, oldData, 7)
		sched.SetPolicy(faultfs.Policy{})
		cancel()
		if werr == nil {
			t.Fatalf("cancelAt=%d: workload succeeded despite cancellation", cancelAt)
		}
		if !errors.Is(werr, ErrCanceled) {
			t.Fatalf("cancelAt=%d: error %v does not wrap ErrCanceled", cancelAt, werr)
		}
		if !errors.Is(werr, context.Canceled) {
			t.Fatalf("cancelAt=%d: error %v does not wrap context.Canceled", cancelAt, werr)
		}
		// Every column's mount has a window of more than one slot, so a
		// write that failed up front returns with commits still behind
		// it; closing under the dead ctx cancels and waits for them, so
		// the cut is complete before the store is recovered — otherwise
		// the old engine's handed-off halves would still be writing
		// while the fresh one recovers. Whatever it reports is that same
		// cancellation.
		_ = fw.CloseCtx(ctx)
		// Abandon the handle (as a request handler timing out would) and
		// verify through a FRESH engine over the surviving store that the
		// file is recoverable — the crash-equivalence guarantee.
		lfs2, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lfs2.Recover("f"); err != nil {
			t.Fatalf("cancelAt=%d: recovery failed: %v", cancelAt, err)
		}
		rep, err := lfs2.Check("f")
		if err != nil {
			t.Fatalf("cancelAt=%d: check: %v", cancelAt, err)
		}
		if !rep.Clean() {
			t.Fatalf("cancelAt=%d: post-recovery audit dirty: %+v", cancelAt, rep)
		}
		got, err := vfs.ReadAll(lfs2, "f")
		if err != nil {
			t.Fatalf("cancelAt=%d: read after recovery: %v", cancelAt, err)
		}
		if len(got) != len(oldData) {
			t.Fatalf("cancelAt=%d: size changed: %d", cancelAt, len(got))
		}
		bs := geo.BlockSize
		for b := 0; b*bs < len(got); b++ {
			lo, hi := b*bs, (b+1)*bs
			if hi > len(got) {
				hi = len(got)
			}
			if !hist[b][string(got[lo:hi])] {
				t.Fatalf("cancelAt=%d: block %d holds a state the workload never produced", cancelAt, b)
			}
		}
		// The cut may strand multipart sessions — crash state on the
		// server — but a committed write after it leaves none behind.
		if remote {
			if err := vfs.WriteAll(lfs2, "f", oldData); err != nil {
				t.Fatalf("cancelAt=%d: rewrite after recovery: %v", cancelAt, err)
			}
			for i, srv := range servers {
				if open := srv.Stats().OpenUploads; open != 0 {
					t.Fatalf("cancelAt=%d: %d multipart sessions open on leaf %d after a committed write", cancelAt, open, i)
				}
			}
		}
	}
}

// TestWriteBehindErrorSurfaces: a handed-off commit that fails — here
// on a fatal fault at its phase-2 write — surfaces at the handle's next
// operations. The next WriteAt into its segment returns that error (not
// the internal batch-cap error a write into the still-staged segment
// would otherwise hit), Sync returns it, and a retried Sync with the
// fault gone leaves the audit clean and the bytes of a run that never
// faulted.
func TestWriteBehindErrorSurfaces(t *testing.T) {
	geo := layout.Default()
	data := compressibleBytes(31, geo.KeysPerSegment()*geo.BlockSize, 1) // fills segment 0
	cfg := testConfig()
	cfg.IOWindow = 8

	// run writes data through a fresh windowed mount (faulting the
	// segment's phase-2 write, its second, when fault is set) and
	// returns the mount and its backing store.
	run := func(fault bool) (*FS, backend.Store) {
		mem := backend.NewMemStore()
		fstore := faultfs.New(mem)
		lfs := newFS(t, fstore, cfg)
		f, err := lfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if fault {
			fstore.Arm(faultfs.ModeCrashBefore, 2, 0)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatalf("the write that triggers the commit: %v", err)
		}
		if fault {
			_, err := f.WriteAt([]byte("late"), 0) // into the failed segment
			if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("next WriteAt: %v, want the failed commit's %v", err, faultfs.ErrCrashed)
			}
			if err := f.Sync(); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("Sync: %v, want the failed commit's %v", err, faultfs.ErrCrashed)
			}
			fstore.Disarm()
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("Sync (retried: %v): %v", fault, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return lfs, mem
	}

	var raw [2][]byte
	for i, fault := range []bool{false, true} {
		lfs, mem := run(fault)
		if rep, err := lfs.Check("f"); err != nil || !rep.Clean() {
			t.Fatalf("fault %v: audit %+v, %v", fault, rep, err)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("fault %v: read back %d bytes, %v; want the written segment", fault, len(got), err)
		}
		if raw[i], err = backend.ReadFile(mem, "f"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(maskMetaBlocks(raw[0]), maskMetaBlocks(raw[1])) {
		t.Fatal("the retried commit left other data blocks than a run that never faulted")
	}
}

// TestWriteBehindCanceledWait: a Sync whose ctx is dead cancels the
// handle's commits in flight, whichever ctx the writes that handed them
// off carried. Segment 0's phase-2 write is held in flight while Sync
// waits under a dead ctx; the commit's ctx dies (the held write sees
// it), the write lands, and the commit stops before its phase 3: Sync
// reports ErrCanceled and the segment is left mid-update on disk, a
// crash cut at that write. A retried Sync with a live ctx converges.
func TestWriteBehindCanceledWait(t *testing.T) {
	geo := layout.Default()
	data := compressibleBytes(71, geo.KeysPerSegment()*geo.BlockSize, 1) // fills segment 0
	mem := backend.NewMemStore()
	sched := faultfs.NewScheduler(parkFirstWrites(geo.DataBlockOffset(0)))
	cfg := testConfig()
	cfg.IOWindow = 8
	lfs := newFS(t, sched.Leaf(0, mem), cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	writeBehind(t, f, data, 0)
	phase2 := sched.Await(t, 1)[0]

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	synced := make(chan error, 1)
	go func() { synced <- f.SyncCtx(dead) }()
	if phase2.Ctx == nil {
		t.Fatal("the commit's phase-2 write carries no ctx to cancel")
	}
	select {
	case <-phase2.Ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SyncCtx under a dead ctx left the commit in flight uncanceled")
	}
	phase2.Release()
	if err := <-synced; !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("SyncCtx under a dead ctx: %v, want ErrCanceled", err)
	}
	raw, err := backend.ReadFile(mem, "f")
	if err != nil {
		t.Fatal(err)
	}
	m, err := layout.DecodeMetaBlock(geo, raw[:geo.BlockSize], lfs.sealer, 0)
	if err != nil || !m.MidUpdate() {
		t.Fatalf("segment 0 after the canceled wait: %v, mid-update %v; want the phase-3 write never issued", err, err == nil && m.MidUpdate())
	}

	if err := f.SyncCtx(context.Background()); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := lfs.Check("f"); err != nil || !rep.Clean() {
		t.Fatalf("audit after the retried Sync: %+v, %v", rep, err)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v; want the written segment", len(got), err)
	}
}

// TestCancelRetryConverges: after a mid-commit cancellation, retrying
// the flush on the SAME handle with a live context must complete the
// write — the staged pending blocks survive the cancellation and the
// implicit midupdate repair re-commits only what never landed. The
// canceled commit is one a WriteAt triggered, which runs behind the
// writer on the default window, so the first live Sync reports the
// cancel it recorded (the write-back contract) and the retried one
// converges.
func TestCancelRetryConverges(t *testing.T) {
	t.Run("coalesced", func(t *testing.T) {
		geo, err := layout.NewGeometry(512, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo}
		sched := faultfs.NewScheduler(faultfs.Policy{})
		lfs, err := New(sched.Leaf(0, backend.NewMemStore()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		oldData := make([]byte, 32*1024)
		rand.New(rand.NewSource(5)).Read(oldData)
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}

		f, err := lfs.OpenRW("f")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sched.SetPolicy(faultfs.CancelAfter(faultfs.OpWrite, 2, cancel)) // cancel mid-phase-2
		_, werr := writeWorkloadCtx(ctx, f, oldData, 11)
		sched.SetPolicy(faultfs.Policy{})
		cancel()
		if werr == nil || !errors.Is(werr, ErrCanceled) {
			t.Fatalf("expected mid-commit cancellation, got %v", werr)
		}

		// The barrier reports the canceled write-behind commit once.
		if err := f.SyncCtx(context.Background()); !errors.Is(err, ErrCanceled) {
			t.Fatalf("first sync: %v, want the recorded cancellation", err)
		}
		// Retry with a live context: the staged blocks (including the
		// partially-applied canceled write — per-block atomicity, as
		// in the crash model) must flush cleanly.
		if err := f.SyncCtx(context.Background()); err != nil {
			t.Fatalf("retry sync: %v", err)
		}
		rep, err := lfs.Check("f")
		if err != nil || !rep.Clean() {
			t.Fatalf("audit after retried sync: %+v, %v", rep, err)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatal(err)
		}
		hist := blockHistories(oldData, 11, geo.BlockSize, false)
		bs := geo.BlockSize
		for b := 0; b*bs < len(got); b++ {
			lo, hi := b*bs, min((b+1)*bs, len(got))
			if !hist[b][string(got[lo:hi])] {
				t.Fatalf("block %d holds a state the workload never produced", b)
			}
		}

		// The handle stays fully usable: a complete overwrite with a
		// live context lands exactly.
		final := make([]byte, len(oldData))
		rand.New(rand.NewSource(12)).Read(final)
		if _, err := f.WriteAtCtx(context.Background(), final, 0); err != nil {
			t.Fatalf("post-cancel overwrite: %v", err)
		}
		if err := f.SyncCtx(context.Background()); err != nil {
			t.Fatalf("post-cancel sync: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err = vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, final) {
			t.Fatalf("content after post-cancel overwrite diverged")
		}
	})
}

// TestPreCanceledContext: an already-canceled context fails fast on
// every context-aware operation, with both sentinels visible, and a
// nil context means "no cancellation" everywhere — on the plain engine
// and on the sharded + compressed + windowed one, whose multi-block
// reads dispatch on the I/O window.
func TestPreCanceledContext(t *testing.T) {
	geo := layout.Default()
	windowed := compressedConfig()
	windowed.IOWindow = 32
	for _, tc := range []struct {
		name  string
		store backend.Store
		cfg   Config
		data  []byte
	}{
		{"unsharded", backend.NewMemStore(), testConfig(), bytes.Repeat([]byte{7}, 8192)},
		{"sharded-compressed-windowed", cancelFixture(t, geo, true, faultfs.NewScheduler(faultfs.Policy{}), memLeaf), windowed,
			shortBlocks(geo.KeysPerSegment() + 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lfs := newFS(t, tc.store, tc.cfg)
			if err := vfs.WriteAll(lfs, "f", tc.data); err != nil {
				t.Fatal(err)
			}
			dead, cancel := context.WithCancel(context.Background())
			cancel()

			if _, err := lfs.OpenCtx(dead, "f"); !errors.Is(err, ErrCanceled) {
				t.Fatalf("OpenCtx: %v", err)
			}
			if _, err := lfs.StatCtx(dead, "f"); !errors.Is(err, context.Canceled) {
				t.Fatalf("StatCtx: %v", err)
			}
			if _, err := lfs.CheckCtx(dead, "f"); !errors.Is(err, ErrCanceled) {
				t.Fatalf("CheckCtx: %v", err)
			}
			if _, err := lfs.RecoverCtx(dead, "f"); !errors.Is(err, ErrCanceled) {
				t.Fatalf("RecoverCtx: %v", err)
			}
			if _, err := lfs.RekeyOuterCtx(dead, "f", testKey(3)); !errors.Is(err, ErrCanceled) {
				t.Fatalf("RekeyOuterCtx: %v", err)
			}

			f, err := lfs.OpenRW("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 512)
			whole := make([]byte, len(tc.data)) // multi-block: planned and dispatched
			if _, err := f.ReadAtCtx(dead, buf, 0); !errors.Is(err, ErrCanceled) {
				t.Fatalf("ReadAtCtx: %v", err)
			}
			if n, err := f.ReadAtCtx(dead, whole, 0); n != 0 || !errors.Is(err, ErrCanceled) {
				t.Fatalf("multi-block ReadAtCtx: n=%d, %v", n, err)
			}
			if _, err := f.WriteAtCtx(dead, buf, 0); !errors.Is(err, ErrCanceled) {
				t.Fatalf("WriteAtCtx: %v", err)
			}
			if err := f.SyncCtx(dead); !errors.Is(err, ErrCanceled) {
				t.Fatalf("SyncCtx: %v", err)
			}
			// nil context: everything proceeds.
			if _, err := f.ReadAtCtx(nil, buf, 0); err != nil {
				t.Fatalf("nil-ctx ReadAtCtx: %v", err)
			}
			if _, err := f.ReadAtCtx(nil, whole, 0); (err != nil && err != io.EOF) || !bytes.Equal(whole, tc.data) {
				t.Fatalf("nil-ctx multi-block ReadAtCtx: %v", err)
			}
			if _, err := f.WriteAtCtx(nil, buf, 0); err != nil {
				t.Fatalf("nil-ctx WriteAtCtx: %v", err)
			}
			if err := f.SyncCtx(nil); err != nil {
				t.Fatalf("nil-ctx SyncCtx: %v", err)
			}
		})
	}
}

// TestPreCanceledTruncateToZero: the empty-file branch of the size
// flush is a backend write like any other on the commit path, so an
// already-canceled context must stop it. Truncate-to-zero then Sync
// under a dead context both report ErrCanceled, and the backing file is
// untouched: a fresh engine recovers, audits and reads it back whole.
func TestPreCanceledTruncateToZero(t *testing.T) {
	store := backend.NewMemStore()
	cfg := Config{Inner: testKey(1), Outer: testKey(2)}
	lfs, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5*4096+123)
	rand.New(rand.NewSource(17)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.TruncateCtx(dead, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TruncateCtx(0): %v", err)
	}
	if err := f.SyncCtx(dead); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SyncCtx after canceled truncate: %v", err)
	}
	// Abandon the handle as a timed-out request would: a canceled close
	// flushes nothing.
	_ = f.CloseCtx(dead)

	lfs2, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lfs2.Recover("f"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep, err := lfs2.Check("f"); err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
	got, err := vfs.ReadAll(lfs2, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("canceled truncate-to-zero changed the file: %d bytes, want %d", len(got), len(data))
	}
}

// TestCanceledShrinkIssuesNoTruncate: a shrink whose ctx dies at its
// metadata write — the last write before it cuts the backing file —
// returns ErrCanceled without issuing the backend Truncate, like every
// other backend call of the resize; a retry with a live ctx completes
// the cut.
func TestCanceledShrinkIssuesNoTruncate(t *testing.T) {
	geo := layout.Default()
	data := make([]byte, 2*geo.KeysPerSegment()*geo.BlockSize)
	rand.New(rand.NewSource(23)).Read(data)
	newSize := int64(geo.KeysPerSegment()*geo.BlockSize + 100)

	// shrink writes a fresh copy of the file and cuts it to newSize
	// through a new handle, canceling after the at-th write of the cut
	// (0: never).
	type shrunk struct {
		lfs            *FS
		f              vfs.File
		writes, truncs int // during the cut
		err            error
	}
	shrink := func(at int) shrunk {
		sched := faultfs.NewScheduler(faultfs.Policy{})
		r := shrunk{lfs: newFS(t, sched.Leaf(0, backend.NewMemStore()), testConfig())}
		if err := vfs.WriteAll(r.lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		var err error
		if r.f, err = r.lfs.OpenRW("f"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sched.Take()
		sched.SetPolicy(faultfs.CancelAfter(faultfs.OpWrite, at, cancel))
		r.err = r.f.TruncateCtx(ctx, newSize)
		sched.SetPolicy(faultfs.Policy{})
		evs := sched.Take()
		r.writes, r.truncs = faultfs.Count(evs, faultfs.OpWrite), faultfs.Count(evs, faultfs.OpTruncate)
		return r
	}

	dry := shrink(0)
	if dry.err != nil || dry.truncs == 0 {
		t.Fatalf("dry run: %v, %d backend truncates; the shrink must cut the backing file", dry.err, dry.truncs)
	}
	dry.f.Close()
	r := shrink(dry.writes) // the shrink's last write is its metadata write
	if !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("shrink canceled at its metadata write: %v, want ErrCanceled", r.err)
	}
	if r.truncs != 0 {
		t.Fatalf("shrink canceled at its metadata write issued %d backend truncates, want 0", r.truncs)
	}
	if err := r.f.TruncateCtx(context.Background(), newSize); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := r.f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(r.lfs, "f")
	if err != nil || !bytes.Equal(got, data[:newSize]) {
		t.Fatalf("after the retried cut: %d bytes, %v; want the first %d bytes of the file", len(got), err, newSize)
	}
}
