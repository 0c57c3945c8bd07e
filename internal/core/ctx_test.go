package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	"lamassu/internal/simclock"
	"lamassu/internal/vfs"
)

// cancelTrigger cancels a context after a configured number of
// context-aware backend writes have completed — the cancellation
// analogue of faultfs's crash-after-N-writes trigger — or, armed for
// reads, as the N-th context-aware backend read is issued. Several
// cancelStore wrappers (one per shard) may share one trigger.
type cancelTrigger struct {
	mu sync.Mutex
	w  cancelCount // ticked after each write
	r  cancelCount // ticked before each read
}

// cancelCount counts one kind of operation and cancels at the at-th.
type cancelCount struct {
	n      int64
	at     int64 // 0 = disarmed
	cancel context.CancelFunc
}

func (c *cancelCount) tick() {
	c.n++
	if c.at > 0 && c.n == c.at && c.cancel != nil {
		c.cancel()
	}
}

// arm resets the write counter and cancels after the at-th write
// (0 = count only); armReads is the same for reads.
func (c *cancelTrigger) arm(at int64, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w = cancelCount{at: at, cancel: cancel}
}

func (c *cancelTrigger) armReads(at int64, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.r = cancelCount{at: at, cancel: cancel}
}

// disarm stops both triggers; the counters keep their values.
func (c *cancelTrigger) disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.at, c.w.cancel = 0, nil
	c.r.at, c.r.cancel = 0, nil
}

func (c *cancelTrigger) wrote() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.tick()
}

func (c *cancelTrigger) read() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.r.tick()
}

func (c *cancelTrigger) writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.n
}

func (c *cancelTrigger) reads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.r.n
}

// cancelStore wraps a backend.Store, counting context-aware writes
// into a shared trigger. It forwards the context to the inner store,
// so it doubles as a check that ctx threads through every wrapper
// above it.
type cancelStore struct {
	inner backend.Store
	trig  *cancelTrigger
}

func (s *cancelStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

func (s *cancelStore) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := backend.OpenCtx(ctx, s.inner, name, flag)
	if err != nil {
		return nil, err
	}
	return &cancelFile{inner: f, trig: s.trig}, nil
}

func (s *cancelStore) Remove(name string) error        { return s.inner.Remove(name) }
func (s *cancelStore) Rename(o, n string) error        { return s.inner.Rename(o, n) }
func (s *cancelStore) List() ([]string, error)         { return s.inner.List() }
func (s *cancelStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

type cancelFile struct {
	inner backend.File
	trig  *cancelTrigger
}

func (f *cancelFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *cancelFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(p, off)
	f.trig.wrote()
	return n, err
}
func (f *cancelFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *cancelFile) Size() (int64, error)      { return f.inner.Size() }
func (f *cancelFile) Sync() error               { return f.inner.Sync() }
func (f *cancelFile) Close() error              { return f.inner.Close() }

// ReadAtCtx ticks the trigger, then reads — so a cancellation armed for
// this read lands before the backend sees it, and the read itself is
// the first to observe the dead ctx.
func (f *cancelFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.trig.read()
	return backend.ReadAtCtx(ctx, f.inner, p, off)
}

// WriteAtCtx applies the write, then ticks the trigger — so the
// cancellation lands BETWEEN backend writes, the boundary the engine
// promises to observe.
func (f *cancelFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	n, err := backend.WriteAtCtx(ctx, f.inner, p, off)
	f.trig.wrote()
	return n, err
}

func (f *cancelFile) TruncateCtx(ctx context.Context, size int64) error {
	return backend.TruncateCtx(ctx, f.inner, size)
}

func (f *cancelFile) SyncCtx(ctx context.Context) error { return backend.SyncCtx(ctx, f.inner) }

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

// cancelFixture builds the store stack for one sweep configuration:
// unsharded (one wrapped MemStore) or sharded (two wrapped MemStores
// behind a striping shard.Store, stripe = one segment).
func cancelFixture(t *testing.T, geo layout.Geometry, sharded bool, trig *cancelTrigger) backend.Store {
	t.Helper()
	return cancelFixtureOver(t, geo, sharded, trig, memLeaf)
}

func memLeaf() backend.Store { return backend.NewMemStore() }

// cancelFixtureOver is cancelFixture over leaves of the caller's
// choosing.
func cancelFixtureOver(t *testing.T, geo layout.Geometry, sharded bool, trig *cancelTrigger, leaf func() backend.Store) backend.Store {
	t.Helper()
	if !sharded {
		return &cancelStore{inner: leaf(), trig: trig}
	}
	stores := []backend.Store{
		&cancelStore{inner: leaf(), trig: trig},
		&cancelStore{inner: leaf(), trig: trig},
	}
	ss, err := shard.New(stores, shard.Config{StripeBytes: geo.SegmentPhysBytes()})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestCancelMidCommitSweep is the cancellation analogue of the §2.4
// crash sweep, and the PR's acceptance property: cancel the workload
// after the 1st, 2nd, 3rd, ... backend write; the failing operation
// must report ErrCanceled (wrapping context.Canceled), and after
// recovery every block must hold a state the workload legitimately
// produced. Swept over both engines, sharded and unsharded — and, for
// the per-block engine, once more with its writes pipelined on an I/O
// window over the object backend, where a cut also strands multipart
// sessions (the public API can no longer select that combination; the
// coalesced one is the root package's TestRemoteCancelMidCommit).
func TestCancelMidCommitSweep(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "unsharded"
		if sharded {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("coalesced", func(t *testing.T) { cancelMidCommitSweep(t, sharded, false, false) })
			t.Run("per-block", func(t *testing.T) { cancelMidCommitSweep(t, sharded, true, false) })
			t.Run("per-block-windowed-objstore", func(t *testing.T) { cancelMidCommitSweep(t, sharded, true, true) })
		})
	}
}

// cancelMidCommitSweep runs the sweep over memory stores, or — remote —
// over zero-latency object stores with an I/O window of 8.
func cancelMidCommitSweep(t *testing.T, sharded, disableCoalescing, remote bool) {
	geo, err := layout.NewGeometry(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo,
		DisableCoalescing: disableCoalescing}
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

	// Dry run: count the workload's context-aware backend writes.
	trig := &cancelTrigger{}
	store := cancelFixtureOver(t, geo, sharded, trig, leaf)
	lfs, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
		t.Fatal(err)
	}
	trig.arm(0, nil) // reset counter, no cancel
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
	totalWrites := trig.writes()
	if totalWrites < 10 {
		t.Fatalf("workload issued only %d ctx writes; widen it", totalWrites)
	}
	hist := blockHistories(oldData, 7, geo.BlockSize, false)

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for cancelAt := int64(1); cancelAt <= totalWrites; cancelAt += stride {
		trig := &cancelTrigger{}
		servers = servers[:0]
		store := cancelFixtureOver(t, geo, sharded, trig, leaf)
		lfs, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		trig.arm(cancelAt, cancel)
		fw, err := lfs.OpenRW("f")
		if err != nil {
			t.Fatalf("cancelAt=%d: open: %v", cancelAt, err)
		}
		_, werr := writeWorkloadCtx(ctx, fw, oldData, 7)
		trig.disarm()
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

// TestCancelRetryConverges: after a mid-commit cancellation, retrying
// the flush on the SAME handle with a live context must complete the
// write — the staged pending blocks survive the cancellation and the
// implicit midupdate repair re-commits only what never landed.
func TestCancelRetryConverges(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "coalesced"
		if disable {
			name = "per-block"
		}
		t.Run(name, func(t *testing.T) {
			geo, err := layout.NewGeometry(512, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo,
				DisableCoalescing: disable}
			trig := &cancelTrigger{}
			store := &cancelStore{inner: backend.NewMemStore(), trig: trig}
			lfs, err := New(store, cfg)
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
			trig.arm(2, cancel) // cancel mid-phase-2
			_, werr := writeWorkloadCtx(ctx, f, oldData, 11)
			trig.disarm()
			cancel()
			if werr == nil || !errors.Is(werr, ErrCanceled) {
				t.Fatalf("expected mid-commit cancellation, got %v", werr)
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
		{"sharded-compressed-windowed", cancelFixture(t, geo, true, &cancelTrigger{}), windowed,
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
