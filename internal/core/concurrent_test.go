package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/vfs"
)

// An FS instance is shared by many goroutines, each working on its
// own file — the multi-client shape of the paper's deployment (many
// applications over one mount). Handles are per-file, so the only
// shared state is the FS config and the backing store.
func TestConcurrentFilesOneFS(t *testing.T) { forEachBackend(t, testConcurrentFilesOneFS) }

func testConcurrentFilesOneFS(t *testing.T, mk storeMaker) {
	lfs := newFS(t, mk(t), testConfig())

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("file-%d", w)
			rng := rand.New(rand.NewSource(int64(w)))
			data := make([]byte, 150*4096+w*17)
			rng.Read(data)
			if err := vfs.WriteAll(lfs, name, data); err != nil {
				errs <- fmt.Errorf("%s write: %w", name, err)
				return
			}
			got, err := vfs.ReadAll(lfs, name)
			if err != nil {
				errs <- fmt.Errorf("%s read: %w", name, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("%s: content diverged", name)
				return
			}
			rep, err := lfs.Check(name)
			if err != nil || !rep.Clean() {
				errs <- fmt.Errorf("%s audit: %+v %v", name, rep, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	names, err := lfs.List()
	if err != nil || len(names) != workers {
		t.Fatalf("List = %v, %v", names, err)
	}
}

// Concurrent readers of one file through independent read-only
// handles.
func TestConcurrentReaders(t *testing.T) { forEachBackend(t, testConcurrentReaders) }

func testConcurrentReaders(t *testing.T, mk storeMaker) {
	lfs := newFS(t, mk(t), testConfig())
	data := make([]byte, 130*4096)
	rand.New(rand.NewSource(9)).Read(data)
	if err := vfs.WriteAll(lfs, "shared", data); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := lfs.Open("shared")
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			buf := make([]byte, 4096)
			for i := 0; i < 200; i++ {
				off := rng.Int63n(int64(len(data) - 4096))
				if _, err := f.ReadAt(buf, off); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if !bytes.Equal(buf, data[off:off+4096]) {
					errs <- fmt.Errorf("reader %d: bad data at %d", r, off)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// N goroutines hammer disjoint block regions of ONE shared handle with
// random sub-block writes and interleaved reads; the final content
// must match an in-memory model byte for byte. This exercises the
// per-segment locking: regions span many segments, so commits from
// different workers overlap in time.
func TestConcurrentDisjointRegionsSharedHandle(t *testing.T) {
	forEachBackend(t, testConcurrentDisjointRegionsSharedHandle)
}

func testConcurrentDisjointRegionsSharedHandle(t *testing.T, mk storeMaker) {
	cfg := testConfig()
	cfg.Parallelism = 4
	cfg.CacheBlocks = 128
	lfs := newFS(t, mk(t), cfg)

	const (
		workers     = 8
		blocksEach  = 40
		opsPer      = 60
		bs          = 4096
		regionBytes = blocksEach * bs
	)
	total := workers * regionBytes
	model := make([]byte, total) // worker w owns [w*regionBytes, (w+1)*regionBytes)

	f, err := lfs.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(total)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			base := w * regionBytes
			buf := make([]byte, bs)
			for i := 0; i < opsPer; i++ {
				off := rng.Intn(regionBytes - 3*bs)
				n := rng.Intn(2*bs) + 17
				chunk := make([]byte, n)
				rng.Read(chunk)
				if _, err := f.WriteAt(chunk, int64(base+off)); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				copy(model[base+off:base+off+n], chunk) // disjoint: no lock needed
				// Read back a block from our own region; it must match
				// the model exactly (no other writer touches it).
				rb := rng.Intn(blocksEach)
				if _, err := f.ReadAt(buf, int64(base+rb*bs)); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(buf, model[base+rb*bs:base+(rb+1)*bs]) {
					errs <- fmt.Errorf("worker %d: block %d diverged mid-run", w, rb)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := vfs.ReadAll(lfs, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("final content diverged from in-memory model")
	}
	rep, err := lfs.Check("shared")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
}

// N goroutines write whole blocks into one OVERLAPPING region of a
// shared handle while readers sweep it. Per-block atomicity is the
// invariant: every block observed — during the run and at the end —
// must be byte-identical to some value a writer actually wrote there
// (or the initial zeros). Run under -race this is also the data-race
// proof for the finer-grained locking.
func TestConcurrentOverlappingWritersSharedHandle(t *testing.T) {
	forEachBackend(t, testConcurrentOverlappingWritersSharedHandle)
}

func testConcurrentOverlappingWritersSharedHandle(t *testing.T, mk storeMaker) {
	cfg := testConfig()
	cfg.Parallelism = 4
	lfs := newFS(t, mk(t), cfg)

	const (
		writers = 6
		readers = 3
		blocks  = 24 // small region: heavy overlap across writers
		opsPer  = 50
		bs      = 4096
	)
	f, err := lfs.Create("contended")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(blocks * bs); err != nil {
		t.Fatal(err)
	}

	// legit[b] holds every value block b has legitimately been given.
	// A value is registered BEFORE its WriteAt is issued, so anything a
	// reader can observe is already in the set.
	var histMu sync.Mutex
	legit := make([]map[string]bool, blocks)
	zeroBlock := string(make([]byte, bs))
	for b := range legit {
		legit[b] = map[string]bool{zeroBlock: true}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for i := 0; i < opsPer; i++ {
				b := rng.Intn(blocks)
				block := make([]byte, bs)
				rng.Read(block)
				histMu.Lock()
				legit[b][string(block)] = true
				histMu.Unlock()
				if _, err := f.WriteAt(block, int64(b*bs)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + r)))
			buf := make([]byte, bs)
			for i := 0; i < opsPer*2; i++ {
				b := rng.Intn(blocks)
				if _, err := f.ReadAt(buf, int64(b*bs)); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				histMu.Lock()
				ok := legit[b][string(buf)]
				histMu.Unlock()
				if !ok {
					errs <- fmt.Errorf("reader %d: block %d holds a value no writer produced (torn block)", r, b)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Final audit through an independent read-only handle.
	g, err := lfs.Open("contended")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, bs)
	for b := 0; b < blocks; b++ {
		if _, err := g.ReadAt(buf, int64(b*bs)); err != nil {
			t.Fatal(err)
		}
		if !legit[b][string(buf)] {
			t.Fatalf("final block %d holds a value no writer produced", b)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.Check("contended")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
}

// Distinct handles: one writer handle streams new segments while
// reader handles opened beforehand sweep the already-committed prefix,
// which the single-writer model does guarantee stable. Exercises the
// FS-level cache shared by all handles of the file.
func TestConcurrentDistinctHandlesOneFile(t *testing.T) {
	forEachBackend(t, testConcurrentDistinctHandlesOneFile)
}

func testConcurrentDistinctHandlesOneFile(t *testing.T, mk storeMaker) {
	cfg := testConfig()
	cfg.Parallelism = 2
	cfg.CacheBlocks = 256
	lfs := newFS(t, mk(t), cfg)

	const bs = 4096
	prefix := make([]byte, 150*bs)
	rand.New(rand.NewSource(42)).Read(prefix)
	if err := vfs.WriteAll(lfs, "f", prefix); err != nil {
		t.Fatal(err)
	}

	w, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(43))
		chunk := make([]byte, 3*bs)
		for i := 0; i < 40; i++ {
			rng.Read(chunk)
			off := int64(len(prefix) + i*len(chunk))
			if _, err := w.WriteAt(chunk, off); err != nil {
				errs <- fmt.Errorf("appender: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h, err := lfs.Open("f")
			if err != nil {
				errs <- err
				return
			}
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			buf := make([]byte, bs)
			for i := 0; i < 150; i++ {
				b := rng.Intn(len(prefix) / bs)
				if _, err := h.ReadAt(buf, int64(b*bs)); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if !bytes.Equal(buf, prefix[b*bs:(b+1)*bs]) {
					errs <- fmt.Errorf("reader %d: committed block %d changed under a reader", r, b)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
}

// Crash in the middle of a PARALLEL commit, cut live: with
// Parallelism > 1 the phase-2 data writes race each other to the store,
// so a crash at a fixed write count kills an arbitrary subset of them
// while the engine is still running. The replayed sweep in
// crash_test.go covers the same stored states on a fresh mount; this
// test watches the running engine instead: the workload must report
// the crash, and Recover on the same mount must still restore the §2.4
// invariants (a clean audit, every block in a state the workload
// legitimately produced).
func TestCrashMidParallelCommit(t *testing.T) { forEachBackend(t, testCrashMidParallelCommit) }

func testCrashMidParallelCommit(t *testing.T, mk storeMaker) {
	geo, err := layout.NewGeometry(512, 4) // small blocks: many I/Os per commit
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Parallelism: 4}

	oldData := make([]byte, 40*1024)
	rand.New(rand.NewSource(99)).Read(oldData)

	// Dry run to count backend writes.
	countStore := faultfs.New(mk(t))
	fsCount, err := New(countStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(fsCount, "f", oldData); err != nil {
		t.Fatal(err)
	}
	countStore.ResetWriteCount()
	fdry, err := fsCount.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeWorkload(fdry, oldData, 7, false); err != nil {
		t.Fatal(err)
	}
	if err := fdry.Close(); err != nil {
		t.Fatal(err)
	}
	totalWrites := countStore.WriteCount()
	hist := blockHistories(oldData, 7, geo.BlockSize, false)

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for crashAt := int64(1); crashAt <= totalWrites; crashAt += stride {
		fstore := faultfs.New(mk(t))
		lfs, err := New(fstore, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteAll(lfs, "f", oldData); err != nil {
			t.Fatal(err)
		}

		fstore.Arm(faultfs.ModeCrashAfter, crashAt, 0)
		fw, err := lfs.OpenRW("f")
		if err != nil {
			t.Fatalf("crashAt=%d: open: %v", crashAt, err)
		}
		_, werr := writeWorkload(fw, oldData, 7, false)
		_ = fw.Close() // post-crash close errors are expected
		if werr == nil && fstore.Crashed() {
			t.Fatalf("crashAt=%d: workload succeeded despite crash", crashAt)
		}
		fstore.Disarm()

		if _, err := lfs.Recover("f"); err != nil {
			t.Fatalf("crashAt=%d: recovery failed: %v", crashAt, err)
		}
		rep, err := lfs.Check("f")
		if err != nil {
			t.Fatalf("crashAt=%d: check: %v", crashAt, err)
		}
		if !rep.Clean() {
			t.Fatalf("crashAt=%d: post-recovery audit dirty: %+v", crashAt, rep)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatalf("crashAt=%d: read after recovery: %v", crashAt, err)
		}
		if len(got) != len(oldData) {
			t.Fatalf("crashAt=%d: size changed: %d", crashAt, len(got))
		}
		bs := geo.BlockSize
		for b := 0; b*bs < len(got); b++ {
			lo, hi := b*bs, (b+1)*bs
			if hi > len(got) {
				hi = len(got)
			}
			if !hist[b][string(got[lo:hi])] {
				t.Fatalf("crashAt=%d: block %d holds a state the workload never produced", crashAt, b)
			}
		}
	}
}
