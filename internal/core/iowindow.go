package core

import (
	"context"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
)

// ioWindow bounds the number of backend I/O operations an FS keeps in
// flight at once — the I/O-window pipelining layer for high-latency
// stores. The bound is deliberately decoupled from the worker pool's
// CPU budget (Config.Parallelism): the pool sizes the encrypt/decrypt
// fan-out to the machine's cores, while the window sizes the number
// of concurrently outstanding backend requests to the store's
// latency×bandwidth product. Against a remote object store the two
// differ by an order of magnitude — a 4-core client still wants 32
// ranged GETs on the wire. A nil *ioWindow (Config.IOWindow == 0)
// disables the bound; backend concurrency then follows the pool, the
// historical behavior.
//
// What a slot bounds is an ENGINE operation — one extent read or write
// handed to the store — not a leaf request. A replicated shard.Store
// writes an extent to its R owners together, all on the one slot the
// extent holds, so the leaves see at most window × R write requests.
// The owners could not take a slot each: a full window of extents would
// then wait on itself (TestWindowedCommitRounds' window-1 row).
//
// Deadlock safety: acquire/release bracket exactly one backend
// operation and nothing else — a window-slot holder never takes a
// mutex, a pool slot or another window slot, so slots always drain.
// The converse order is therefore safe too: a commit task already
// holding a pool slot may wait for a window slot (writeExtents does),
// because every current slot holder is a pure backend call that
// completes without needing anything the waiter holds.
type ioWindow struct {
	sem chan struct{}
	// inFlight gauges the backend operations currently holding a slot;
	// peak is its high-water mark since the FS was built.
	inFlight atomic.Int64
	peak     atomic.Int64
}

// newIOWindow returns a window of n slots, or nil for n <= 0
// (windowing disabled).
func newIOWindow(n int) *ioWindow {
	if n <= 0 {
		return nil
	}
	return &ioWindow{sem: make(chan struct{}, n)}
}

// acquire takes a window slot, blocking while the window is full.
// No-op on a nil window.
func (w *ioWindow) acquire() {
	if w == nil {
		return
	}
	w.sem <- struct{}{}
	cur := w.inFlight.Add(1)
	for {
		p := w.peak.Load()
		if cur <= p || w.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// release returns a slot taken by acquire. No-op on a nil window.
func (w *ioWindow) release() {
	if w == nil {
		return
	}
	w.inFlight.Add(-1)
	<-w.sem
}

// IOWindowStats is a snapshot of the I/O window's gauges; the zero
// value means windowing is disabled.
type IOWindowStats struct {
	// Window is the configured bound (Config.IOWindow).
	Window int
	// InFlight is the number of backend operations holding a slot now.
	InFlight int64
	// Peak is the deepest the window has been since the FS was built —
	// how much of the configured budget the workload actually used.
	Peak int64
}

// IOWindowStats returns the current window gauges (zero when
// Config.IOWindow is 0).
func (fs *FS) IOWindowStats() IOWindowStats {
	if fs.iow == nil {
		return IOWindowStats{}
	}
	return IOWindowStats{
		Window:   cap(fs.iow.sem),
		InFlight: fs.iow.inFlight.Load(),
		Peak:     fs.iow.peak.Load(),
	}
}

// runWindowed runs fn(0) … fn(n-1) on lanes that pull task indices in
// ascending order from a shared counter, and waits for all of them —
// the fan-out driver for batches whose tasks are (almost) pure backend
// I/O, where the worker pool's CPU bound would needlessly cap the
// overlap. It needs a configured window (fs.iow != nil). Each task
// brackets its backend call with acquire/release, so the window alone
// bounds the requests in flight — of this batch and of the whole mount,
// every concurrent batch sharing the same slots. The batch gets
// min(n, window) lanes: more could only ever park on acquire, and a
// task starts as soon as any earlier one finishes. A single task runs
// inline on the caller's goroutine.
//
// Error semantics match pool.run: every started task runs to completion
// even if an earlier one fails, and the lowest failing index wins. A
// dead ctx stops lanes from starting further tasks and is reported at
// the first unstarted index (indices are claimed in ascending order, so
// every index below the one returned has run and succeeded). The failing
// index is returned with the error so read paths can map it to a buffer
// position. All lanes are joined before return: read tasks write into
// the caller's buffer under segment read locks the caller holds, and
// neither may be touched once the caller moves on.
func (fs *FS) runWindowed(ctx context.Context, n int, fn func(int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if n == 1 {
		return 0, fn(0)
	}
	lanes := min(n, cap(fs.iow.sem))
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // next unclaimed task index
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	wg.Add(lanes)
	for l := 0; l < lanes; l++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := backend.CtxErr(ctx); err != nil {
					fail(i, err)
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstIdx, firstErr
}
