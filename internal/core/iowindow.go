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

// runWindowed dispatches fn(0) … fn(n-1), each on its own goroutine,
// and waits for all of them — the fan-out driver for batches whose
// tasks are (almost) pure backend I/O, where the worker pool's CPU
// bound would needlessly cap the overlap. Concurrency is bounded by
// the I/O window itself: each task brackets its backend call with
// acquire/release, so the dispatcher spawns freely (callers' batches
// are bounded by one request's extents or one segment's commit) while
// the wire sees at most Config.IOWindow requests.
//
// Error semantics match pool.run: every spawned task runs even if an
// earlier one fails, the lowest failing index wins, and a dead ctx
// stops dispatch of tasks not yet spawned, reporting the cancellation
// at the first undispatched index. The failing index is returned with
// the error so read paths can map it to a buffer position.
func (fs *FS) runWindowed(ctx context.Context, n int, fn func(int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if n == 1 {
		return 0, fn(0)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	for i := 0; i < n; i++ {
		if err := backend.CtxErr(ctx); err != nil {
			mu.Lock()
			if firstErr == nil || i < firstIdx {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil || i < firstIdx {
					firstErr, firstIdx = err, i
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstIdx, firstErr
}
