package core

import (
	"context"
	"sync/atomic"
)

// ioWindow bounds the number of backend I/O operations an FS keeps in
// flight at once, and every mount has one. Every extent a commit writes
// or a read fetches is dispatched on it (runWindowed), so it is also
// the one place backend concurrency is decided. Config.IOWindow sets
// its depth (defaultIOWindow when 0), and nothing else does. It is
// independent of the worker pool: the pool sizes the encrypt/decrypt
// fan-out to the machine's cores, while the window sizes the number of
// concurrently outstanding backend requests to the store's
// latency×bandwidth product. Against a remote
// object store the two differ by an order of magnitude — a 4-core
// client still wants 32 ranged GETs on the wire.
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
// The converse order is therefore safe too: a goroutine holding locks
// or a pool slot may wait for a window slot, because every current slot
// holder is a pure backend call that completes without needing anything
// the waiter holds.
//
// A window of more than one slot also runs commits behind the writer
// (writebehind.go), and bounds that too: at most cap(sem) commit I/O
// halves are in flight per mount, counted on behind. That is the same
// number on a semaphore of its own, because a half spends its life
// waiting for window slots for its own extents — were it to hold one, a
// full window of halves would wait on itself.
type ioWindow struct {
	sem    chan struct{}
	behind chan struct{}
	// more is runWindowed's lanes hook, built once: window−1 helpers.
	more func(helpers int) bool
	// inFlight gauges the backend operations currently holding a slot;
	// peak is its high-water mark since the FS was built.
	inFlight atomic.Int64
	peak     atomic.Int64
}

// defaultIOWindow is the depth Config.IOWindow 0 selects. It counts
// backend requests, not cores, so it does not follow Parallelism: 8
// handles each reading 64 KiB from a store with 1 ms of latency keep
// 12–13 reads in flight when nothing bounds them, and a window of 2 (a
// 2-vCPU pool's width) cut them from ≈ 210 to ≈ 80 MiB/s, while windows
// of 16 and 32 matched the unbounded rate. A store without latency never
// fills the window, so there the depth does not matter.
const defaultIOWindow = 32

// newIOWindow returns a window of n >= 1 slots.
func newIOWindow(n int) *ioWindow {
	return &ioWindow{sem: make(chan struct{}, n), behind: make(chan struct{}, n),
		more: func(helpers int) bool { return helpers < n-1 }}
}

// acquire takes a window slot, blocking while the window is full.
func (w *ioWindow) acquire() {
	w.sem <- struct{}{}
	cur := w.inFlight.Add(1)
	for {
		p := w.peak.Load()
		if cur <= p || w.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// release returns a slot taken by acquire.
func (w *ioWindow) release() {
	w.inFlight.Add(-1)
	<-w.sem
}

// IOWindowStats is a snapshot of the I/O window's gauges.
type IOWindowStats struct {
	// Window is the window's depth: Config.IOWindow, or defaultIOWindow.
	// A window of more than one slot hands commits off (writebehind.go).
	Window int
	// InFlight is the number of backend operations holding a slot now.
	InFlight int64
	// Peak is the deepest the window has been since the FS was built —
	// how much of its depth the workload actually used.
	Peak int64
}

// IOWindowStats returns the current window gauges.
func (fs *FS) IOWindowStats() IOWindowStats {
	return IOWindowStats{
		Window:   cap(fs.iow.sem),
		InFlight: fs.iow.inFlight.Load(),
		Peak:     fs.iow.peak.Load(),
	}
}

// runWindowed runs fn(0) … fn(n-1) — one per planned extent, a
// commit's phase-2 writes or a read's fetches — on lanes (pool.go), and
// returns the lowest failing index with its error, which read paths map
// to a buffer position. It is the one dispatch rule both directions
// share, sharded or not: each task brackets its backend call with
// acquire/release, so the window alone bounds the requests in flight —
// of this batch and of the whole mount, every concurrent batch sharing
// the same slots. The batch gets min(n, window) lanes, the caller and
// up to window−1 helpers: more could only ever park on acquire, and a
// task starts as soon as any earlier one finishes. One lane — a single
// task, or a one-slot window — runs on the caller's goroutine alone.
//
// Lanes here take no pool slot: the window bounds requests and the pool
// cores, and a lane parked on a backend call or on a segment lock would
// keep a CPU helper out for as long as it waits. The §2.4 semantics are
// untouched — phase 2 still completes in full before the phase-3
// barrier.
func (fs *FS) runWindowed(ctx context.Context, n int, fn func(int) error) (int, error) {
	return lanes(ctx, n, fs.iow.more, nil, fn)
}
