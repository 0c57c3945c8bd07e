package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/metrics"
)

// pool bounds the number of goroutines one FS uses for per-block CPU
// work: convergent key derivation and block encryption (the commit's
// encode fan-out) and the decode of a fetched extent. It issues no
// backend I/O — extents go out on the I/O window (ioWindow) — and the
// bound is global to the FS, so many handles committing or reading at
// once share one semaphore instead of multiplying goroutines per
// handle.
//
// A width of 1 is serial: run executes its tasks inline on the caller's
// goroutine with no channel traffic, so the serial path costs nothing
// beyond a branch — with a one-slot window (Config.IOWindow 1), commits
// behave exactly as the paper's single-threaded prototype.
type pool struct {
	width int
	sem   chan struct{}
	// rec optionally mirrors the counters below into the latency
	// recorder's event stream; counting happens only here so the two
	// bookkeeping systems cannot drift.
	rec *metrics.Recorder

	// batches counts run invocations; tasks counts the individual
	// closures executed (both served inline and in workers).
	batches atomic.Int64
	tasks   atomic.Int64
}

// newPool returns a pool of the given width; width < 1 selects
// GOMAXPROCS.
func newPool(width int, rec *metrics.Recorder) *pool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &pool{width: width, rec: rec}
	if width > 1 {
		p.sem = make(chan struct{}, width)
	}
	return p
}

// Width returns the pool's concurrency bound.
func (p *pool) Width() int { return p.width }

// run executes fn(0) … fn(n-1), at most width at a time, and waits for
// all of them. Every task runs even if an earlier one fails (matching
// the crash model: a failing backend write does not stop the writes
// already in flight); the error of the lowest task index is returned
// so failures are deterministic regardless of scheduling.
//
// Each task slot is acquired on the caller's goroutine, so concurrent
// run calls from many handles queue fairly on the shared budget and
// the total number of in-flight tasks never exceeds width.
func (p *pool) run(ctx context.Context, n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	p.batches.Add(1)
	p.tasks.Add(int64(n))
	p.rec.CountEvent(metrics.PoolBatch, 1)
	p.rec.CountEvent(metrics.PoolTask, int64(n))
	if p.width <= 1 || n == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	for i := 0; i < n; i++ {
		// Tasks carry ctx (fn closes over it and the backend helpers
		// observe it); a cancellation additionally stops dispatching
		// tasks that have not been spawned yet. Error semantics are
		// unchanged: the lowest failing index wins, and an undispatched
		// task reports the cancellation at its own index.
		if err := backend.CtxErr(ctx); err != nil {
			mu.Lock()
			if firstErr == nil || i < firstIdx {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
			break
		}
		p.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
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
	return firstErr
}

// PoolStats is a snapshot of the worker-pool counters.
type PoolStats struct {
	// Width is the configured concurrency bound.
	Width int
	// Batches is the number of fan-out invocations (one per commit
	// phase that used the pool).
	Batches int64
	// Tasks is the number of individual per-block tasks executed.
	Tasks int64
}

// stats returns the current counters.
func (p *pool) stats() PoolStats {
	return PoolStats{Width: p.width, Batches: p.batches.Load(), Tasks: p.tasks.Load()}
}
