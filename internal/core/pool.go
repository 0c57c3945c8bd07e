package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
)

// lanes runs fn(0) … fn(n-1) and waits for all of them. It is the
// engine's one fan-out, for the worker pool's CPU batches (pool.run)
// and the I/O window's planned extents (runWindowed) alike.
//
// The caller is lane 0: it claims task 0 and runs tasks itself, and
// never waits for a slot, so a batch cannot queue behind another batch
// (Cilk's work-first principle: Frigo, Leiserson and Randall, PLDI
// '98). Each time it claims a task, before running it, while any task
// is unclaimed, it asks more(h), h being the helpers started so far (at
// most n−1), whether one more helper lane may join; a helper calls
// done, if non-nil, when it leaves. Every lane claims indices in
// ascending order from one counter.
//
// Every task that starts runs to completion even if an earlier one
// fails (the crash model: a failing backend write does not stop the
// writes already in flight), and the lowest failing index is returned
// with its error, whatever the scheduling. A dead ctx stops lanes from
// starting further tasks and is reported at the first unstarted index,
// so every index below the one returned has run and succeeded. A
// single task runs inline and is not checked: its own backend call
// observes ctx. All lanes are joined before return: read tasks write
// into the caller's buffer under segment read locks the caller holds.
func lanes(ctx context.Context, n int, more func(helpers int) bool, done func(), fn func(int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if n == 1 {
		return 0, fn(0)
	}
	var (
		next     atomic.Int64 // next unclaimed task index
		wg       sync.WaitGroup
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
	// run runs task i, if there is one, and reports whether its lane
	// goes on: not once every index is claimed, nor once ctx is dead.
	run := func(i int) bool {
		if i >= n {
			return false
		}
		if err := backend.CtxErr(ctx); err != nil {
			fail(i, err)
			return false
		}
		if err := fn(i); err != nil {
			fail(i, err)
		}
		return true
	}
	claim := func() int { return int(next.Add(1)) - 1 }
	for helpers := 0; ; {
		i := claim()
		for helpers < n-1 && int(next.Load()) < n && more(helpers) {
			helpers++
			wg.Add(1)
			go func() {
				defer wg.Done()
				if done != nil {
					defer done()
				}
				for run(claim()) {
				}
			}()
		}
		if !run(i) {
			break
		}
	}
	wg.Wait()
	return firstIdx, firstErr
}

// pool bounds the CPU work one FS fans out per block: convergent key
// derivation and block encryption (the commit's encode fan-out) and the
// decode of a fetched extent. It issues no backend I/O — extents go out
// on the I/O window (ioWindow). A batch runs on its caller plus the
// helper lanes that find a free slot, and the width−1 slots are global
// to the FS: at most width−1 helpers per mount, plus each caller.
//
// A width of 1 has no helper slots, so every batch runs on its caller's
// goroutine — with a one-slot window (Config.IOWindow 1), commits
// behave exactly as the paper's single-threaded prototype.
type pool struct {
	width int
	sem   chan struct{} // one token per running helper lane
	// more and done are lanes' hooks, built once so a batch allocates
	// neither: take a slot only if one is free now; return it.
	more func(helpers int) bool
	done func()

	// batches counts run invocations; tasks counts the individual
	// closures executed (on callers and helpers alike).
	batches atomic.Int64
	tasks   atomic.Int64
}

// newPool returns a pool of the given width; width < 1 selects
// GOMAXPROCS.
func newPool(width int) *pool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &pool{width: width, sem: make(chan struct{}, width-1)}
	p.more = func(int) bool {
		select {
		case p.sem <- struct{}{}:
			return true
		default:
			return false
		}
	}
	p.done = func() { <-p.sem }
	return p
}

// Width returns the pool's concurrency bound.
func (p *pool) Width() int { return p.width }

// run executes fn(0) … fn(n-1) on lanes: the caller, plus the helpers
// free pool slots allow. It returns the error of the lowest failing
// index.
func (p *pool) run(ctx context.Context, n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	p.batches.Add(1)
	p.tasks.Add(int64(n))
	_, err := lanes(ctx, n, p.more, p.done, fn)
	return err
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
