package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/metrics"
)

// pool bounds the number of goroutines one FS uses for per-block work:
// convergent key derivation (commit phase 1) and block encryption plus
// the data-block backend writes (commit phase 2). The bound is global
// to the FS, so many handles committing at once share one budget
// instead of multiplying goroutines per handle.
//
// A width of 1 is the fully serial engine: run executes its tasks
// inline on the caller's goroutine with no channel traffic, so the
// serial path costs nothing beyond a branch — commits behave exactly
// as the paper's single-threaded prototype.
type pool struct {
	width int
	sem   chan struct{}
	// rec optionally mirrors the counters below into the latency
	// recorder's event stream; counting happens only here so the two
	// bookkeeping systems cannot drift.
	rec *metrics.Recorder

	// budgets, when non-nil, carves width into per-shard slices for
	// runSharded: a task for shard s must hold both budgets[s].sem and
	// the global sem, so one hot shard can saturate at most its slice
	// of the pool while the global bound still caps mixed loads. Set
	// at FS construction (carveBudgets) and RE-carved when the shard
	// count changes across a layout epoch (an online rebalance adds or
	// retires shards): each batch loads one consistent snapshot, so
	// in-flight batches drain on the budgets they started with while
	// new batches use the new carve.
	budgets atomic.Pointer[[]*budget]

	// batches counts run invocations; tasks counts the individual
	// closures executed (both served inline and in workers).
	batches atomic.Int64
	tasks   atomic.Int64
}

// budget is one shard's slice of the pool, plus its activity gauges.
// The gauges also count the read fan-out and the windowed commit
// fan-out (noteShardIO), which deliberately do NOT take the semaphores:
// a reader blocked on a segment lock must never hold a slot a commit
// needs to release that lock, and a windowed extent is bounded by the
// window, not the pool (see dispatchExtents).
type budget struct {
	width  int
	sem    chan struct{}
	queued atomic.Int64 // tasks submitted and not yet finished
	tasks  atomic.Int64 // tasks finished
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

// carveBudgets splits the pool into n per-shard budgets of
// floor(width/n) workers each (the remainder spread over the first
// shards, every shard getting at least one). Re-carving installs a
// fresh budget set atomically; gauges restart at zero for the new
// epoch (ShardStats documents per-epoch task counters).
func (p *pool) carveBudgets(n int) {
	if n < 1 {
		return
	}
	budgets := make([]*budget, n)
	base, extra := p.width/n, p.width%n
	for i := range budgets {
		w := base
		if i < extra {
			w++
		}
		if w < 1 {
			w = 1
		}
		budgets[i] = &budget{width: w, sem: make(chan struct{}, w)}
	}
	p.budgets.Store(&budgets)
}

// loadBudgets returns the current budget snapshot (nil when the pool
// was never carved — unsharded mounts).
func (p *pool) loadBudgets() []*budget {
	if b := p.budgets.Load(); b != nil {
		return *b
	}
	return nil
}

// runSharded is run with placement: task i is charged to shard
// shardOf(i)'s budget, so commits against one hot shard queue on that
// shard's slice of the pool instead of starving every other shard's
// encrypt+write fan-out. Error semantics match run (lowest task index
// wins). Falls back to the serial inline path at width 1.
//
// Unlike run, every task gets its own goroutine upfront: acquiring a
// shard slot on the caller's goroutine would head-of-line-block tasks
// bound for other shards behind one hot shard. The spawn is bounded
// all the same — callers are commit phases, whose batches hold at
// most one segment's worth of tasks (the planned extents of one
// chunk) — so the parked goroutines per in-flight commit stay within
// one segment's K.
func (p *pool) runSharded(ctx context.Context, n int, shardOf func(int) int, fn func(int) error) error {
	budgets := p.loadBudgets()
	if budgets == nil {
		return p.run(ctx, n, fn)
	}
	if n <= 0 {
		return nil
	}
	// A shard index can outrun the snapshot when a recarve (epoch
	// change) races this batch; clamp rather than panic — the budget
	// is an accounting slice, not a correctness boundary.
	budgetOf := func(i int) *budget {
		s := shardOf(i)
		if s < 0 || s >= len(budgets) {
			s = 0
		}
		return budgets[s]
	}
	p.batches.Add(1)
	p.tasks.Add(int64(n))
	p.rec.CountEvent(metrics.PoolBatch, 1)
	p.rec.CountEvent(metrics.PoolTask, int64(n))
	p.rec.CountEvent(metrics.ShardTask, int64(n))
	if p.width <= 1 {
		// Serial engine: run inline like run(), but still charge each
		// task to its owning shard's gauges so ShardStats reflects the
		// routing even when nothing executes concurrently.
		var firstErr error
		for i := 0; i < n; i++ {
			b := budgetOf(i)
			b.queued.Add(1)
			err := fn(i)
			b.tasks.Add(1)
			b.queued.Add(-1)
			if err != nil && firstErr == nil {
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
		b := budgetOf(i)
		b.queued.Add(1)
		wg.Add(1)
		go func(i int, b *budget) {
			defer wg.Done()
			// Shard slot first, then the global slot. Always in this
			// order, and tasks acquire nothing further, so the two-level
			// wait cannot cycle; when the budgets sum to the width the
			// global sem only gates against non-sharded batches.
			b.sem <- struct{}{}
			p.sem <- struct{}{}
			err := fn(i)
			<-p.sem
			<-b.sem
			b.tasks.Add(1)
			b.queued.Add(-1)
			if err != nil {
				mu.Lock()
				if firstErr == nil || i < firstIdx {
					firstErr, firstIdx = err, i
				}
				mu.Unlock()
			}
		}(i, b)
	}
	wg.Wait()
	return firstErr
}

// noteShardIO brackets one planned extent's backend I/O on shard s in
// that shard's gauges, taking no semaphore (see budget) — every read
// fetch (ev ShardRead), and a commit write dispatched on the I/O window
// (ev ShardTask), which runSharded never sees. The returned func must be
// called when the I/O completes.
func (p *pool) noteShardIO(s int, ev metrics.Event) func() {
	budgets := p.loadBudgets()
	if budgets == nil || s < 0 || s >= len(budgets) {
		return func() {}
	}
	b := budgets[s]
	b.queued.Add(1)
	return func() {
		b.tasks.Add(1)
		p.rec.CountEvent(ev, 1)
		b.queued.Add(-1)
	}
}

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
		// As in runSharded: tasks carry ctx through fn's closure, and a
		// cancellation stops dispatch of the tasks not yet spawned.
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

// ShardStats is a snapshot of one shard's worker-budget counters.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Budget is the shard's worker-budget width (its slice of the
	// pool).
	Budget int
	// Tasks is the number of per-block tasks (commit fan-out and read
	// fetches) completed for this shard.
	Tasks int64
	// QueueDepth is the number of tasks currently queued or running
	// against this shard — the live back-pressure signal.
	QueueDepth int64
}

// shardStats snapshots every budget; nil when the pool is not carved.
func (p *pool) shardStats() []ShardStats {
	budgets := p.loadBudgets()
	if budgets == nil {
		return nil
	}
	out := make([]ShardStats, len(budgets))
	for i, b := range budgets {
		out[i] = ShardStats{
			Shard:      i,
			Budget:     b.width,
			Tasks:      b.tasks.Load(),
			QueueDepth: b.queued.Load(),
		}
	}
	return out
}
