package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryTask: each index runs once, on at most width
// goroutines, and the caller is one of them — it runs its own batch.
func TestPoolRunsEveryTask(t *testing.T) {
	me := goroutineHeader()
	for _, width := range []int{1, 2, 8} {
		p := newPool(width)
		var hit [100]atomic.Int32
		var on [100]string
		if err := p.run(nil, len(hit), func(i int) error {
			hit[i].Add(1)
			on[i] = goroutineHeader()
			return nil
		}); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range hit {
			if got := hit[i].Load(); got != 1 {
				t.Fatalf("width %d: task %d ran %d times", width, i, got)
			}
		}
		lanes := map[string]bool{}
		for _, g := range on {
			lanes[g] = true
		}
		if !lanes[me] {
			t.Fatalf("width %d: no task ran on the caller", width)
		}
		if len(lanes) > width {
			t.Fatalf("width %d: tasks ran on %d goroutines", width, len(lanes))
		}
		st := p.stats()
		if st.Batches != 1 || st.Tasks != int64(len(hit)) {
			t.Fatalf("width %d: stats %+v", width, st)
		}
	}
}

func TestPoolReportsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, width := range []int{1, 4} {
		p := newPool(width)
		err := p.run(nil, 10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("width %d: got %v, want lowest-index error %v", width, err, errA)
		}
	}
}

// TestPoolBoundsConcurrency: k callers running batches at once run at
// most width−1 helpers between them, plus themselves.
func TestPoolBoundsConcurrency(t *testing.T) {
	const width = 3
	for _, callers := range []int{1, 4} {
		p := newPool(width)
		var cur, max atomic.Int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.run(nil, 50, func(int) error {
					n := cur.Add(1)
					mu.Lock()
					if n > max.Load() {
						max.Store(n)
					}
					mu.Unlock()
					runtime.Gosched()
					cur.Add(-1)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got, bound := max.Load(), int32(width-1+callers); got > bound {
			t.Fatalf("%d callers: observed %d concurrent tasks, bound is %d", callers, got, bound)
		}
	}
}

// TestPoolBatchNeverWaitsForASlot: while a parked batch holds every
// helper slot, a second batch runs to completion on its caller alone.
func TestPoolBatchNeverWaitsForASlot(t *testing.T) {
	const width = 3
	p := newPool(width)
	arrived, release := make(chan struct{}), make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		parked <- p.run(nil, 4*width, func(int) error {
			arrived <- struct{}{}
			<-release
			return nil
		})
	}()
	// width tasks in flight: the parked batch's caller and width−1
	// helpers, every helper slot taken.
	for range width {
		<-arrived
	}
	go func() {
		for range arrived {
		}
	}()
	defer func() {
		close(release)
		if err := <-parked; err != nil {
			t.Error(err)
		}
		close(arrived)
	}()

	second := make(chan []string, 1)
	go func() {
		var mu sync.Mutex
		on := []string{goroutineHeader()}
		_ = p.run(nil, 5, func(int) error {
			mu.Lock()
			on = append(on, goroutineHeader())
			mu.Unlock()
			return nil
		})
		mu.Lock()
		second <- on
		mu.Unlock()
	}()
	select {
	case on := <-second:
		for _, g := range on[1:] {
			if g != on[0] {
				t.Fatalf("a task ran on %q, the second batch's caller is %q", g, on[0])
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second batch waited for a pool slot the parked batch holds")
	}
}

// TestPoolCancelStopsUnstartedTasks: at every width, a ctx canceled by
// task 0 stops the lanes between tasks: the batch reports ErrCanceled,
// and only a task some other lane had claimed before the cancel may
// still start — none at width 1. Tasks that start before the cancel
// wait for it, so no lane can run the batch out first.
func TestPoolCancelStopsUnstartedTasks(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		p := newPool(width)
		ctx, cancel := context.WithCancel(context.Background())
		var late atomic.Int32
		err := p.run(ctx, 100, func(i int) error {
			if i == 0 {
				cancel()
			} else if ctx.Err() != nil {
				late.Add(1)
			} else {
				<-ctx.Done()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: got %v, want the cancellation", width, err)
		}
		if got := late.Load(); got > int32(width-1) {
			t.Fatalf("width %d: %d tasks started after the cancel", width, got)
		}
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if w := newPool(0).Width(); w < 1 {
		t.Fatalf("width %d", w)
	}
	if w := newPool(-3).Width(); w < 1 {
		t.Fatalf("width %d", w)
	}
}

// Concurrent run calls share one budget and must all complete (no
// deadlock when callers outnumber the pool width).
func TestPoolConcurrentCallers(t *testing.T) {
	p := newPool(2)
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.run(nil, 20, func(int) error {
				total.Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*20 {
		t.Fatalf("ran %d tasks, want %d", got, 8*20)
	}
}
