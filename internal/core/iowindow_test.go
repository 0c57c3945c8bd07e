package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamassu/internal/backend"
)

// windowedCases is the n × window table every runWindowed test walks,
// each case on an FS of its own with that window: a window below n is a
// bounded lane set, a window of n or more one lane per task, and n <= 1
// the inline forms.
func windowedCases(t *testing.T, fn func(fs *FS, n, window int)) {
	t.Helper()
	for _, n := range []int{0, 1, 2, 7, 64} {
		for _, window := range []int{1, 4, n, n + 1} {
			if window < 1 {
				continue // no window, no runWindowed
			}
			cfg := testConfig()
			cfg.IOWindow = window
			fn(newFS(t, backend.NewMemStore(), cfg), n, window)
		}
	}
}

// wantLanes is the concurrency runWindowed promises for (n, window).
func wantLanes(n, window int) int { return min(n, window) }

// TestRunWindowedRunsEveryTaskOnce: each index runs exactly once, no
// error means (0, nil), and no task body runs after runWindowed has
// returned.
func TestRunWindowedRunsEveryTaskOnce(t *testing.T) {
	windowedCases(t, func(fs *FS, n, window int) {
		runs := make([]atomic.Int32, n)
		var returned atomic.Bool
		idx, err := fs.runWindowed(context.Background(), n, func(i int) error {
			if returned.Load() {
				t.Errorf("n=%d window=%d: task %d running after return", n, window, i)
			}
			runs[i].Add(1)
			return nil
		})
		returned.Store(true)
		if idx != 0 || err != nil {
			t.Fatalf("n=%d window=%d: got (%d, %v), want (0, nil)", n, window, idx, err)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("n=%d window=%d: task %d ran %d times", n, window, i, c)
			}
		}
	})
}

// goroutineHeader returns the "goroutine N [running]:" line of the
// calling goroutine's stack — its identity, for the inline test.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestRunWindowedSingleTaskInline: with n == 1 the task runs on the
// caller's own goroutine whatever the window, and the dispatcher does not
// consult ctx for it (the task's own backend call does) — both as
// before the dispatcher had lanes.
func TestRunWindowedSingleTaskInline(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	me := goroutineHeader()
	windowedCases(t, func(fs *FS, n, window int) {
		if n != 1 {
			return
		}
		var on string
		idx, err := fs.runWindowed(dead, 1, func(int) error { on = goroutineHeader(); return nil })
		if idx != 0 || err != nil {
			t.Fatalf("window=%d: got (%d, %v)", window, idx, err)
		}
		if on != me {
			t.Fatalf("window=%d: single task ran on %q, caller is %q", window, on, me)
		}
	})
}

// TestRunWindowedPeakConcurrency: tasks in flight reach min(n, window)
// and never exceed it. Every task parks until the
// promised number are inside together (so the peak is reached by
// construction or the test deadlocks into its timeout), then the gate
// opens for good and the rest drain.
func TestRunWindowedPeakConcurrency(t *testing.T) {
	windowedCases(t, func(fs *FS, n, window int) {
		if n == 0 {
			return
		}
		want := wantLanes(n, window)
		var (
			mu       sync.Mutex
			inFlight int
			peak     int
			open     = make(chan struct{})
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			fs.runWindowed(context.Background(), n, func(int) error {
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				if inFlight == want {
					select {
					case <-open:
					default:
						close(open)
					}
				}
				mu.Unlock()
				<-open
				mu.Lock()
				inFlight--
				mu.Unlock()
				return nil
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("n=%d window=%d: never reached %d tasks in flight", n, window, want)
		}
		if peak != want {
			t.Fatalf("n=%d window=%d: peak %d tasks in flight, want %d", n, window, peak, want)
		}
	})
}

// TestRunWindowedLowestErrorWins: two tasks fail and the HIGHER index
// fails first in time (the lower one waits for it); the lower index's
// error is what comes back, and every task still ran — an earlier
// failure stops nothing that could start.
func TestRunWindowedLowestErrorWins(t *testing.T) {
	windowedCases(t, func(fs *FS, n, window int) {
		if n < 2 {
			return
		}
		lanes := wantLanes(n, window)
		// lo and hi must be able to be in flight together for lo to wait
		// on hi; with one lane hi simply fails later in time, and lowest
		// still wins.
		lo, hi := n/3, n/3+1
		if lanes == 1 {
			lo, hi = n/3, n-1
		}
		hiFailed := make(chan struct{})
		var ran atomic.Int32
		idx, err := fs.runWindowed(context.Background(), n, func(i int) error {
			ran.Add(1)
			switch i {
			case hi:
				close(hiFailed)
				return fmt.Errorf("task %d", i)
			case lo:
				if lanes > 1 {
					<-hiFailed
				}
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if idx != lo || err == nil || err.Error() != fmt.Sprintf("task %d", lo) {
			t.Fatalf("n=%d window=%d: got (%d, %v), want task %d's failure", n, window, idx, err, lo)
		}
		if int(ran.Load()) != n {
			t.Fatalf("n=%d window=%d: %d of %d tasks ran after a failure", n, window, ran.Load(), n)
		}
	})
}

// TestRunWindowedCancel: a ctx canceled from inside task j (so after j
// started) stops lanes from starting further tasks. The cancellation is
// reported as ErrCanceled at the first index that never started, every
// index below it ran to completion, and a genuine failure at a lower
// index outranks it. (A lane may claim an index below j and find the ctx
// dead before starting it — then THAT is the first unstarted index, even
// if it is task 0, the one told to fail.)
func TestRunWindowedCancel(t *testing.T) {
	windowedCases(t, func(fs *FS, n, window int) {
		if n < 2 {
			return
		}
		for _, failLower := range []bool{false, true} {
			j := n / 2
			ctx, cancel := context.WithCancel(context.Background())
			started := make([]atomic.Bool, n)
			finished := make([]atomic.Bool, n)
			var canceled atomic.Bool
			var late atomic.Int32 // tasks that started after cancel returned
			idx, err := fs.runWindowed(ctx, n, func(i int) error {
				if canceled.Load() {
					late.Add(1)
				}
				started[i].Store(true)
				defer finished[i].Store(true)
				if i == j {
					cancel()
					canceled.Store(true)
				}
				if failLower && i == 0 {
					return errors.New("task 0")
				}
				return nil
			})
			cancel()
			first := n // first index that never started
			for i := range started {
				if !started[i].Load() {
					first = i
					break
				}
			}
			for i := range started {
				if started[i].Load() != finished[i].Load() {
					t.Fatalf("n=%d window=%d: task %d started but did not run to completion", n, window, i)
				}
			}
			if !started[j].Load() {
				t.Fatalf("n=%d window=%d: canceling task %d never started", n, window, j)
			}
			switch {
			case failLower && started[0].Load():
				if idx != 0 || err == nil || err.Error() != "task 0" {
					t.Fatalf("n=%d window=%d: got (%d, %v), want task 0's failure over the cancellation", n, window, idx, err)
				}
			case first == n:
				// Every task had started before the cancel landed (one
				// lane per task, or j was the last index): nothing was
				// stopped, nothing to report.
				if idx != 0 || err != nil {
					t.Fatalf("n=%d window=%d: got (%d, %v) with every task started", n, window, idx, err)
				}
			default:
				if idx != first || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("n=%d window=%d: got (%d, %v), want ErrCanceled at first unstarted index %d", n, window, idx, err, first)
				}
			}
			// A lane that saw a live ctx just before the cancel may still
			// start the one task it had claimed; none starts a second.
			if lanes := wantLanes(n, window); int(late.Load()) > lanes-1 {
				t.Fatalf("n=%d window=%d: %d tasks started after the cancel, %d lanes", n, window, late.Load(), lanes)
			}
		}
	})
}

// TestRunWindowedPreCanceled: a ctx dead on entry starts nothing (n >= 2)
// and reports the cancellation at index 0.
func TestRunWindowedPreCanceled(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	windowedCases(t, func(fs *FS, n, window int) {
		if n < 2 {
			return
		}
		var ran atomic.Int32
		idx, err := fs.runWindowed(dead, n, func(int) error { ran.Add(1); return nil })
		if idx != 0 || !errors.Is(err, ErrCanceled) || ran.Load() != 0 {
			t.Fatalf("n=%d window=%d: got (%d, %v) with %d tasks run", n, window, idx, err, ran.Load())
		}
	})
}
