package faultfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"lamassu/internal/backend"
)

// schedFile opens name on a fresh scheduled memory leaf and returns the
// leaf, the open handle and the scheduler, its log cleared.
func schedFile(t *testing.T, p Policy) (*Scheduler, backend.Store, backend.File) {
	t.Helper()
	s := NewScheduler(p)
	l := s.Leaf(7, backend.NewMemStore())
	f, err := l.Open("f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	s.Take()
	return s, l, f
}

// TestSchedulerEvents: every leaf operation is one event, logged in
// issue order with its kind, leaf, name, offset and length.
func TestSchedulerEvents(t *testing.T) {
	s, l, f := schedFile(t, Policy{})
	f.WriteAt([]byte("abcd"), 8)
	f.ReadAt(make([]byte, 2), 9)
	f.Truncate(5)
	f.Sync()
	l.Stat("f")
	l.List()
	l.Rename("f", "g")
	l.Remove("g")
	evs := s.Take()
	if Count(evs, OpRead, OpWrite) != 2 || !slices.Equal(CountByLeaf(evs, 8, OpSync), []int{7: 1}) {
		t.Errorf("Count %d, CountByLeaf %v", Count(evs, OpRead, OpWrite), CountByLeaf(evs, 8, OpSync))
	}
	var got []string
	for i, ev := range evs {
		if ev.Seq != int64(i+2) {
			t.Errorf("event %d has Seq %d, want %d (the open was #1)", i, ev.Seq, i+2)
		}
		got = append(got, fmt.Sprintf("%s %d %s %d %d", ev.Op, ev.Leaf, ev.Name, ev.Off, ev.Len))
	}
	want := []string{"write 7 f 8 4", "read 7 f 9 2", "truncate 7 f 5 0", "sync 7 f 0 0",
		"stat 7 f 0 0", "list 7  0 0", "rename 7 f 0 0", "remove 7 g 0 0"}
	if !slices.Equal(got, want) {
		t.Fatalf("events:\n got  %q\n want %q", got, want)
	}
	if len(s.Take()) != 0 {
		t.Fatal("Take did not clear the log")
	}
}

// TestSchedulerParkReleaseFail: parked events wait for the test, which
// finds them by count and decides each one on its own; the policy sees
// every event again as it returns.
func TestSchedulerParkReleaseFail(t *testing.T) {
	var returned []error
	errInjected := errors.New("injected")
	s, l, f := schedFile(t, Policy{
		Issue: func(ev *Event) Verdict {
			switch {
			case ev.Op != OpWrite:
				return Pass
			case ev.Off == 99:
				return Fail(errInjected)
			}
			return Park
		},
		Return: func(ev *Event) {
			if ev.Op == OpWrite {
				returned = append(returned, ev.Err)
			}
		},
	})
	if _, err := f.WriteAt([]byte("x"), 99); !errors.Is(err, errInjected) {
		t.Fatalf("failed at issue: %v", err)
	}
	done := make(chan error, 2)
	for _, off := range []int64{0, 1} {
		go func() {
			_, err := f.WriteAt([]byte("y"), off)
			done <- err
		}()
	}
	evs := s.Await(t, 2)
	if len(evs) != 2 || evs[0].Seq > evs[1].Seq {
		t.Fatalf("parked: %v", evs)
	}
	byOff := map[int64]*Event{evs[0].Off: evs[0], evs[1].Off: evs[1]}
	byOff[1].Fail(errInjected)
	if err := <-done; !errors.Is(err, errInjected) {
		t.Fatalf("the failed event returned %v", err)
	}
	byOff[0].Release()
	if err := <-done; err != nil {
		t.Fatalf("the released event returned %v", err)
	}
	if got, err := backend.ReadFile(l, "f"); err != nil || string(got) != "y" {
		t.Fatalf("store holds %q, %v; want only the released write", got, err)
	}
	if len(returned) != 3 || !errors.Is(returned[0], errInjected) || !errors.Is(returned[1], errInjected) || returned[2] != nil {
		t.Fatalf("Return saw %v", returned)
	}
}

// TestSchedulerRounds: a round closes by count, and every event parked
// by then is released together.
func TestSchedulerRounds(t *testing.T) {
	s := NewScheduler(Policy{Issue: func(ev *Event) Verdict {
		if ev.Op == OpRead {
			return Park
		}
		return Pass
	}})
	var leaves []backend.Store
	for i := range 3 {
		leaves = append(leaves, s.Leaf(i, backend.NewMemStore()))
		if err := backend.WriteFile(leaves[i], "f", []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	// Three readers, one read each, then one more read on leaf 0.
	s.Rounds(t, func() {
		errs := make(chan error, 3)
		for _, l := range leaves {
			go func() { _, err := backend.ReadFile(l, "f"); errs <- err }()
		}
		for range leaves {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
		if _, err := backend.ReadFile(leaves[0], "f"); err != nil {
			t.Error(err)
		}
	}, 3, 1)
}

// TestSchedulerCut: after Cut every mutation fails and changes nothing;
// reads and opens of existing files still pass.
func TestSchedulerCut(t *testing.T) {
	s, l, f := schedFile(t, Policy{})
	if _, err := f.WriteAt([]byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	s.Cut()
	mutations := map[string]error{}
	_, mutations["write"] = f.WriteAt([]byte("lost"), 0)
	mutations["truncate"] = f.Truncate(0)
	mutations["sync"] = f.Sync()
	mutations["remove"] = l.Remove("f")
	mutations["rename"] = l.Rename("f", "g")
	_, mutations["create"] = l.Open("new", backend.OpenCreate)
	for op, err := range mutations {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after the cut: %v, want ErrCrashed", op, err)
		}
	}
	g, err := l.Open("f", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 4)
	if _, err := g.ReadAt(buf, 0); err != nil || string(buf) != "keep" {
		t.Fatalf("read after the cut: %q, %v", buf, err)
	}
}

// TestSchedulerCancelAfter: CancelAfter cancels between the n-th
// write's return and the next write, CancelBefore as the n-th write is
// issued, so that write is the first to see the dead ctx.
func TestSchedulerCancelAfter(t *testing.T) {
	for _, before := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		p := CancelAfter(OpWrite, 2, cancel)
		if before {
			p = CancelBefore(OpWrite, 2, cancel)
		}
		_, _, f := schedFile(t, p)
		for i := range 3 {
			_, err := backend.WriteAtCtx(ctx, f, []byte("w"), int64(i))
			if ok := i == 0 || i == 1 && !before; ok != (err == nil) {
				t.Fatalf("before %v, write %d: %v", before, i+1, err)
			}
		}
		cancel()
	}
}

type ctxKey struct{}

// TestSchedulerCtxReachesInner: every operation that carries a ctx hands
// the caller's ctx, canceled or not, to the inner store's own …Ctx
// method — here a second scheduler's leaf, whose log shows what reached
// it — except a parked event's, which the test released: that one keeps
// its ctx's values and drops its cancellation, because it was on the
// wire when its caller gave up.
func TestSchedulerCtxReachesInner(t *testing.T) {
	inner := NewScheduler(Policy{})
	s := NewScheduler(Policy{})
	l := s.Leaf(0, inner.Leaf(0, backend.NewMemStore())).(backend.StoreCtx)
	dead, cancel := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "tag"))
	cancel()

	f, err := l.OpenCtx(nil, "f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	inner.Take()
	cf := f.(backend.FileCtx)
	l.OpenCtx(dead, "f", backend.OpenRead)
	cf.WriteAtCtx(dead, []byte("x"), 0)
	cf.ReadAtCtx(dead, make([]byte, 1), 0)
	cf.TruncateCtx(dead, 1)
	cf.SyncCtx(dead)
	l.StatCtx(dead, "f")
	l.ListCtx(dead)
	l.RemoveCtx(dead, "f")
	evs := inner.Take()
	if len(evs) != 8 {
		t.Fatalf("the inner store saw %d operations, want 8: %v", len(evs), evs)
	}
	for _, ev := range evs {
		if ev.Ctx != dead {
			t.Errorf("%s: the inner store saw ctx %v, want the caller's canceled one", ev.Op, ev.Ctx)
		}
	}

	s.SetPolicy(Policy{Issue: func(*Event) Verdict { return Park }})
	live, stop := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "tag"))
	done := make(chan error, 1)
	go func() { _, err := cf.WriteAtCtx(live, []byte("y"), 0); done <- err }()
	ev := s.Await(t, 1)[0]
	if ev.Ctx != live {
		t.Fatalf("the event carries ctx %v, want the caller's", ev.Ctx)
	}
	stop()
	ev.Release()
	if err := <-done; err != nil {
		t.Fatalf("a released write whose caller gave up: %v", err)
	}
	if got := inner.Take()[0].Ctx; got.Err() != nil || got.Value(ctxKey{}) != "tag" {
		t.Fatalf("the released write ran under ctx err %v, value %v; want live, tagged", got.Err(), got.Value(ctxKey{}))
	}
}
