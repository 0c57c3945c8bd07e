package faultfs

// The scheduler: one controllable store for every interleaving test.
// Where Store cuts a running workload at one chosen write, a Scheduler
// turns every leaf operation into an event that a policy passes, parks
// or fails, so a test decides which operations are in flight together
// and in which order they complete — by count, never by a clock.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"lamassu/internal/backend"
)

// hangGuard bounds every wait on a Scheduler. It never decides a
// result: a wait that reaches it fails the test, because the events it
// waited for were not issued together.
const hangGuard = 10 * time.Second

// Event is one leaf operation: Open, Remove, Rename, List, Stat on a
// leaf, or ReadAt, WriteAt, Truncate, Sync on a file it opened.
type Event struct {
	Op   Op
	Leaf int    // the id the leaf was wrapped with
	Name string // the file; a rename's old name; "" for List
	Flag backend.OpenFlag
	Off  int64           // ReadAt/WriteAt offset; Truncate's size
	Len  int             // ReadAt/WriteAt length
	Ctx  context.Context // the caller's; nil for the plain methods
	Seq  int64           // issue order, from 1, across the scheduler's leaves
	Err  error           // what the operation returned, once it has

	fate chan error
}

func (e *Event) String() string {
	return fmt.Sprintf("#%d %s leaf %d %q off %d len %d", e.Seq, e.Op, e.Leaf, e.Name, e.Off, e.Len)
}

// Release lets a parked event go on to the inner store. It runs with
// its ctx's values but not its cancellation: the request was on the
// wire when it parked, so it lands whatever happened to its caller.
func (e *Event) Release() { e.fate <- nil }

// Fail returns err for a parked event; the inner store sees nothing.
// Fail(nil) is Release.
func (e *Event) Fail(err error) { e.fate <- err }

// Release releases every one of evs.
func Release(evs ...*Event) {
	for _, ev := range evs {
		ev.Release()
	}
}

// mutates reports whether the event changes the store; Cut fails these.
func (e *Event) mutates() bool {
	switch e.Op {
	case OpWrite, OpTruncate, OpSync, OpRemove, OpRename:
		return true
	}
	return e.Op == OpOpen && e.Flag == backend.OpenCreate
}

// Verdict is a policy's decision on an issued event: Pass, Park or
// Fail(err).
type Verdict struct {
	park bool
	err  error
}

var (
	// Pass sends the event on to the inner store.
	Pass = Verdict{}
	// Park holds the event until the test releases or fails it.
	Park = Verdict{park: true}
)

// Fail returns err for the event without issuing it.
func Fail(err error) Verdict { return Verdict{err: err} }

// Policy decides every event's fate. Issue sees an event as it is
// issued and returns its verdict (nil passes everything); Return sees
// it again as it returns, with Err set. Both run under the scheduler's
// lock, one event at a time, so a policy keeps its state without a lock
// of its own; neither may block or call the scheduler.
type Policy struct {
	Issue  func(ev *Event) Verdict
	Return func(ev *Event)
}

// When gives the events match reports true for verdict v and passes the
// rest.
func When(match func(ev *Event) bool, v Verdict) Policy {
	return Policy{Issue: func(ev *Event) Verdict {
		if match(ev) {
			return v
		}
		return Pass
	}}
}

// Nth reports true for the n-th event of kind op it is shown, and for
// no other (n 0: none).
func Nth(op Op, n int) func(ev *Event) bool {
	seen := 0
	return func(ev *Event) bool {
		if ev.Op != op {
			return false
		}
		seen++
		return seen == n
	}
}

// CancelAfter passes every event and calls cancel once the n-th event
// of kind op has returned (n 0: never): a cancellation between two
// backend operations, the boundary the engine promises to observe.
func CancelAfter(op Op, n int, cancel context.CancelFunc) Policy {
	nth := Nth(op, n)
	return Policy{Return: func(ev *Event) {
		if nth(ev) {
			cancel()
		}
	}}
}

// CancelBefore passes every event and calls cancel as the n-th event of
// kind op is issued (n 0: never), before the inner store sees it, so
// that operation is the first to observe the dead ctx.
func CancelBefore(op Op, n int, cancel context.CancelFunc) Policy {
	nth := Nth(op, n)
	return Policy{Issue: func(ev *Event) Verdict {
		if nth(ev) {
			cancel()
		}
		return Pass
	}}
}

// Count returns how many of evs are of one of the kinds ops.
func Count(evs []Event, ops ...Op) int {
	n := 0
	for _, ev := range evs {
		if slices.Contains(ops, ev.Op) {
			n++
		}
	}
	return n
}

// CountByLeaf returns how many of evs of kind op each of leaves 0..n-1
// issued.
func CountByLeaf(evs []Event, n int, op Op) []int {
	out := make([]int, n)
	for _, ev := range evs {
		if ev.Op == op {
			out[ev.Leaf]++
		}
	}
	return out
}

// TB is the part of testing.TB the scheduler's waits use.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Scheduler wraps leaf stores (Leaf) so that each of their operations
// is an event its policy decides. The leaves of one sharded store share
// one scheduler, so a test sees and orders their operations together.
type Scheduler struct {
	mu     sync.Mutex
	policy Policy
	seq    int64
	log    []Event
	parked []*Event
	wake   chan struct{} // closed and replaced whenever an event parks
	cut    bool
}

// NewScheduler returns a scheduler deciding events by p.
func NewScheduler(p Policy) *Scheduler {
	return &Scheduler{policy: p, wake: make(chan struct{})}
}

// SetPolicy replaces the policy for the events issued from now on.
func (s *Scheduler) SetPolicy(p Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// Cut fails every mutation issued from now on with ErrCrashed: the
// process is dead, and nothing it still issues may land. Events parked
// before the cut are still the test's to release or fail.
func (s *Scheduler) Cut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = true
}

// Stop drops the policy and releases every parked event the test has
// not taken: whatever the test no longer drives passes.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	parked := s.parked
	s.policy, s.parked = Policy{}, nil
	s.mu.Unlock()
	Release(parked...)
}

// Take returns the events issued since the last Take, in issue order,
// as they were when issued.
func (s *Scheduler) Take() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.log
	s.log = nil
	return log
}

// Await waits until at least n events are parked and takes every parked
// event, in issue order; each is then the test's to Release or Fail.
func (s *Scheduler) Await(t TB, n int) []*Event {
	t.Helper()
	evs, ok := s.await(n, nil)
	if !ok {
		t.Fatalf("faultfs: waited for %d parked events; %d are parked: %v", n, len(evs), evs)
	}
	return evs
}

// Rounds runs op on a goroutine of its own and releases the events it
// parks round by round until it returns: round i closes once want[i]
// events are parked (any one, past the end of want), and every event
// parked then is released at once. Under a policy that parks every
// operation of one kind, a round is one round trip of op's critical
// path, and its size is how many operations overlapped in it. Rounds
// fails the test unless the sizes of the rounds are want, and returns
// them.
func (s *Scheduler) Rounds(t TB, op func(), want ...int) []int {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	var rounds []int
	for i := 0; ; i++ {
		n := 1
		if i < len(want) {
			n = want[i]
		}
		evs, ok := s.await(n, done)
		switch {
		case !ok:
			t.Fatalf("faultfs: waited for %d parked events after rounds %v of %v; %d are parked: %v",
				n, rounds, want, len(evs), evs)
		case len(evs) == 0:
			if !slices.Equal(rounds, want) {
				t.Fatalf("faultfs: rounds of events in flight together:\n got  %d rounds %v\n want %d rounds %v",
					len(rounds), rounds, len(want), want)
			}
			return rounds
		}
		rounds = append(rounds, len(evs))
		Release(evs...)
	}
}

// await waits until n events are parked, or done closes, and takes
// every parked event. Past the hang guard it stops the scheduler and
// reports false with what was parked.
func (s *Scheduler) await(n int, done <-chan struct{}) ([]*Event, bool) {
	guard := time.NewTimer(hangGuard)
	defer guard.Stop()
	for {
		s.mu.Lock()
		evs, wake := s.parked, s.wake
		finished := false
		select {
		case <-done:
			finished = true
		default:
		}
		if len(evs) >= n || finished {
			s.parked = nil
		}
		s.mu.Unlock()
		if len(evs) >= n || finished {
			return evs, true
		}
		select {
		case <-wake:
		case <-done:
		case <-guard.C:
			s.Stop()
			return evs, false
		}
	}
}

// do runs one event: the policy's verdict, then — unless that fails the
// event — op on the inner store, then the policy's look at the result.
func (s *Scheduler) do(ev *Event, op func(ctx context.Context) error) error {
	s.mu.Lock()
	s.seq++
	ev.Seq = s.seq
	s.log = append(s.log, *ev)
	v := Pass
	switch {
	case s.cut && ev.mutates():
		v = Fail(ErrCrashed)
	case s.policy.Issue != nil:
		v = s.policy.Issue(ev)
	}
	if v.park {
		ev.fate = make(chan error, 1)
		s.parked = append(s.parked, ev)
		close(s.wake)
		s.wake = make(chan struct{})
	}
	s.mu.Unlock()
	err, ctx := v.err, ev.Ctx
	if v.park {
		if err = <-ev.fate; ctx != nil {
			ctx = context.WithoutCancel(ctx)
		}
	}
	if err == nil {
		err = op(ctx)
	}
	s.mu.Lock()
	ev.Err = err
	if s.policy.Return != nil {
		s.policy.Return(ev)
	}
	s.mu.Unlock()
	return err
}

// Leaf wraps inner as leaf id of the scheduler. Every …Ctx method hands
// its ctx to inner's own, so a canceled ctx reaches the inner store.
func (s *Scheduler) Leaf(id int, inner backend.Store) backend.Store {
	cs, ok := inner.(backend.StoreCtx)
	if !ok {
		cs = plainStore{inner}
	}
	return &leaf{s: s, id: id, inner: cs}
}

type leaf struct {
	s     *Scheduler
	id    int
	inner backend.StoreCtx
}

func (l *leaf) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return l.OpenCtx(nil, name, flag)
}

func (l *leaf) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	var f backend.File
	err := l.s.do(&Event{Op: OpOpen, Leaf: l.id, Name: name, Flag: flag, Ctx: ctx}, func(ctx context.Context) (err error) {
		f, err = l.inner.OpenCtx(ctx, name, flag)
		return err
	})
	if err != nil {
		return nil, err
	}
	cf, ok := f.(backend.FileCtx)
	if !ok {
		cf = plainFile{f}
	}
	return &leafFile{l: l, name: name, inner: cf}, nil
}

func (l *leaf) Remove(name string) error { return l.RemoveCtx(nil, name) }

func (l *leaf) RemoveCtx(ctx context.Context, name string) error {
	return l.s.do(&Event{Op: OpRemove, Leaf: l.id, Name: name, Ctx: ctx}, func(ctx context.Context) error {
		return l.inner.RemoveCtx(ctx, name)
	})
}

func (l *leaf) Rename(oldName, newName string) error {
	return l.s.do(&Event{Op: OpRename, Leaf: l.id, Name: oldName}, func(context.Context) error {
		return l.inner.Rename(oldName, newName)
	})
}

func (l *leaf) List() ([]string, error) { return l.ListCtx(nil) }

func (l *leaf) ListCtx(ctx context.Context) (names []string, err error) {
	err = l.s.do(&Event{Op: OpList, Leaf: l.id, Ctx: ctx}, func(ctx context.Context) (err error) {
		names, err = l.inner.ListCtx(ctx)
		return err
	})
	return names, err
}

func (l *leaf) Stat(name string) (int64, error) { return l.StatCtx(nil, name) }

func (l *leaf) StatCtx(ctx context.Context, name string) (size int64, err error) {
	err = l.s.do(&Event{Op: OpStat, Leaf: l.id, Name: name, Ctx: ctx}, func(ctx context.Context) (err error) {
		size, err = l.inner.StatCtx(ctx, name)
		return err
	})
	return size, err
}

type leafFile struct {
	l     *leaf
	name  string
	inner backend.FileCtx
}

func (f *leafFile) do(op Op, ctx context.Context, off int64, n int, fn func(ctx context.Context) error) error {
	return f.l.s.do(&Event{Op: op, Leaf: f.l.id, Name: f.name, Off: off, Len: n, Ctx: ctx}, fn)
}

func (f *leafFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

func (f *leafFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (n int, err error) {
	err = f.do(OpRead, ctx, off, len(p), func(ctx context.Context) (err error) {
		n, err = f.inner.ReadAtCtx(ctx, p, off)
		return err
	})
	return n, err
}

func (f *leafFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

func (f *leafFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (n int, err error) {
	err = f.do(OpWrite, ctx, off, len(p), func(ctx context.Context) (err error) {
		n, err = f.inner.WriteAtCtx(ctx, p, off)
		return err
	})
	return n, err
}

func (f *leafFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

func (f *leafFile) TruncateCtx(ctx context.Context, size int64) error {
	return f.do(OpTruncate, ctx, size, 0, func(ctx context.Context) error { return f.inner.TruncateCtx(ctx, size) })
}

func (f *leafFile) Sync() error { return f.SyncCtx(nil) }

func (f *leafFile) SyncCtx(ctx context.Context) error {
	return f.do(OpSync, ctx, 0, 0, f.inner.SyncCtx)
}

// Size is answered locally by every backend in the tree, so it is no
// event.
func (f *leafFile) Size() (int64, error) { return f.inner.Size() }

func (f *leafFile) Close() error { return f.inner.Close() }

// plainStore and plainFile give a store without the …Ctx methods the
// backend helpers' behavior: a ctx check, then the plain call.
type plainStore struct{ backend.Store }

func (s plainStore) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	return backend.OpenCtx(ctx, s.Store, name, flag)
}
func (s plainStore) RemoveCtx(ctx context.Context, name string) error {
	return backend.RemoveCtx(ctx, s.Store, name)
}
func (s plainStore) ListCtx(ctx context.Context) ([]string, error) {
	return backend.ListCtx(ctx, s.Store)
}
func (s plainStore) StatCtx(ctx context.Context, name string) (int64, error) {
	return backend.StatCtx(ctx, s.Store, name)
}

type plainFile struct{ backend.File }

func (f plainFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return backend.ReadAtCtx(ctx, f.File, p, off)
}
func (f plainFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return backend.WriteAtCtx(ctx, f.File, p, off)
}
func (f plainFile) TruncateCtx(ctx context.Context, size int64) error {
	return backend.TruncateCtx(ctx, f.File, size)
}
func (f plainFile) SyncCtx(ctx context.Context) error { return backend.SyncCtx(ctx, f.File) }
