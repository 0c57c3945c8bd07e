package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestClassifyTaxonomy(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"unknown defaults fatal", base, ClassFatal},
		{"marked retryable", Retryable(base), ClassRetryable},
		{"marked fatal", Fatal(base), ClassFatal},
		{"wrapped marked retryable", fmt.Errorf("layer: %w", Retryable(base)), ClassRetryable},
		{"wrapped marked fatal", fmt.Errorf("layer: %w", Fatal(base)), ClassFatal},
		{"canceled", ErrCanceled, ClassFatal},
		{"ctx canceled", context.Canceled, ClassFatal},
		{"deadline", context.DeadlineExceeded, ClassFatal},
		{"not exist", ErrNotExist, ClassFatal},
		{"closed", ErrClosed, ClassFatal},
		{"read only", ErrReadOnly, ClassFatal},
		{"etimedout", syscall.ETIMEDOUT, ClassRetryable},
		{"econnreset wrapped", fmt.Errorf("dial: %w", syscall.ECONNRESET), ClassRetryable},
		{"estale", syscall.ESTALE, ClassRetryable},
		{"enoent errno is fatal", syscall.ENOENT, ClassFatal},
		{"short read is fatal", io.ErrUnexpectedEOF, ClassFatal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Fatalf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestClassifyMarksWin(t *testing.T) {
	// An explicit mark overrides the structural rule for the underlying
	// error in both directions.
	if got := Classify(Fatal(syscall.ETIMEDOUT)); got != ClassFatal {
		t.Fatalf("Fatal mark on transient errno: Classify = %v, want fatal", got)
	}
	if got := Classify(Retryable(errors.New("custom transient"))); got != ClassRetryable {
		t.Fatalf("Retryable mark on unknown error: Classify = %v, want retryable", got)
	}
}

func TestMarksAreErrorsIsClean(t *testing.T) {
	base := fmt.Errorf("op: %w", ErrNotExist)
	marked := Retryable(base)
	if !errors.Is(marked, ErrRetryable) {
		t.Fatal("mark lost: errors.Is(marked, ErrRetryable) = false")
	}
	if !errors.Is(marked, ErrNotExist) {
		t.Fatal("chain broken: errors.Is(marked, ErrNotExist) = false")
	}
	if marked.Error() != base.Error() {
		t.Fatalf("mark leaked into message: %q != %q", marked.Error(), base.Error())
	}
	// No double marking, no cross-marking.
	if again := Retryable(marked); again != marked {
		t.Fatal("Retryable re-marked an already-marked error")
	}
	if cross := Fatal(marked); cross != marked {
		t.Fatal("Fatal re-marked a Retryable-marked error")
	}
	if Retryable(nil) != nil || Fatal(nil) != nil {
		t.Fatal("marking nil must stay nil")
	}
}

// flakyStore wraps a MemStore, failing operations with a scripted
// error until `fail` attempts have been consumed.
type flakyStore struct {
	*MemStore
	fail int
	err  error
	ops  int
}

func (s *flakyStore) trip() error {
	s.ops++
	if s.fail > 0 {
		s.fail--
		return s.err
	}
	return nil
}

func (s *flakyStore) Open(name string, flag OpenFlag) (File, error) {
	if err := s.trip(); err != nil {
		return nil, err
	}
	f, err := s.MemStore.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: f, s: s}, nil
}

func (s *flakyStore) Remove(name string) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.MemStore.Remove(name)
}

func (s *flakyStore) Rename(oldName, newName string) error {
	if err := s.trip(); err != nil {
		return err
	}
	return s.MemStore.Rename(oldName, newName)
}

type flakyFile struct {
	File
	s *flakyStore
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.s.trip(); err != nil {
		// Model a torn transient failure: partial progress then error.
		if len(p) > 1 {
			n, _ := f.File.WriteAt(p[:len(p)/2], off)
			return n, err
		}
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.s.trip(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func noSleep(ctx context.Context, d time.Duration) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	return nil
}

// retryStore wraps inner with retries only, the policy's backoff
// waits replaced by sleep.
func retryStore(inner Store, p RetryPolicy, sleep func(context.Context, time.Duration) error) *AttemptStore {
	return NewAttemptStore(inner, AttemptPolicy{Retry: &p, Sleep: sleep})
}

// hedgeStore wraps inner with hedged reads only.
func hedgeStore(inner Store, p HedgePolicy) *AttemptStore {
	return NewAttemptStore(inner, AttemptPolicy{Hedge: &p})
}

func TestRetryStoreAbsorbsTransientFaults(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 3, err: Retryable(errors.New("transient"))}
	rs := retryStore(flaky, RetryPolicy{MaxAttempts: 4}, noSleep)

	f, err := rs.Open("seg", OpenCreate)
	if err != nil {
		t.Fatalf("Open through 3 transient faults: %v", err)
	}
	flaky.fail = 2
	data := []byte("hello retry world")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt through 2 transient faults: %v", err)
	}
	flaky.fail = 1
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt through 1 transient fault: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("readback mismatch: %q != %q", got, data)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := rs.Stats(); st.Retries != 6 || st.Exhausted != 0 {
		t.Fatalf("Stats = %+v, want 6 retries 0 exhausted", rs.Stats())
	}
}

func TestRetryStoreExhaustion(t *testing.T) {
	cause := Retryable(errors.New("always down"))
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: cause}
	rs := retryStore(flaky, RetryPolicy{MaxAttempts: 3}, noSleep)
	_, err := rs.Open("seg", OpenCreate)
	if err == nil {
		t.Fatal("Open succeeded against a permanently failing store")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("exhausted error lost its cause: %v", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("exhausted error lost its retryable mark: %v", err)
	}
	if flaky.ops != 3 {
		t.Fatalf("inner store saw %d attempts, want 3", flaky.ops)
	}
	if want := "backend: open: retries exhausted after 3 attempts: always down"; err.Error() != want {
		t.Fatalf("exhausted error = %q, want %q", err, want)
	}
	if st := rs.Stats(); st.Retries != 2 || st.Exhausted != 1 {
		t.Fatalf("Stats = %+v, want 2 retries 1 exhausted", st)
	}
}

func TestRetryStoreFatalNotRetried(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: Fatal(errors.New("disk on fire"))}
	rs := retryStore(flaky, RetryPolicy{MaxAttempts: 5}, noSleep)
	if _, err := rs.Open("seg", OpenCreate); err == nil {
		t.Fatal("want error")
	}
	if flaky.ops != 1 {
		t.Fatalf("fatal error was retried: %d attempts", flaky.ops)
	}
	// Unmarked unknown errors must also surface immediately.
	flaky.err = errors.New("unclassified")
	flaky.ops = 0
	if _, err := rs.Open("seg2", OpenCreate); err == nil {
		t.Fatal("want error")
	} else if flaky.ops != 1 {
		t.Fatalf("unknown error was retried: %d attempts", flaky.ops)
	}
	// ErrNotExist passes through untouched for errors.Is callers.
	flaky.fail = 0
	if _, err := rs.Open("missing", OpenRead); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing = %v, want ErrNotExist", err)
	}
}

func TestRetryStoreMaxAttemptsOneDisablesRetry(t *testing.T) {
	cause := Retryable(errors.New("transient"))
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1, err: cause}
	rs := retryStore(flaky, RetryPolicy{MaxAttempts: 1}, noSleep)
	_, err := rs.Open("seg", OpenCreate)
	if err != cause {
		t.Fatalf("MaxAttempts=1 must surface the raw error, got %v", err)
	}
	if st := rs.Stats(); st.Retries != 0 || st.Exhausted != 1 {
		t.Fatalf("Stats = %+v, want 0 retries 1 exhausted", st)
	}
}

func TestRetryStoreCtxBetweenAttempts(t *testing.T) {
	flaky := &flakyStore{MemStore: NewMemStore(), fail: 1 << 30, err: Retryable(errors.New("transient"))}
	ctx, cancel := context.WithCancel(context.Background())
	rs := retryStore(flaky, RetryPolicy{MaxAttempts: 10}, func(ctx context.Context, d time.Duration) error {
		cancel() // cancellation lands during the first backoff
		return CtxErr(ctx)
	})
	_, err := rs.OpenCtx(ctx, "seg", OpenCreate)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled retry loop: err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled retry loop: err = %v, want context.Canceled in chain", err)
	}
	if flaky.ops != 1 {
		t.Fatalf("attempted %d times after cancellation, want 1 (ctx observed between attempts)", flaky.ops)
	}
	if IsRetryable(err) {
		t.Fatal("cancellation must classify fatal")
	}
}

func TestRetryStoreBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 42}
	a := retryStore(NewMemStore(), p, nil)
	b := retryStore(NewMemStore(), p, nil)
	for attempt := 1; attempt <= 12; attempt++ {
		da, db := a.backoff(7, attempt), b.backoff(7, attempt)
		if da != db {
			t.Fatalf("attempt %d: backoff not deterministic: %v != %v", attempt, da, db)
		}
		if da > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, da, p.MaxDelay)
		}
		if da < p.BaseDelay/2 {
			t.Fatalf("attempt %d: backoff %v below base/2", attempt, da)
		}
	}
	// Different seeds should give different jitter somewhere.
	c := retryStore(NewMemStore(), RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 43}, nil)
	diff := false
	for attempt := 1; attempt <= 4 && !diff; attempt++ {
		diff = a.backoff(7, attempt) != c.backoff(7, attempt)
	}
	if !diff {
		t.Fatal("seed has no effect on jitter")
	}
}

func TestRetryStoreConformance(t *testing.T) {
	conformance(t, func(t *testing.T) Store {
		return retryStore(NewMemStore(), RetryPolicy{}, noSleep)
	})
}

// TestHedgeFastPathNoAllocs pins the attempt layer's clean-path cost:
// with retries on, with hedging on but disarmed (adaptive delay below
// MinDelay, as over a fast store), and with both, a clean read and a
// clean write allocate nothing — including the periodic quantile
// refresh, which must run inside the measured window.
func TestHedgeFastPathNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    AttemptPolicy
	}{
		{"retry", AttemptPolicy{Retry: &RetryPolicy{}}},
		{"hedge-disarmed", AttemptPolicy{Hedge: &HedgePolicy{}}},
		{"retry+hedge-disarmed", AttemptPolicy{Retry: &RetryPolicy{}, Hedge: &HedgePolicy{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewMemStore()
			payload := bytes.Repeat([]byte{7}, 4096)
			if err := WriteFile(inner, "k", payload); err != nil {
				t.Fatal(err)
			}
			s := NewAttemptStore(inner, tc.p)
			f, err := s.Open("k", OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 4096)
			// 2*ringSize iterations guarantee several recompute cycles
			// land inside the measurement.
			if allocs := testing.AllocsPerRun(2*ringSize, func() {
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("clean read allocates %.1f times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(2*ringSize, func() {
				if _, err := f.WriteAt(payload, 0); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("clean write allocates %.1f times, want 0", allocs)
			}
			if st := s.Stats(); st.Hedges != 0 || st.P50 < 0 {
				t.Fatalf("fast store armed hedging: %+v", st)
			}
		})
	}
}

// blockFile is a controllable File: reads block until released (or
// their ctx dies) and record the ctx they ran under.
type blockFile struct {
	File
	s *blockStore
}

type blockStore struct {
	inner Store

	mu       sync.Mutex
	reads    int
	gate     chan struct{} // non-nil: read #1 blocks on it
	canceled atomic.Int64  // reads that died by context
}

func (s *blockStore) Open(name string, flag OpenFlag) (File, error) {
	f, err := s.inner.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &blockFile{File: f, s: s}, nil
}
func (s *blockStore) Remove(name string) error        { return s.inner.Remove(name) }
func (s *blockStore) Rename(o, n string) error        { return s.inner.Rename(o, n) }
func (s *blockStore) List() ([]string, error)         { return s.inner.List() }
func (s *blockStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

func (f *blockFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	f.s.reads++
	first := f.s.reads == 1
	gate := f.s.gate
	f.s.mu.Unlock()
	if first && gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			f.s.canceled.Add(1)
			return 0, CtxErr(ctx)
		}
	}
	return f.File.ReadAt(p, off)
}

func (f *blockFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return f.File.WriteAt(p, off)
}
func (f *blockFile) TruncateCtx(ctx context.Context, size int64) error { return f.File.Truncate(size) }
func (f *blockFile) SyncCtx(ctx context.Context) error                 { return f.File.Sync() }

// TestHedgeFirstResponseWins: the primary stalls, the hedge answers,
// the caller gets the hedge's bytes, and the stalled loser is
// canceled rather than left running.
func TestHedgeFirstResponseWins(t *testing.T) {
	bs := &blockStore{inner: NewMemStore(), gate: make(chan struct{})}
	payload := []byte("hedged payload bytes")
	if err := WriteFile(bs.inner, "k", payload); err != nil {
		t.Fatal(err)
	}
	s := hedgeStore(bs, HedgePolicy{Delay: time.Millisecond})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	n, err := ReadAtCtx(context.Background(), f, buf, 0)
	if err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("hedged read = %d, %v, %q", n, err, buf[:n])
	}
	if st := s.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	// The stalled primary must observe cancellation promptly, not hold
	// its goroutine until the gate opens.
	deadline := time.Now().Add(5 * time.Second)
	for bs.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing primary was never canceled")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Reads != 1 || st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHedgePrimaryErrorBeforeDelay: a primary failing before the
// hedge delay reports its own error and never issues a hedge.
func TestHedgePrimaryErrorBeforeDelay(t *testing.T) {
	s := hedgeStore(NewMemStore(), HedgePolicy{Delay: 50 * time.Millisecond})
	if _, err := s.Open("missing", OpenRead); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open(missing): %v", err)
	}
	// A failing read: open a real file, then read far past EOF —
	// that's an io.EOF "win", so use a store-level failure instead.
	boom := Retryable(errors.New("read exploded"))
	sf := hedgeStore(failStore{err: boom}, HedgePolicy{Delay: 50 * time.Millisecond})
	f, err := sf.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = ReadAtCtx(context.Background(), f, make([]byte, 8), 0)
	if !errors.Is(err, boom) {
		t.Fatalf("primary error lost: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("failed primary waited for the hedge delay (%v)", elapsed)
	}
	if s.Stats().Hedges+sf.Stats().Hedges != 0 {
		t.Fatal("hedge issued after the primary already failed")
	}
}

// TestHedgeBothFailReturnsPrimaryError: when primary and hedge both
// fail, the primary's error surfaces (classification preserved).
func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	boom := Retryable(errors.New("both sides down"))
	s := hedgeStore(slowFailStore{err: boom, delay: 5 * time.Millisecond}, HedgePolicy{Delay: time.Microsecond})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadAtCtx(context.Background(), f, make([]byte, 8), 0)
	if !errors.Is(err, boom) || !IsRetryable(err) {
		t.Fatalf("error %v (class %v), want the primary's retryable error", err, Classify(err))
	}
}

// TestHedgeShortReadWins: an EOF-terminated short read is a usable
// response, not a failure to hedge around.
func TestHedgeShortReadWins(t *testing.T) {
	inner := NewMemStore()
	if err := WriteFile(inner, "k", []byte("1234")); err != nil {
		t.Fatal(err)
	}
	s := hedgeStore(inner, HedgePolicy{Delay: time.Minute})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	n, err := ReadAtCtx(context.Background(), f, buf, 2)
	if n != 2 || err != io.EOF || string(buf[:n]) != "34" {
		t.Fatalf("short read = %d, %v, %q", n, err, buf[:n])
	}
}

// raceStore scripts one hedged race: read #1 (the primary) waits for
// read #2 (its hedge) to arrive, then the two fail with errs[0] and
// errs[1]; later reads are served by the MemStore.
type raceStore struct {
	*MemStore
	errs [2]error

	mu            sync.Mutex
	reads         int
	primary, both chan struct{} // closed as read #1 / read #2 arrive
}

func newRaceStore(t *testing.T, primaryErr, hedgeErr error) *raceStore {
	s := &raceStore{MemStore: NewMemStore(), errs: [2]error{primaryErr, hedgeErr},
		primary: make(chan struct{}), both: make(chan struct{})}
	if err := WriteFile(s.MemStore, "k", []byte("raced payload")); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *raceStore) Open(name string, flag OpenFlag) (File, error) {
	f, err := s.MemStore.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &raceFile{File: f, s: s}, nil
}

type raceFile struct {
	File
	s *raceStore
}

func (f *raceFile) ReadAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	f.s.reads++
	i := f.s.reads
	f.s.mu.Unlock()
	switch i {
	case 1:
		close(f.s.primary)
		<-f.s.both
		return 0, f.s.errs[0]
	case 2:
		close(f.s.both)
		return 0, f.s.errs[1]
	}
	return f.File.ReadAt(p, off)
}

// raceSleep is the Sleep hook for a raceStore under a one-hour hedge
// delay: backoffs return at once, the first race hedges as soon as its
// primary is in, and later races never hedge.
func raceSleep(s *raceStore) func(context.Context, time.Duration) error {
	var races atomic.Int64
	return func(ctx context.Context, d time.Duration) error {
		if d != time.Hour {
			return CtxErr(ctx)
		}
		if races.Add(1) == 1 {
			<-s.primary
			return nil
		}
		<-ctx.Done()
		return CtxErr(ctx)
	}
}

// TestAttemptRetriesFailedRace pins the composition: a race whose
// primary and hedge both fail retryable is one failed attempt; the
// next race's primary answers, after exactly one retry and one hedge.
func TestAttemptRetriesFailedRace(t *testing.T) {
	rs := newRaceStore(t, Retryable(errors.New("primary down")), Retryable(errors.New("hedge down")))
	s := NewAttemptStore(rs, AttemptPolicy{
		Retry: &RetryPolicy{},
		Hedge: &HedgePolicy{Delay: time.Hour},
		Sleep: raceSleep(rs),
	})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len("raced payload"))
	n, err := ReadAtCtx(context.Background(), f, buf, 0)
	if err != nil || string(buf[:n]) != "raced payload" {
		t.Fatalf("read after a failed race = %d, %v, %q", n, err, buf[:n])
	}
	if st := s.Stats(); st.Retries != 1 || st.Hedges != 1 || st.HedgeWins != 0 || st.Exhausted != 0 || st.Reads != 2 {
		t.Fatalf("stats %+v, want 1 retry, 1 hedge, 0 wins, 2 read attempts", st)
	}
	if rs.reads != 3 {
		t.Fatalf("store served %d reads, want 3 (primary, hedge, retried primary)", rs.reads)
	}
}

// TestAttemptFatalRaceNotRetried: when both racers fail fatally, the
// primary's error surfaces and the read is not retried.
func TestAttemptFatalRaceNotRetried(t *testing.T) {
	primErr, hedgeErr := errors.New("primary gone"), errors.New("hedge gone")
	rs := newRaceStore(t, Fatal(primErr), Fatal(hedgeErr))
	s := NewAttemptStore(rs, AttemptPolicy{
		Retry: &RetryPolicy{},
		Hedge: &HedgePolicy{Delay: time.Hour},
		Sleep: raceSleep(rs),
	})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = ReadAtCtx(context.Background(), f, make([]byte, 8), 0)
	if !errors.Is(err, primErr) || errors.Is(err, hedgeErr) {
		t.Fatalf("error %v, want the primary's", err)
	}
	if st := s.Stats(); st.Retries != 0 || st.Hedges != 1 || st.Exhausted != 0 {
		t.Fatalf("stats %+v, want 0 retries, 1 hedge", st)
	}
	if rs.reads != 2 {
		t.Fatalf("store served %d reads, want 2", rs.reads)
	}
}

// TestAttemptCancelDuringHedgeDelay: a cancellation landing while the
// race waits out its hedge delay returns ErrCanceled; neither a hedge
// nor a retry is issued.
func TestAttemptCancelDuringHedgeDelay(t *testing.T) {
	bs := &blockStore{inner: NewMemStore(), gate: make(chan struct{})}
	if err := WriteFile(bs.inner, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewAttemptStore(bs, AttemptPolicy{
		Retry: &RetryPolicy{},
		Hedge: &HedgePolicy{Delay: time.Hour},
		Sleep: func(hctx context.Context, d time.Duration) error {
			cancel()
			return CtxErr(hctx)
		},
	})
	f, err := s.Open("k", OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = ReadAtCtx(ctx, f, make([]byte, 7), 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("read canceled in the hedge delay: %v, want ErrCanceled", err)
	}
	if st := s.Stats(); st.Retries != 0 || st.Hedges != 0 {
		t.Fatalf("stats %+v: a canceled race was re-issued", st)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.reads > 1 {
		t.Fatalf("store served %d reads, want at most the primary", bs.reads)
	}
}

// failStore fails every read instantly; other ops work.
type failStore struct{ err error }

func (s failStore) Open(name string, flag OpenFlag) (File, error) {
	return failFile{err: s.err}, nil
}
func (s failStore) Remove(name string) error        { return nil }
func (s failStore) Rename(o, n string) error        { return nil }
func (s failStore) List() ([]string, error)         { return nil, nil }
func (s failStore) Stat(name string) (int64, error) { return 0, nil }

type failFile struct{ err error }

func (f failFile) ReadAt(p []byte, off int64) (int, error)  { return 0, f.err }
func (f failFile) WriteAt(p []byte, off int64) (int, error) { return 0, f.err }
func (f failFile) Truncate(size int64) error                { return f.err }
func (f failFile) Size() (int64, error)                     { return 0, f.err }
func (f failFile) Sync() error                              { return f.err }
func (f failFile) Close() error                             { return nil }

// slowFailStore fails every read after a short delay (so the hedge
// launches before the primary's failure lands).
type slowFailStore struct {
	err   error
	delay time.Duration
}

func (s slowFailStore) Open(name string, flag OpenFlag) (File, error) {
	return slowFailFile(s), nil
}
func (s slowFailStore) Remove(name string) error        { return nil }
func (s slowFailStore) Rename(o, n string) error        { return nil }
func (s slowFailStore) List() ([]string, error)         { return nil, nil }
func (s slowFailStore) Stat(name string) (int64, error) { return 0, nil }

type slowFailFile struct {
	err   error
	delay time.Duration
}

func (f slowFailFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return 0, f.err
}
func (f slowFailFile) WriteAt(p []byte, off int64) (int, error) { return 0, f.err }
func (f slowFailFile) Truncate(size int64) error                { return f.err }
func (f slowFailFile) Size() (int64, error)                     { return 0, f.err }
func (f slowFailFile) Sync() error                              { return f.err }
func (f slowFailFile) Close() error                             { return nil }
