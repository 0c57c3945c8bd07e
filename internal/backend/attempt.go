// AttemptStore: the one attempt layer at the store boundary — bounded
// retry of every operation, plus optional hedged reads.
//
// Every operation whose error classifies retryable gets another
// attempt after a capped, jittered backoff; fatal errors, cancellation
// included, surface on the first occurrence. With hedging on, each
// attempt of a read is a race: a duplicate of the same ranged read
// joins the primary once it has been outstanding longer than the hedge
// delay, the first usable response wins and the loser is canceled; a
// race whose reads both fail hands the primary's error to the retry
// loop. Writes, truncates and syncs never race, and Close is never
// re-issued. A re-issue is safe because every operation is idempotent —
// a retried WriteAt writes the identical bytes at the identical offset,
// a duplicated ranged read has no side effects — so a retry is exactly
// the §2.4 crash-cut-then-resume path run early, and the commit
// protocol's crash sweeps hold over this store. Cancellation is
// observed between attempts only (the waits are context-interruptible,
// an attempt is not): a backend operation happens entirely or is never
// issued.
//
// Backoff is capped exponential with deterministic jitter: the delay
// before re-issuing attempt k is uniformly drawn from
// [base·2^(k-1)/2, 3·base·2^(k-1)/2), capped at MaxDelay, using a
// splitmix64 stream seeded by (Seed, operation sequence, attempt).
//
// The hedge delay adapts: a ring of recent primary-read latencies
// feeds a quantile estimate (HedgePolicy.Quantile, default 0.95), and
// the hedge fires at hedgeFactor times that quantile, so a read merely
// at the quantile does not spuriously hedge. Until enough samples
// exist, or while the estimate sits below HedgePolicy.MinDelay (the
// store is fast, hedging is pointless), reads take a synchronous fast
// path that performs no allocation. Only a hedging store reads the
// clock.
package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lamassu/internal/simclock"
)

const (
	// ringSize bounds the latency sample window.
	ringSize = 128
	// warmup is the number of samples required before hedging arms.
	warmup = 32
	// recomputeEvery batches quantile recomputation.
	recomputeEvery = 16
	// hedgeFactor scales the quantile into the hedge delay.
	hedgeFactor = 1.5
)

// RetryPolicy bounds how often an operation is re-issued. The zero
// value selects the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of times an operation is issued
	// (first try included) before its last retryable error surfaces.
	// 0 selects 4; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-issue (0 selects
	// 1ms); MaxDelay caps the exponential growth (0 selects 64×
	// BaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff.
	MaxDelay time.Duration
	// Seed perturbs the deterministic jitter stream; two stores with
	// the same seed observe identical backoff schedules.
	Seed uint64
}

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return time.Millisecond
	}
	return p.BaseDelay
}

func (p *RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 64 * p.baseDelay()
	}
	return p.MaxDelay
}

// HedgePolicy configures hedged reads. The zero value is a sane
// adaptive policy.
type HedgePolicy struct {
	// Delay, when positive, is a fixed hedge delay and disables the
	// adaptive estimate (useful in tests).
	Delay time.Duration
	// Quantile of the observed read-latency window the adaptive delay
	// is derived from. Defaults to 0.95.
	Quantile float64
	// MinDelay floors the adaptive delay: estimates below it disable
	// hedging entirely (the store is too fast for a hedge to help).
	// Defaults to 200µs.
	MinDelay time.Duration
}

// AttemptPolicy configures an AttemptStore.
type AttemptPolicy struct {
	// Retry, when non-nil, re-issues retryable failures; nil issues
	// every operation once.
	Retry *RetryPolicy
	// Hedge, when non-nil, hedges reads; nil never duplicates one.
	Hedge *HedgePolicy
	// Clock times primary reads and, unless Sleep overrides it, backs
	// the backoff and hedge-delay waits. Nil means the real clock.
	Clock simclock.Clock
	// Sleep, when non-nil, replaces both waits — the test and
	// simulation hook. It must honor ctx like simclock.SleepCtx: a nil
	// ctx waits unconditionally, a canceled one cuts the wait short
	// with a non-nil error, which also suppresses a pending hedge.
	Sleep func(ctx context.Context, d time.Duration) error
}

// AttemptStats is a snapshot of an AttemptStore's counters.
type AttemptStats struct {
	// Retries counts re-issued attempts (not each operation's first
	// try); Exhausted counts operations that still failed with a
	// retryable error after their final attempt.
	Retries, Exhausted int64
	// Reads counts read attempts through a hedging store, Hedges the
	// duplicates its delay triggered, HedgeWins the duplicates that
	// beat their primary. P50 and P99 are the primary-read latency
	// quantiles over the sample window (zero before any sample).
	Reads, Hedges, HedgeWins int64
	P50, P99                 time.Duration
}

// AttemptStore wraps an inner Store with the attempt layer. It
// implements StoreCtx, and the files it opens implement FileCtx, so
// contexts keep flowing to the inner store.
type AttemptStore struct {
	inner Store
	p     AttemptPolicy

	seq                      atomic.Uint64
	retries, exhausted       atomic.Int64
	reads, hedges, hedgeWins atomic.Int64

	samples  [ringSize]atomic.Int64
	nsamples atomic.Int64
	delay    atomic.Int64 // cached adaptive hedge delay (ns); 0 = fast path

	qmu     sync.Mutex
	scratch [ringSize]int64

	bufs sync.Pool
}

var (
	_ StoreCtx = (*AttemptStore)(nil)
	_ FileCtx  = (*attemptFile)(nil)
)

// NewAttemptStore wraps inner under p. Hedge defaults are filled in:
// quantile 0.95, minimum delay 200µs.
func NewAttemptStore(inner Store, p AttemptPolicy) *AttemptStore {
	if h := p.Hedge; h != nil {
		hp := *h
		if hp.Quantile <= 0 || hp.Quantile >= 1 {
			hp.Quantile = 0.95
		}
		if hp.MinDelay <= 0 {
			hp.MinDelay = 200 * time.Microsecond
		}
		p.Hedge = &hp
	}
	if p.Clock == nil {
		p.Clock = simclock.Real{}
	}
	return &AttemptStore{inner: inner, p: p}
}

// Stats snapshots the counters and the latency quantiles.
func (s *AttemptStore) Stats() AttemptStats {
	st := AttemptStats{
		Retries:   s.retries.Load(),
		Exhausted: s.exhausted.Load(),
		Reads:     s.reads.Load(),
		Hedges:    s.hedges.Load(),
		HedgeWins: s.hedgeWins.Load(),
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if n := s.sortSamples(); n > 0 {
		st.P50 = time.Duration(s.scratch[(n-1)/2])
		st.P99 = time.Duration(s.scratch[(n-1)*99/100])
	}
	return st
}

// sortSamples copies the latency window into scratch, sorted, and
// returns its length. Callers hold qmu.
func (s *AttemptStore) sortSamples() int64 {
	n := min(s.nsamples.Load(), ringSize)
	for i := int64(0); i < n; i++ {
		s.scratch[i] = s.samples[i].Load()
	}
	// Insertion sort keeps the refresh allocation-free; the window is
	// far below where an O(n log n) sort would matter.
	a := s.scratch[:n]
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return n
}

// record folds one primary-read latency into the window and
// periodically refreshes the cached hedge delay. Alloc-free.
func (s *AttemptStore) record(d time.Duration) {
	i := s.nsamples.Add(1) - 1
	s.samples[i%ringSize].Store(int64(d))
	if (i+1)%recomputeEvery != 0 || i+1 < warmup {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	n := s.sortSamples()
	q := s.scratch[int64(s.p.Hedge.Quantile*float64(n-1)+0.5)]
	delay := time.Duration(float64(q) * hedgeFactor)
	if delay < s.p.Hedge.MinDelay {
		delay = 0 // too fast to hedge
	}
	s.delay.Store(int64(delay))
}

// splitmix64 is the finalizer of the splitmix64 PRNG — the same
// construction the placement ring uses — applied here to hash
// (seed, op sequence, attempt) into a jitter draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the deterministic jittered delay before re-issuing
// attempt (1-based counting the attempt that just failed).
func (s *AttemptStore) backoff(seq uint64, attempt int) time.Duration {
	r := s.p.Retry
	maxd := r.maxDelay()
	d := r.baseDelay() << (attempt - 1)
	if d <= 0 || d > maxd { // <= 0: shift overflow
		d = maxd
	}
	// Uniform in [d/2, 3d/2), then re-capped.
	h := splitmix64(r.Seed ^ splitmix64(seq<<16|uint64(attempt)))
	frac := float64(h>>11) / float64(1<<53)
	return min(d/2+time.Duration(frac*float64(d)), maxd)
}

// sleep waits d honoring ctx, via the policy's hook when set.
func (s *AttemptStore) sleep(ctx context.Context, d time.Duration) error {
	if s.p.Sleep != nil {
		return s.p.Sleep(ctx, d)
	}
	return simclock.SleepCtx(ctx, s.p.Clock, d)
}

// do runs f, re-issuing it after a backoff while it fails retryable
// and the retry budget lasts. A cancellation during the backoff (or
// found pending before a re-issue) returns the ErrCanceled-wrapped
// context error, leaving the store in a state the crash-cut recovery
// contract already covers.
func (s *AttemptStore) do(ctx context.Context, op string, f func() error) error {
	if s.p.Retry == nil {
		return f()
	}
	attempts := s.p.Retry.maxAttempts()
	seq := s.seq.Add(1)
	for attempt := 1; ; attempt++ {
		err := f()
		if Classify(err) != ClassRetryable {
			return err
		}
		if attempt >= attempts {
			s.exhausted.Add(1)
			if attempts == 1 {
				return err // retries disabled: surface untouched
			}
			return fmt.Errorf("backend: %s: retries exhausted after %d attempts: %w", op, attempts, err)
		}
		s.retries.Add(1)
		serr := s.sleep(ctx, s.backoff(seq, attempt))
		if cerr := CtxErr(ctx); cerr != nil {
			return cerr
		}
		if serr != nil {
			return serr
		}
	}
}

// Open implements Store.
func (s *AttemptStore) Open(name string, flag OpenFlag) (File, error) {
	return s.OpenCtx(nil, name, flag)
}

// OpenCtx implements StoreCtx.
func (s *AttemptStore) OpenCtx(ctx context.Context, name string, flag OpenFlag) (File, error) {
	var f File
	err := s.do(ctx, "open", func() (err error) {
		f, err = OpenCtx(ctx, s.inner, name, flag)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &attemptFile{s: s, inner: f}, nil
}

// Remove implements Store.
func (s *AttemptStore) Remove(name string) error { return s.RemoveCtx(nil, name) }

// RemoveCtx implements StoreCtx.
func (s *AttemptStore) RemoveCtx(ctx context.Context, name string) error {
	return s.do(ctx, "remove", func() error { return RemoveCtx(ctx, s.inner, name) })
}

// Rename implements Store.
func (s *AttemptStore) Rename(oldName, newName string) error {
	return s.do(nil, "rename", func() error { return s.inner.Rename(oldName, newName) })
}

// List implements Store.
func (s *AttemptStore) List() ([]string, error) { return s.ListCtx(nil) }

// ListCtx implements StoreCtx.
func (s *AttemptStore) ListCtx(ctx context.Context) ([]string, error) {
	var names []string
	err := s.do(ctx, "list", func() (err error) {
		names, err = ListCtx(ctx, s.inner)
		return err
	})
	return names, err
}

// Stat implements Store.
func (s *AttemptStore) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

// StatCtx implements StoreCtx.
func (s *AttemptStore) StatCtx(ctx context.Context, name string) (int64, error) {
	var size int64
	err := s.do(ctx, "stat", func() (err error) {
		size, err = StatCtx(ctx, s.inner, name)
		return err
	})
	return size, err
}

// attemptFile is an open handle. Reads and writes are positional and
// therefore idempotent: a re-issued ReadAt re-requests the identical
// range (any partial progress from the failed attempt is discarded), a
// re-issued WriteAt rewrites the identical bytes.
type attemptFile struct {
	s     *AttemptStore
	inner File
}

// ReadAt implements File.
func (f *attemptFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

// ReadAtCtx implements FileCtx.
func (f *attemptFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	var n int
	err := f.s.do(ctx, "read", func() (err error) {
		n, err = f.readOnce(ctx, p, off)
		return err
	})
	return n, err
}

// readOnce is one read attempt: a plain read without hedging, a timed
// one while the hedge delay is disarmed, a hedged race once it arms.
func (f *attemptFile) readOnce(ctx context.Context, p []byte, off int64) (int, error) {
	s := f.s
	if s.p.Hedge == nil {
		return ReadAtCtx(ctx, f.inner, p, off)
	}
	s.reads.Add(1)
	d := s.p.Hedge.Delay
	if d <= 0 {
		d = time.Duration(s.delay.Load())
	}
	if d > 0 {
		return f.hedgedRead(ctx, p, off, d)
	}
	// Fast path: no goroutines, no context derivation, no buffer —
	// zero allocations (see TestHedgeFastPathNoAllocs).
	start := s.p.Clock.Now()
	n, err := ReadAtCtx(ctx, f.inner, p, off)
	if err == nil || err == io.EOF {
		s.record(s.p.Clock.Now().Sub(start))
	}
	return n, err
}

// readResult carries one racer's outcome; ok means it produced usable
// bytes (clean read or EOF-terminated short read).
type readResult struct {
	n     int
	err   error
	buf   []byte
	hedge bool
}

func (r readResult) ok() bool { return r.err == nil || errors.Is(r.err, io.EOF) }

func (s *AttemptStore) getBuf(n int) []byte {
	if v := s.bufs.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (s *AttemptStore) putBuf(b []byte) {
	b = b[:cap(b)]
	s.bufs.Put(&b)
}

// hedgedRead races the primary read against a duplicate issued after d.
func (f *attemptFile) hedgedRead(ctx context.Context, p []byte, off int64, d time.Duration) (int, error) {
	s := f.s
	parent := ctx
	if parent == nil {
		parent = context.Background()
	}
	hctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Racers read into pooled buffers, never the caller's p: the loser
	// may still be mid-read when the winner returns, and a concurrent
	// write into p would race the caller.
	results := make(chan readResult, 2)
	issue := func(buf []byte, hedged bool) {
		n, err := ReadAtCtx(hctx, f.inner, buf, off)
		results <- readResult{n: n, err: err, buf: buf, hedge: hedged}
	}
	start := s.p.Clock.Now()
	go issue(s.getBuf(len(p)), false)

	hedgeAt := make(chan struct{}, 1)
	go func() {
		if s.sleep(hctx, d) == nil {
			hedgeAt <- struct{}{}
		}
	}()

	inflight := 1
	launched := false
	var primErr error
	for {
		select {
		case r := <-results:
			inflight--
			if r.ok() {
				// First usable response wins; cancel the loser and
				// reclaim its buffer when it lands.
				cancel()
				if inflight > 0 {
					go func() { s.putBuf((<-results).buf) }()
				}
				copy(p, r.buf[:r.n])
				s.putBuf(r.buf)
				if r.hedge {
					s.hedgeWins.Add(1)
				} else {
					s.record(s.p.Clock.Now().Sub(start))
				}
				return r.n, r.err
			}
			s.putBuf(r.buf)
			if !r.hedge {
				primErr = r.err
			}
			if inflight == 0 {
				// No hedge ever ran, or both failed: the primary's
				// error is the one the retry loop acts on.
				return 0, primErr
			}
		case <-hedgeAt:
			if !launched {
				launched = true
				inflight++
				s.hedges.Add(1)
				go issue(s.getBuf(len(p)), true)
			}
		}
	}
}

// WriteAt implements File.
func (f *attemptFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

// WriteAtCtx implements FileCtx.
func (f *attemptFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	var n int
	err := f.s.do(ctx, "write", func() (err error) {
		n, err = WriteAtCtx(ctx, f.inner, p, off)
		return err
	})
	return n, err
}

// Truncate implements File.
func (f *attemptFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

// TruncateCtx implements FileCtx.
func (f *attemptFile) TruncateCtx(ctx context.Context, size int64) error {
	return f.s.do(ctx, "truncate", func() error { return TruncateCtx(ctx, f.inner, size) })
}

// Size implements File.
func (f *attemptFile) Size() (int64, error) {
	var size int64
	err := f.s.do(nil, "size", func() (err error) {
		size, err = f.inner.Size()
		return err
	})
	return size, err
}

// Sync implements File.
func (f *attemptFile) Sync() error { return f.SyncCtx(nil) }

// SyncCtx implements FileCtx.
func (f *attemptFile) SyncCtx(ctx context.Context) error {
	return f.s.do(ctx, "sync", func() error { return SyncCtx(ctx, f.inner) })
}

// Close implements File. Closing is not retried: a failed close
// leaves the handle state unknown, and ErrClosed on a re-issue would
// mask the original error.
func (f *attemptFile) Close() error { return f.inner.Close() }
