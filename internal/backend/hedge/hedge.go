// Package hedge wraps a backend.Store with hedged reads: when a read
// has been outstanding longer than an adaptive delay, a duplicate of
// the same ranged read is issued and the first response wins; the
// loser is canceled through the context plumbing. Hedging cuts the
// p99 of a long-tailed remote store at the cost of a bounded number
// of duplicate requests.
//
// Only reads hedge. Writes, truncates and syncs pass through
// untouched — a duplicated write could land after its successor and
// break the §2.4 write-ordering barriers, while a duplicated ranged
// read is free of side effects — so the crash-cut contract of the
// engine is untouched by this wrapper.
//
// The hedge delay adapts: a ring of recent read latencies feeds a
// quantile estimate (Policy.Quantile, default 0.95), and the hedge
// fires at hedgeFactor times that quantile, so a read merely at the
// quantile does not spuriously hedge. Until enough samples exist, or
// while the estimated delay sits below Policy.MinDelay (the store is
// fast, hedging is pointless), reads take a synchronous fast path
// that performs no allocation — pinned by an AllocsPerRun guard in
// the tests. Time is read off an injectable simclock.Clock, so tests
// get deterministic hedging decisions.
package hedge

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lamassu/internal/backend"
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

// Policy configures hedged reads. The zero value is a sane adaptive
// policy.
type Policy struct {
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
	// Clock supplies timestamps for latency measurement and, unless
	// Sleep overrides it, the hedge-delay wait. Nil means the real
	// clock.
	Clock simclock.Clock
	// Sleep waits for the hedge delay; returning a non-nil error
	// (e.g. on cancellation) suppresses the hedge. Nil uses the
	// clock's cancelable sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnHedge/OnHedgeWin observe every hedge issued and every hedge
	// that beat its primary (metrics hooks; may be nil).
	OnHedge    func()
	OnHedgeWin func()
}

// Stats is a snapshot of a Store's read-hedging counters and the
// current latency window.
type Stats struct {
	Reads, Hedges, HedgeWins int64
	P50, P99                 time.Duration
}

// Store wraps an inner backend.Store with hedged reads.
type Store struct {
	inner backend.Store
	p     Policy

	samples  [ringSize]atomic.Int64
	nsamples atomic.Int64
	delay    atomic.Int64 // cached hedge delay (ns); 0 = fast path

	reads, hedges, hedgeWins atomic.Int64

	qmu     sync.Mutex
	scratch [ringSize]int64

	bufs sync.Pool
}

var (
	_ backend.Store    = (*Store)(nil)
	_ backend.StoreCtx = (*Store)(nil)
	_ backend.FileCtx  = (*file)(nil)
)

// New wraps inner with hedged reads under p. Defaults are filled in:
// quantile 0.95, minimum delay 200µs, real clock.
func New(inner backend.Store, p Policy) *Store {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.MinDelay <= 0 {
		p.MinDelay = 200 * time.Microsecond
	}
	if p.Clock == nil {
		p.Clock = simclock.Real{}
	}
	return &Store{inner: inner, p: p}
}

// ReadStats snapshots the hedging counters and latency quantiles.
func (s *Store) ReadStats() Stats {
	st := Stats{
		Reads:     s.reads.Load(),
		Hedges:    s.hedges.Load(),
		HedgeWins: s.hedgeWins.Load(),
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	n := s.nsamples.Load()
	if n > ringSize {
		n = ringSize
	}
	if n == 0 {
		return st
	}
	for i := int64(0); i < n; i++ {
		s.scratch[i] = s.samples[i].Load()
	}
	insertionSort(s.scratch[:n])
	st.P50 = time.Duration(s.scratch[(n-1)/2])
	st.P99 = time.Duration(s.scratch[(n-1)*99/100])
	return st
}

// record folds one primary-read latency into the window and
// periodically refreshes the cached hedge delay. Alloc-free: the
// AllocsPerRun guard covers this path.
func (s *Store) record(d time.Duration) {
	i := s.nsamples.Add(1) - 1
	s.samples[i%ringSize].Store(int64(d))
	if (i+1)%recomputeEvery == 0 && i+1 >= warmup {
		s.recompute()
	}
}

func (s *Store) recompute() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	n := s.nsamples.Load()
	if n > ringSize {
		n = ringSize
	}
	for i := int64(0); i < n; i++ {
		s.scratch[i] = s.samples[i].Load()
	}
	insertionSort(s.scratch[:n])
	q := s.scratch[int64(s.p.Quantile*float64(n-1)+0.5)]
	d := time.Duration(float64(q) * hedgeFactor)
	if d < s.p.MinDelay {
		d = 0 // too fast to hedge
	}
	s.delay.Store(int64(d))
}

// hedgeDelay returns the current hedge delay, or 0 for the
// no-hedging fast path.
func (s *Store) hedgeDelay() time.Duration {
	if s.p.Delay > 0 {
		return s.p.Delay
	}
	return time.Duration(s.delay.Load())
}

func (s *Store) sleep(ctx context.Context, d time.Duration) error {
	if s.p.Sleep != nil {
		return s.p.Sleep(ctx, d)
	}
	return simclock.SleepCtx(ctx, s.p.Clock, d)
}

// insertionSort keeps the quantile refresh allocation-free (the slice
// is at most ringSize elements, far below where an O(n log n) sort
// would matter).
func insertionSort(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (s *Store) getBuf(n int) []byte {
	if v := s.bufs.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (s *Store) putBuf(b []byte) {
	if b == nil {
		return
	}
	b = b[:cap(b)]
	s.bufs.Put(&b)
}

func (s *Store) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

func (s *Store) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := backend.OpenCtx(ctx, s.inner, name, flag)
	if err != nil {
		return nil, err
	}
	return &file{s: s, inner: f}, nil
}

func (s *Store) Remove(name string) error { return s.RemoveCtx(nil, name) }
func (s *Store) RemoveCtx(ctx context.Context, name string) error {
	return backend.RemoveCtx(ctx, s.inner, name)
}

func (s *Store) Rename(oldName, newName string) error { return s.inner.Rename(oldName, newName) }

func (s *Store) List() ([]string, error) { return s.ListCtx(nil) }
func (s *Store) ListCtx(ctx context.Context) ([]string, error) {
	return backend.ListCtx(ctx, s.inner)
}

func (s *Store) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }
func (s *Store) StatCtx(ctx context.Context, name string) (int64, error) {
	return backend.StatCtx(ctx, s.inner, name)
}

// file is an open handle; only its reads hedge.
type file struct {
	s     *Store
	inner backend.File
}

func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	s := f.s
	d := s.hedgeDelay()
	s.reads.Add(1)
	if d <= 0 {
		// Fast path: no goroutines, no context derivation, no buffer —
		// zero allocations (see TestHedgeFastPathNoAllocs).
		start := s.p.Clock.Now()
		n, err := backend.ReadAtCtx(ctx, f.inner, p, off)
		if err == nil || err == io.EOF {
			s.record(s.p.Clock.Now().Sub(start))
		}
		return n, err
	}
	return f.hedgedRead(ctx, p, off, d)
}

// readResult carries one attempt's outcome; ok means it produced
// usable bytes (clean read or EOF-terminated short read).
type readResult struct {
	n     int
	err   error
	buf   []byte
	hedge bool
}

func (r readResult) ok() bool { return r.err == nil || errors.Is(r.err, io.EOF) }

func (f *file) hedgedRead(ctx context.Context, p []byte, off int64, d time.Duration) (int, error) {
	s := f.s
	parent := ctx
	if parent == nil {
		parent = context.Background()
	}
	hctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Attempts read into pooled buffers, never the caller's p: the
	// loser may still be mid-read when the winner returns, and a
	// concurrent write into p would race the caller.
	results := make(chan readResult, 2)
	issue := func(buf []byte, hedged bool) {
		n, err := backend.ReadAtCtx(hctx, f.inner, buf, off)
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
					if s.p.OnHedgeWin != nil {
						s.p.OnHedgeWin()
					}
				} else {
					s.record(s.p.Clock.Now().Sub(start))
				}
				return r.n, r.err
			}
			s.putBuf(r.buf)
			if !r.hedge {
				primErr = r.err
			}
			if inflight > 0 {
				continue // the other attempt may still succeed
			}
			if !launched || primErr != nil {
				// No hedge ever ran, or both failed: the primary's
				// error is the one the caller acts on.
				return 0, primErr
			}
			return 0, r.err
		case <-hedgeAt:
			if launched {
				continue
			}
			launched = true
			inflight++
			s.hedges.Add(1)
			if s.p.OnHedge != nil {
				s.p.OnHedge()
			}
			go issue(s.getBuf(len(p)), true)
		}
	}
}

func (f *file) WriteAt(p []byte, off int64) (int, error) { return f.inner.WriteAt(p, off) }
func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return backend.WriteAtCtx(ctx, f.inner, p, off)
}

func (f *file) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *file) TruncateCtx(ctx context.Context, size int64) error {
	return backend.TruncateCtx(ctx, f.inner, size)
}

func (f *file) Size() (int64, error) { return f.inner.Size() }

func (f *file) Sync() error { return f.inner.Sync() }
func (f *file) SyncCtx(ctx context.Context) error {
	return backend.SyncCtx(ctx, f.inner)
}

func (f *file) Close() error { return f.inner.Close() }
