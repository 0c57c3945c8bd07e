package objstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/simclock"
)

// ServerParams shapes the simulated link of a Memserver. The latency
// model matches nfssim: every request pays a round trip (WriteRTT for
// mutations when set, RTT otherwise) plus payload/Bandwidth, and —
// new for the hedging work — every TailEvery-th request is a tail
// event whose latency is multiplied by TailMult (a deterministic
// two-point mixture, so hedged-read results are reproducible).
type ServerParams struct {
	// RTT is charged on every request.
	RTT time.Duration
	// WriteRTT, when non-zero, replaces RTT for mutating requests.
	WriteRTT time.Duration
	// Bandwidth in bytes/second adds payload transfer time; zero
	// means infinitely fast.
	Bandwidth float64
	// TailEvery > 0 makes every TailEvery-th request a tail event.
	TailEvery int
	// TailMult multiplies a tail event's latency; values <= 1 disable
	// the tail.
	TailMult float64
}

// ServerStats is a snapshot of a Memserver's request counters.
type ServerStats struct {
	Gets, Puts, Parts, Completes, Aborts int64
	Heads, Lists, Deletes, Copies        int64
	BytesIn, BytesOut                    int64
	TailEvents                           int64
	// OpenUploads counts multipart sessions created and not yet
	// completed or aborted — stray client state shows up here.
	OpenUploads int64
}

// Memserver is an in-process, in-memory Transport: the object server
// the tests and the benchmark run against. Latency is charged through
// an injectable simclock.Clock so a virtual clock makes runs instant
// and deterministic, while the benchmark uses the real clock to let
// pipelining and hedging overlap wall time.
type Memserver struct {
	params ServerParams
	clock  simclock.Clock

	mu      sync.Mutex
	objects map[string][]byte
	uploads map[string]*upload
	nextID  int64

	opSeq atomic.Int64
	stats struct {
		gets, puts, parts, completes, aborts atomic.Int64
		heads, lists, deletes, copies        atomic.Int64
		bytesIn, bytesOut, tails             atomic.Int64
	}
}

type upload struct {
	key   string
	parts []part
}

type part struct {
	off  int64
	data []byte
}

// NewMemserver builds an empty in-memory object server. A nil clock
// charges latency against the real clock.
func NewMemserver(p ServerParams, clock simclock.Clock) *Memserver {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Memserver{
		params:  p,
		clock:   clock,
		objects: make(map[string][]byte),
		uploads: make(map[string]*upload),
	}
}

// Stats snapshots the request counters.
func (s *Memserver) Stats() ServerStats {
	s.mu.Lock()
	open := int64(len(s.uploads))
	s.mu.Unlock()
	return ServerStats{
		Gets:        s.stats.gets.Load(),
		Puts:        s.stats.puts.Load(),
		Parts:       s.stats.parts.Load(),
		Completes:   s.stats.completes.Load(),
		Aborts:      s.stats.aborts.Load(),
		Heads:       s.stats.heads.Load(),
		Lists:       s.stats.lists.Load(),
		Deletes:     s.stats.deletes.Load(),
		Copies:      s.stats.copies.Load(),
		BytesIn:     s.stats.bytesIn.Load(),
		BytesOut:    s.stats.bytesOut.Load(),
		TailEvents:  s.stats.tails.Load(),
		OpenUploads: open,
	}
}

// charge simulates one request's network time: RTT (or WriteRTT for
// mutations) + payload/Bandwidth, amplified on tail events. The sleep
// is cancelable; a canceled request performs no server-side work.
func (s *Memserver) charge(ctx context.Context, payload int64, write bool) error {
	d := s.params.RTT
	if write && s.params.WriteRTT > 0 {
		d = s.params.WriteRTT
	}
	if s.params.Bandwidth > 0 && payload > 0 {
		d += time.Duration(float64(payload) / s.params.Bandwidth * float64(time.Second))
	}
	if s.params.TailEvery > 0 && s.params.TailMult > 1 {
		if s.opSeq.Add(1)%int64(s.params.TailEvery) == 0 {
			d = time.Duration(float64(d) * s.params.TailMult)
			s.stats.tails.Add(1)
		}
	}
	if d <= 0 {
		return backend.CtxErr(ctx)
	}
	if err := simclock.SleepCtx(ctx, s.clock, d); err != nil {
		if cerr := backend.CtxErr(ctx); cerr != nil {
			return cerr
		}
		return err
	}
	return backend.CtxErr(ctx)
}

func (s *Memserver) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := s.charge(ctx, n, false); err != nil {
		return nil, err
	}
	s.stats.gets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("get %q: %w", key, ErrNoSuchKey)
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("get %q: negative range [%d,+%d)", key, off, n)
	}
	if off >= int64(len(obj)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(obj)) {
		end = int64(len(obj))
	}
	out := make([]byte, end-off)
	copy(out, obj[off:end])
	s.stats.bytesOut.Add(int64(len(out)))
	return out, nil
}

func (s *Memserver) Put(ctx context.Context, key string, data []byte) error {
	if err := s.charge(ctx, int64(len(data)), true); err != nil {
		return err
	}
	s.stats.puts.Add(1)
	s.stats.bytesIn.Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[key] = append([]byte(nil), data...)
	return nil
}

func (s *Memserver) CreateUpload(ctx context.Context, key string) (string, error) {
	if err := s.charge(ctx, 0, true); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("up-%d", s.nextID)
	s.uploads[id] = &upload{key: key}
	return id, nil
}

func (s *Memserver) PutPart(ctx context.Context, key, uploadID string, off int64, data []byte) error {
	if err := s.charge(ctx, int64(len(data)), true); err != nil {
		return err
	}
	s.stats.parts.Add(1)
	s.stats.bytesIn.Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok || up.key != key {
		return fmt.Errorf("part %q/%s: %w", key, uploadID, ErrNoSuchUpload)
	}
	up.parts = append(up.parts, part{off: off, data: append([]byte(nil), data...)})
	return nil
}

func (s *Memserver) Complete(ctx context.Context, key, uploadID string, size int64) error {
	if err := s.charge(ctx, 0, true); err != nil {
		return err
	}
	s.stats.completes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok || up.key != key {
		return fmt.Errorf("complete %q/%s: %w", key, uploadID, ErrNoSuchUpload)
	}
	obj := append([]byte(nil), s.objects[key]...)
	for _, p := range up.parts {
		if end := p.off + int64(len(p.data)); end > int64(len(obj)) {
			obj = append(obj, make([]byte, end-int64(len(obj)))...)
		}
		copy(obj[p.off:], p.data)
	}
	if size < int64(len(obj)) {
		obj = obj[:size]
	} else if size > int64(len(obj)) {
		obj = append(obj, make([]byte, size-int64(len(obj)))...)
	}
	s.objects[key] = obj
	delete(s.uploads, uploadID)
	return nil
}

func (s *Memserver) Abort(ctx context.Context, key, uploadID string) error {
	if err := s.charge(ctx, 0, true); err != nil {
		return err
	}
	s.stats.aborts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.uploads, uploadID)
	return nil
}

func (s *Memserver) Head(ctx context.Context, key string) (int64, error) {
	if err := s.charge(ctx, 0, false); err != nil {
		return 0, err
	}
	s.stats.heads.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("head %q: %w", key, ErrNoSuchKey)
	}
	return int64(len(obj)), nil
}

func (s *Memserver) List(ctx context.Context, startAfter string, max int) ([]string, bool, error) {
	if err := s.charge(ctx, 0, false); err != nil {
		return nil, false, err
	}
	s.stats.lists.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]string, 0, len(s.objects))
	for k := range s.objects {
		if k > startAfter {
			all = append(all, k)
		}
	}
	sort.Strings(all)
	if max > 0 && len(all) > max {
		return all[:max], true, nil
	}
	return all, false, nil
}

func (s *Memserver) Delete(ctx context.Context, key string) error {
	if err := s.charge(ctx, 0, true); err != nil {
		return err
	}
	s.stats.deletes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[key]; !ok {
		return fmt.Errorf("delete %q: %w", key, ErrNoSuchKey)
	}
	delete(s.objects, key)
	return nil
}

func (s *Memserver) Copy(ctx context.Context, src, dst string) error {
	s.mu.Lock()
	n := int64(len(s.objects[src]))
	s.mu.Unlock()
	if err := s.charge(ctx, n, true); err != nil {
		return err
	}
	s.stats.copies.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[src]
	if !ok {
		return fmt.Errorf("copy %q: %w", src, ErrNoSuchKey)
	}
	s.objects[dst] = append([]byte(nil), obj...)
	return nil
}

// Object returns a copy of the committed bytes under key (test hook).
func (s *Memserver) Object(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), obj...), true
}
