package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"lamassu/internal/backend"
	"sync"
)

// listPage is the LIST pagination size; a field on Store so tests can
// force multi-page listings with a handful of keys.
const defaultListPage = 1000

// Store adapts a Transport to backend.Store/StoreCtx. See the package
// comment for the write-staging and error-marking contracts.
//
// Open handles on the same name share one client-side state (staged
// overlay, logical size, multipart session): the backend contract
// requires multi-handle coherence — a write or truncate through one
// handle is visible to reads through another, exactly as memfs and
// osfs behave — and the engine's sharded mode leans on it by opening
// one handle per shard over the same object. The shared state is
// client-local: it dies with the Store, so a crashed client's staged
// bytes vanish and a fresh Store over the same server sees only the
// committed objects.
type Store struct {
	tr       Transport
	listPage int

	mu   sync.Mutex
	open map[string]*objState
}

var (
	_ backend.Store    = (*Store)(nil)
	_ backend.StoreCtx = (*Store)(nil)
	_ backend.FileCtx  = (*file)(nil)
)

// New builds a Store over tr.
func New(tr Transport) *Store {
	return &Store{tr: tr, listPage: defaultListPage, open: make(map[string]*objState)}
}

// mapErr folds a transport error into the backend taxonomy: missing
// keys become backend.ErrNotExist (fatal under Classify), context
// cancellation passes through untouched, and any other transport
// failure is marked Retryable — every Transport call here is
// idempotent, so an AttemptStore outside this package may safely replay
// it.
func mapErr(op, key string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrNoSuchKey) {
		return fmt.Errorf("objstore: %s %q: %w", op, key, backend.ErrNotExist)
	}
	if errors.Is(err, backend.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return backend.Retryable(fmt.Errorf("objstore: %s %q: %w", op, key, err))
}

func (s *Store) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

func (s *Store) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	// Join the shared state of any handle already open on this name —
	// the coherence path, and no network round trip.
	s.mu.Lock()
	if st, ok := s.open[name]; ok {
		st.refs++
		s.mu.Unlock()
		return &file{store: s, key: name, readOnly: flag == backend.OpenRead, st: st}, nil
	}
	s.mu.Unlock()

	size, err := s.tr.Head(ctx, name)
	switch {
	case err == nil:
	case errors.Is(err, ErrNoSuchKey) && flag == backend.OpenCreate:
		// Create the object eagerly so the name is immediately visible
		// to List/Stat, matching the directory-store semantics.
		if err := s.tr.Put(ctx, name, nil); err != nil {
			return nil, mapErr("create", name, err)
		}
		size = 0
	default:
		return nil, mapErr("open", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.open[name]; ok {
		// Lost an open race while off the lock; the existing state is
		// authoritative (it may hold staged writes the Head cannot see).
		st.refs++
		return &file{store: s, key: name, readOnly: flag == backend.OpenRead, st: st}, nil
	}
	st := &objState{refs: 1, base: size, clip: size, size: size}
	s.open[name] = st
	return &file{store: s, key: name, readOnly: flag == backend.OpenRead, st: st}, nil
}

// release drops one handle's reference; the last close evicts the
// shared state, so a later Open re-reads the committed size.
func (s *Store) release(name string, st *objState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.refs--
	if st.refs == 0 && s.open[name] == st {
		delete(s.open, name)
	}
}

func (s *Store) Remove(name string) error { return s.RemoveCtx(nil, name) }

func (s *Store) RemoveCtx(ctx context.Context, name string) error {
	return mapErr("remove", name, s.tr.Delete(ctx, name))
}

func (s *Store) Rename(oldName, newName string) error { return s.RenameCtx(nil, oldName, newName) }

func (s *Store) RenameCtx(ctx context.Context, oldName, newName string) error {
	if err := s.tr.Copy(ctx, oldName, newName); err != nil {
		return mapErr("rename", oldName, err)
	}
	return mapErr("rename", oldName, s.tr.Delete(ctx, oldName))
}

func (s *Store) List() ([]string, error) { return s.ListCtx(nil) }

func (s *Store) ListCtx(ctx context.Context) ([]string, error) {
	var names []string
	after := ""
	for {
		page, more, err := s.tr.List(ctx, after, s.listPage)
		if err != nil {
			return nil, mapErr("list", "", err)
		}
		names = append(names, page...)
		if !more || len(page) == 0 {
			break
		}
		after = page[len(page)-1]
	}
	sort.Strings(names)
	return names, nil
}

func (s *Store) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

func (s *Store) StatCtx(ctx context.Context, name string) (int64, error) {
	n, err := s.tr.Head(ctx, name)
	return n, mapErr("stat", name, err)
}

// extent is one staged write: data pinned locally for overlay reads
// until Complete commits the matching remote part. The data slice is
// immutable once staged, so readers may snapshot the extent list
// without copying.
type extent struct {
	off  int64
	data []byte
}

// objState is the client-side state of one object, shared by every
// handle the Store has open on its name. refs is guarded by the
// Store's mutex; everything else by mu.
//
// Size bookkeeping: base is the committed remote size, size the
// logical size as the client sees it, and clip the low-water mark of
// size since the last Complete — committed bytes are only valid below
// clip (anything above was truncated away or rewritten, and lives in
// the staged overlay if anywhere).
type objState struct {
	refs int

	// syncMu serializes barriers on this object, taken before mu and
	// held from the snapshot of the upload id to the state reset. The
	// handles sharing this state are flushed together (one Sync per
	// shard handle, see SyncCtx), and two barriers that both snapshot
	// the same id would both Complete it — the second one failing "no
	// such upload". The loser of the lock finds the state clean and has
	// nothing left to do.
	syncMu sync.Mutex

	mu       sync.Mutex
	uploadID string
	staged   []extent
	base     int64
	clip     int64
	size     int64
	dirty    bool
}

// file is an open object handle: a closed flag plus a reference to
// the object's shared state. The closed flag shares the state mutex —
// a handle maps to exactly one state, so one lock covers both.
type file struct {
	store    *Store
	key      string
	readOnly bool
	st       *objState
	closed   bool // guarded by st.mu
}

var errClosed = fmt.Errorf("objstore: %w", backend.ErrClosed)

func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, backend.Fatal(fmt.Errorf("objstore: read %q: negative offset %d", f.key, off))
	}
	st := f.st
	st.mu.Lock()
	if f.closed {
		st.mu.Unlock()
		return 0, errClosed
	}
	clip, size := st.clip, st.size
	staged := st.staged // immutable extents; len-bounded snapshot
	st.mu.Unlock()

	if off >= size {
		return 0, io.EOF
	}
	end := off + int64(len(p))
	n := len(p)
	if end > size {
		end = size
		n = int(size - off)
	}
	for i := range p[:n] {
		p[i] = 0
	}
	// Committed bytes below the clip line come from one ranged GET;
	// everything else is zeros until the staged overlay lands on top.
	if lo, hi := off, min64(end, clip); hi > lo {
		got, err := f.store.tr.GetRange(ctx, f.key, lo, hi-lo)
		if err != nil {
			return 0, mapErr("read", f.key, err)
		}
		copy(p[:n], got)
	}
	for _, e := range staged {
		eEnd := e.off + int64(len(e.data))
		if eEnd <= off || e.off >= end {
			continue
		}
		from, to := max64(off, e.off), min64(end, eEnd)
		copy(p[from-off:to-off], e.data[from-e.off:to-e.off])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *file) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, backend.Fatal(fmt.Errorf("objstore: write %q: negative offset %d", f.key, off))
	}
	if f.readOnly {
		return 0, fmt.Errorf("objstore: write %q: %w", f.key, backend.ErrReadOnly)
	}
	id, err := f.ensureUpload(ctx)
	if err != nil {
		return 0, err
	}
	data := append([]byte(nil), p...)
	// The part goes to the wire before it is staged locally: a failed
	// push leaves neither side with the bytes. Arrival order at the
	// server matches staging order here because the engine never
	// issues overlapping writes concurrently (§2.4 phases are ordered
	// and phase-2 runs are disjoint).
	if err := f.store.tr.PutPart(ctx, f.key, id, off, data); err != nil {
		return 0, mapErr("write", f.key, err)
	}
	st := f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.closed {
		return 0, errClosed
	}
	st.staged = append(st.staged, extent{off: off, data: data})
	if end := off + int64(len(data)); end > st.size {
		st.size = end
	}
	st.dirty = true
	return len(p), nil
}

// ensureUpload opens the multipart session on first write after a
// barrier. The session is created under the state lock, so a
// pipelined burst of first writes serializes only on this one RTT,
// and every handle on the object shares the one session.
func (f *file) ensureUpload(ctx context.Context) (string, error) {
	st := f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.closed {
		return "", errClosed
	}
	if st.uploadID != "" {
		return st.uploadID, nil
	}
	id, err := f.store.tr.CreateUpload(ctx, f.key)
	if err != nil {
		return "", mapErr("write", f.key, err)
	}
	st.uploadID = id
	return id, nil
}

func (f *file) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

func (f *file) TruncateCtx(ctx context.Context, size int64) error {
	if size < 0 {
		return backend.Fatal(fmt.Errorf("objstore: truncate %q: negative size %d", f.key, size))
	}
	if f.readOnly {
		return fmt.Errorf("objstore: truncate %q: %w", f.key, backend.ErrReadOnly)
	}
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	st := f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if size == st.size {
		return nil
	}
	if size < st.size {
		st.clip = min64(st.clip, size)
		// Clip staged extents so a later re-grow reads zeros, not
		// stale staged bytes; extents are immutable, so rebuild.
		var kept []extent
		for _, e := range st.staged {
			if e.off >= size {
				continue
			}
			if end := e.off + int64(len(e.data)); end > size {
				e = extent{off: e.off, data: e.data[:size-e.off]}
			}
			kept = append(kept, e)
		}
		st.staged = kept
	}
	st.size = size
	st.dirty = true
	return nil
}

func (f *file) Size() (int64, error) {
	st := f.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.closed {
		return 0, errClosed
	}
	return st.size, nil
}

func (f *file) Sync() error { return f.SyncCtx(nil) }

// SyncCtx is the durability barrier: it commits every staged part and
// the logical size in one atomic Complete. Until it (or Close) runs,
// nothing written since the previous barrier is visible remotely. The
// staged state is shared, so one handle's Sync commits every
// handle's writes — the engine's barrier syncs every shard handle at
// once, the first one in does the work and the rest, serialized behind
// it on syncMu, find nothing staged.
func (f *file) SyncCtx(ctx context.Context) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	st := f.st
	st.syncMu.Lock()
	defer st.syncMu.Unlock()
	st.mu.Lock()
	if f.closed {
		st.mu.Unlock()
		return errClosed
	}
	if f.readOnly {
		st.mu.Unlock()
		return nil
	}
	id, size := st.uploadID, st.size
	if id == "" && !st.dirty {
		st.mu.Unlock()
		return nil
	}
	// Committed bytes between the clip line and the final size were
	// truncated away and must not survive the barrier; staged extents
	// cover some of that range, the rest is zero-filled with explicit
	// parts (disjoint from every staged extent, so arrival order is
	// irrelevant). Only a shrink below the committed size opens gaps.
	zeros := zeroGaps(st.clip, min64(st.base, size), st.staged)
	st.mu.Unlock()

	if id == "" {
		// Pure metadata change (truncate with no staged writes) still
		// needs a session to carry the new size through Complete.
		var err error
		if id, err = f.ensureUpload(ctx); err != nil {
			return err
		}
	}
	for _, g := range zeros {
		if err := f.store.tr.PutPart(ctx, f.key, id, g[0], make([]byte, g[1]-g[0])); err != nil {
			return mapErr("sync", f.key, err)
		}
	}
	if err := f.store.tr.Complete(ctx, f.key, id, size); err != nil {
		return mapErr("sync", f.key, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.base, st.clip = size, size
	st.staged = nil
	st.uploadID = ""
	st.dirty = false
	return nil
}

// Close flushes like Sync (directory stores persist writes at Close,
// and the engine's close path relies on that), then invalidates the
// handle and drops its reference on the shared state. A client that
// crashes WITHOUT Close models the crash cut: its Store — and every
// staged part in it — vanishes, and the sessions never complete.
func (f *file) Close() error {
	err := f.SyncCtx(nil)
	st := f.st
	st.mu.Lock()
	if f.closed {
		st.mu.Unlock()
		return errClosed
	}
	f.closed = true
	st.mu.Unlock()
	f.store.release(f.key, st)
	return err
}

// zeroGaps returns the sub-ranges of [lo, hi) not covered by any
// staged extent, as [start, end) pairs.
func zeroGaps(lo, hi int64, staged []extent) [][2]int64 {
	if lo >= hi {
		return nil
	}
	var covered [][2]int64
	for _, e := range staged {
		s, t := max64(e.off, lo), min64(e.off+int64(len(e.data)), hi)
		if s < t {
			covered = append(covered, [2]int64{s, t})
		}
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i][0] < covered[j][0] })
	var gaps [][2]int64
	at := lo
	for _, c := range covered {
		if c[0] > at {
			gaps = append(gaps, [2]int64{at, c[0]})
		}
		if c[1] > at {
			at = c[1]
		}
	}
	if at < hi {
		gaps = append(gaps, [2]int64{at, hi})
	}
	return gaps
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
