package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
)

// Spans are recorded from outside the program: around each client op
// (the top span), around each call that reaches a leaf store, and
// around each object-store transport call. A span names the span that
// caused it through the context the *Ctx methods already carry.

type spanLayer uint8

const (
	spanOp        spanLayer = iota // a client op: parent 0
	spanHandler                    // the HTTP handler of a wire op
	spanLeaf                       // a call into a leaf backend.Store
	spanTransport                  // an objstore.Transport call
)

var spanLayerNames = [...]string{"op", "handler", "leaf", "transport"}

// span holds no pointers — a call's name and file are indexes into
// tables — so the millions of spans a traced run keeps in memory cost
// the garbage collector nothing to walk.
type span struct {
	ID, Parent uint64
	Layer      spanLayer
	Name       spanName
	// File (an id the recorder hands out, see fileID) and Off locate a
	// leaf read or write, so the shard probe can replay the shapes the
	// leaves saw.
	File       uint32
	Off        int64
	Start, End int64 // ns since the recorder was made
	Bytes      int64
	// Charged is the delay the simulated link charged for a transport
	// call (RTT + payload/bandwidth); End-Start beyond it is the box's
	// timer overshoot, not the code's.
	Charged int64
}

// spanName says which call a span timed. The first numKinds names are
// the op kinds, in opKind's order, so an op span's name is its kind.
type spanName uint8

const (
	nOpen spanName = spanName(numKinds) + iota
	nRemove
	nRename
	nList
	nStat
	nRead
	nWrite
	nTruncate
	nSync
	nClose
	nGet
	nPut
	nCreateUpload
	nPart
	nComplete
	nAbort
	nHead
	nDelete
	nCopy
	nRequest
)

var spanNames = [...]string{
	kWrite: kindNames[kWrite], kRead: kindNames[kRead], kWriteAux: kindNames[kWriteAux], kReadAux: kindNames[kReadAux],
	kRangeGet: kindNames[kRangeGet], kStat: kindNames[kStat], kList: kindNames[kList],
	nOpen: "open", nRemove: "remove", nRename: "rename", nList: "list", nStat: "stat", nRead: "read", nWrite: "write",
	nTruncate: "truncate", nSync: "sync", nClose: "close", nGet: "get", nPut: "put", nCreateUpload: "create-upload",
	nPart: "part", nComplete: "complete", nAbort: "abort", nHead: "head", nDelete: "delete", nCopy: "copy", nRequest: "request",
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. Recording is switched per round, so
// one process can alternate traced and untraced rounds over the same
// shims. A span's id is also its slot: ids are handed out by one atomic
// add and every slot has one writer, so recording takes no lock.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	chunks [maxSpanChunks]atomic.Pointer[[spanChunk]span]

	filesMu sync.Mutex
	files   []string // file names by id-1
}

const (
	spanChunk     = 1 << 16
	maxSpanChunks = 1 << 10 // 64 Mi spans, far beyond any run
)

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// fileID returns the id spans carry for a leaf file name; 0 from a nil
// recorder. It is called when a file is opened, not per read or write.
func (r *recorder) fileID(name string) uint32 {
	if r == nil {
		return 0
	}
	r.filesMu.Lock()
	defer r.filesMu.Unlock()
	for i, n := range r.files {
		if n == name {
			return uint32(i + 1)
		}
	}
	r.files = append(r.files, name)
	return uint32(len(r.files))
}

// fileName is the inverse of fileID; id 0 is no file.
func (r *recorder) fileName(id uint32) string {
	if id == 0 {
		return ""
	}
	r.filesMu.Lock()
	defer r.filesMu.Unlock()
	return r.files[id-1]
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// setOn switches recording; a nil recorder (an untraced stack) has
// nothing to switch.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// slot returns the storage of span id, allocating its chunk on first
// use.
func (r *recorder) slot(id uint64) *span {
	c := &r.chunks[(id/spanChunk)%maxSpanChunks]
	chunk := c.Load()
	if chunk == nil {
		c.CompareAndSwap(nil, new([spanChunk]span))
		chunk = c.Load()
	}
	return &chunk[id%spanChunk]
}

// take returns the finished spans recorded so far. Call it only when
// nothing is recording.
func (r *recorder) take() []span {
	n := r.next.Load()
	out := make([]span, 0, n)
	for id := uint64(1); id <= n; id++ {
		if s := r.slot(id); s.End != 0 {
			out = append(out, *s)
		}
	}
	return out
}

type parentKey struct{}

// withParent returns a context naming id as the span that causes
// whatever runs under it. A nil context — the plain, non-Ctx API —
// becomes a Background one, which cancels nothing either.
func withParent(ctx context.Context, id uint64) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// openSpan is a span being timed; the zero value (recording off) ends
// as a no-op.
type openSpan struct {
	s *span
	r *recorder
}

// end closes the span with its payload size and, for transport calls,
// the delay the link model charged.
func (o openSpan) end(bytes, charged int64) {
	if o.s != nil {
		o.s.Bytes, o.s.Charged = bytes, charged
		o.s.End = max(o.r.now(), o.s.Start+1)
	}
}

// begin opens a child span of whatever ctx names and returns a context
// that names the new span in turn. With recording off it returns ctx
// unchanged and a span whose end does nothing.
func (r *recorder) begin(ctx context.Context, layer spanLayer, name spanName) (context.Context, openSpan) {
	return r.beginAt(ctx, layer, name, 0, 0, true)
}

// beginAt is begin for a positional call on a named file. A span that
// can have no children (a read or write of a memory leaf) derives no
// context.
func (r *recorder) beginAt(ctx context.Context, layer spanLayer, name spanName, file uint32, off int64, children bool) (context.Context, openSpan) {
	if !r.enabled() {
		return ctx, openSpan{}
	}
	id := r.next.Add(1)
	s := r.slot(id)
	*s = span{ID: id, Parent: parentOf(ctx), Layer: layer, Name: name, Start: r.now(), File: file, Off: off}
	if children {
		ctx = withParent(ctx, id)
	}
	return ctx, openSpan{s, r}
}

// leafStore is the shim at every leaf: below shard and the per-leaf
// retry wrapper the mount adds, above memfs or objstore. It always
// counts calls and payload bytes (the untraced run needs them for
// wire_bytes_per_logical) and records a span per call while the
// recorder is on.
type leafStore struct {
	inner backend.Store
	rec   *recorder
	// overTransport marks a leaf over an object store, whose reads and
	// writes cause transport spans.
	overTransport bool

	ops, readBytes, writeBytes atomic.Int64
}

func newLeaf(inner backend.Store, rec *recorder) *leafStore {
	return &leafStore{inner: inner, rec: rec}
}

// leafCounts is a snapshot of a leaf's counters.
type leafCounts struct{ ops, readBytes, writeBytes int64 }

func (s *leafStore) counts() leafCounts {
	return leafCounts{s.ops.Load(), s.readBytes.Load(), s.writeBytes.Load()}
}

func (s *leafStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

func (s *leafStore) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	s.ops.Add(1)
	ctx, sp := s.rec.begin(ctx, spanLeaf, nOpen)
	f, err := backend.OpenCtx(ctx, s.inner, name, flag)
	sp.end(0, 0)
	if err != nil {
		return nil, err
	}
	return &leafFile{inner: f, store: s, id: s.rec.fileID(name)}, nil
}

func (s *leafStore) Remove(name string) error { return s.RemoveCtx(nil, name) }

func (s *leafStore) RemoveCtx(ctx context.Context, name string) error {
	s.ops.Add(1)
	ctx, sp := s.rec.begin(ctx, spanLeaf, nRemove)
	defer sp.end(0, 0)
	return backend.RemoveCtx(ctx, s.inner, name)
}

func (s *leafStore) Rename(oldName, newName string) error {
	s.ops.Add(1)
	_, sp := s.rec.begin(nil, spanLeaf, nRename)
	defer sp.end(0, 0)
	return s.inner.Rename(oldName, newName)
}

func (s *leafStore) List() ([]string, error) { return s.ListCtx(nil) }

func (s *leafStore) ListCtx(ctx context.Context) ([]string, error) {
	s.ops.Add(1)
	ctx, sp := s.rec.begin(ctx, spanLeaf, nList)
	defer sp.end(0, 0)
	return backend.ListCtx(ctx, s.inner)
}

func (s *leafStore) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

func (s *leafStore) StatCtx(ctx context.Context, name string) (int64, error) {
	s.ops.Add(1)
	ctx, sp := s.rec.begin(ctx, spanLeaf, nStat)
	defer sp.end(0, 0)
	return backend.StatCtx(ctx, s.inner, name)
}

type leafFile struct {
	inner backend.File
	store *leafStore
	id    uint32 // the recorder's id of the file's name
}

func (f *leafFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadAtCtx(nil, p, off) }

func (f *leafFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.store.ops.Add(1)
	ctx, sp := f.store.rec.beginAt(ctx, spanLeaf, nRead, f.id, off, f.store.overTransport)
	n, err := backend.ReadAtCtx(ctx, f.inner, p, off)
	sp.end(int64(n), 0)
	f.store.readBytes.Add(int64(n))
	return n, err
}

func (f *leafFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

func (f *leafFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.store.ops.Add(1)
	ctx, sp := f.store.rec.beginAt(ctx, spanLeaf, nWrite, f.id, off, f.store.overTransport)
	n, err := backend.WriteAtCtx(ctx, f.inner, p, off)
	sp.end(int64(n), 0)
	f.store.writeBytes.Add(int64(n))
	return n, err
}

func (f *leafFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

func (f *leafFile) TruncateCtx(ctx context.Context, size int64) error {
	f.store.ops.Add(1)
	ctx, sp := f.store.rec.begin(ctx, spanLeaf, nTruncate)
	defer sp.end(0, 0)
	return backend.TruncateCtx(ctx, f.inner, size)
}

func (f *leafFile) Sync() error { return f.SyncCtx(nil) }

func (f *leafFile) SyncCtx(ctx context.Context) error {
	f.store.ops.Add(1)
	ctx, sp := f.store.rec.begin(ctx, spanLeaf, nSync)
	defer sp.end(0, 0)
	return backend.SyncCtx(ctx, f.inner)
}

func (f *leafFile) Size() (int64, error) { return f.inner.Size() }

// Close carries no context in backend.File, so its span has no parent:
// it counts into the leaf's busy time but into no op's children.
func (f *leafFile) Close() error {
	f.store.ops.Add(1)
	_, sp := f.store.rec.begin(nil, spanLeaf, nClose)
	defer sp.end(0, 0)
	return f.inner.Close()
}

// tracedTransport sits between objstore.Store and the Memserver and
// records one span per request, with the delay the link model charged
// for it.
type tracedTransport struct {
	inner  objstore.Transport
	rec    *recorder
	params objstore.ServerParams
}

func (t *tracedTransport) charged(payload int64, write bool) int64 {
	d := t.params.RTT
	if write && t.params.WriteRTT > 0 {
		d = t.params.WriteRTT
	}
	if t.params.Bandwidth > 0 && payload > 0 {
		d += time.Duration(float64(payload) / t.params.Bandwidth * float64(time.Second))
	}
	return int64(d)
}

func (t *tracedTransport) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	ctx, sp := t.rec.begin(ctx, spanTransport, nGet)
	b, err := t.inner.GetRange(ctx, key, off, n)
	sp.end(int64(len(b)), t.charged(int64(len(b)), false))
	return b, err
}

func (t *tracedTransport) Put(ctx context.Context, key string, data []byte) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nPut)
	defer sp.end(int64(len(data)), t.charged(int64(len(data)), true))
	return t.inner.Put(ctx, key, data)
}

func (t *tracedTransport) CreateUpload(ctx context.Context, key string) (string, error) {
	ctx, sp := t.rec.begin(ctx, spanTransport, nCreateUpload)
	defer sp.end(0, t.charged(0, true))
	return t.inner.CreateUpload(ctx, key)
}

func (t *tracedTransport) PutPart(ctx context.Context, key, uploadID string, off int64, data []byte) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nPart)
	defer sp.end(int64(len(data)), t.charged(int64(len(data)), true))
	return t.inner.PutPart(ctx, key, uploadID, off, data)
}

func (t *tracedTransport) Complete(ctx context.Context, key, uploadID string, size int64) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nComplete)
	defer sp.end(0, t.charged(0, true))
	return t.inner.Complete(ctx, key, uploadID, size)
}

func (t *tracedTransport) Abort(ctx context.Context, key, uploadID string) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nAbort)
	defer sp.end(0, t.charged(0, true))
	return t.inner.Abort(ctx, key, uploadID)
}

func (t *tracedTransport) Head(ctx context.Context, key string) (int64, error) {
	ctx, sp := t.rec.begin(ctx, spanTransport, nHead)
	defer sp.end(0, t.charged(0, false))
	return t.inner.Head(ctx, key)
}

func (t *tracedTransport) List(ctx context.Context, startAfter string, max int) ([]string, bool, error) {
	ctx, sp := t.rec.begin(ctx, spanTransport, nList)
	defer sp.end(0, t.charged(0, false))
	return t.inner.List(ctx, startAfter, max)
}

func (t *tracedTransport) Delete(ctx context.Context, key string) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nDelete)
	defer sp.end(0, t.charged(0, true))
	return t.inner.Delete(ctx, key)
}

func (t *tracedTransport) Copy(ctx context.Context, src, dst string) error {
	ctx, sp := t.rec.begin(ctx, spanTransport, nCopy)
	defer sp.end(0, t.charged(0, true))
	return t.inner.Copy(ctx, src, dst)
}

// ---- span arithmetic -------------------------------------------------

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, each clipped to
// [lo, hi); overlapping and nested intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.dur() - unionLen(ivs, s.Start, s.End)
}

// spanTree indexes a set of spans by id and by parent.
type spanTree struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func buildTree(spans []span) spanTree {
	t := spanTree{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	for _, s := range spans {
		t.byID[s.ID] = s
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// root returns the top-most ancestor of s that was recorded.
func (t spanTree) root(s span) span {
	for s.Parent != 0 {
		p, ok := t.byID[s.Parent]
		if !ok {
			break
		}
		s = p
	}
	return s
}

// coveredByLayer returns, summed over every op span, the part of the op
// its descendants of the given layer cover, and the summed op time.
func (t spanTree) coveredByLayer(spans []span, layer spanLayer) (covered, total int64) {
	under := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		if r := t.root(s); r.Layer == spanOp {
			under[r.ID] = append(under[r.ID], interval{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Layer != spanOp {
			continue
		}
		total += s.dur()
		covered += unionLen(under[s.ID], s.Start, s.End)
	}
	return covered, total
}
