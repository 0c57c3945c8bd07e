package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

// file is an open Lamassu file handle.
//
// Concurrency model (see also the package comment): a handle may be
// used by many goroutines at once. Positional I/O (ReadAt, WriteAt,
// Size) holds opMu shared so requests run concurrently; whole-file
// operations (Truncate, Sync, Close) hold it exclusively and therefore
// drain all in-flight I/O first. Within positional I/O, each segment
// carries its own RWMutex: block reads of a segment hold it shared,
// while writes into the segment's pending state — and the segment's
// multiphase commit — hold it exclusively. A reader therefore never
// observes a half-committed segment, commits of different segments
// proceed in parallel, and readers are only ever delayed by a commit
// of the very segment they are reading. On a windowed mount a commit's
// I/O half may hold its segment's lock after the write that triggered
// it has returned (writebehind.go); the whole-file operations wait for
// those halves once they hold opMu.
//
// Lock order: opMu → segment.mu → extendMu → stateMu. stateMu is a
// leaf: no other lock is acquired while holding it. The handle still
// assumes it is the only writer of the underlying object (single-mount
// semantics, as in the FUSE prototype); concurrent writers must share
// one handle.
type file struct {
	// Cursor supplies the io.Reader/io.Writer/io.Seeker methods over
	// the positional I/O below (std-lib interop; bound in newFile).
	vfs.Cursor

	fs       *FS
	bf       backend.File
	name     string
	readOnly bool

	// opMu is the outer operation gate described above.
	opMu sync.RWMutex
	// extendMu is held shared by a commit's phase-1 write and
	// exclusively by padExtent, so the pad never cuts away a concurrent
	// commit's first write past the pad's end.
	extendMu sync.RWMutex

	// seqEnd is the byte offset one past the last completed ReadAt —
	// the sequential-read detector's state. A read starting exactly
	// where the previous one ended is a forward scan and arms the
	// asynchronous readahead; prefetchBusy bounds the prefetcher to
	// one in-flight window per handle, and raNext is the watermark
	// (first block not yet prefetched) so a scan does not re-issue
	// windows it already fetched. All three are heuristic state:
	// races only cost a skipped or duplicated window, never
	// correctness.
	seqEnd       atomic.Int64
	prefetchBusy atomic.Bool
	raNext       atomic.Int64

	// stateMu guards the fields below.
	stateMu sync.Mutex
	// size is the logical file size including pending (uncommitted)
	// writes.
	size int64
	// sizeDirty records that size has changed since the last time the
	// final metadata block was written.
	sizeDirty bool
	closed    bool
	// segs holds the per-segment concurrency state, created lazily.
	segs map[int64]*segment
	// behind holds the handle's commit I/O halves in flight, by segment;
	// behindErr is the first of them to fail since a whole-file
	// operation last reported one (writebehind.go).
	behind    map[int64]*behindJob
	behindErr error
}

// segment is the per-segment concurrency unit of a handle.
type segment struct {
	// mu is held shared by block reads of this segment and exclusively
	// by writes into pending state and by the segment's commit.
	mu sync.RWMutex
	// meta is the handle's decoded metadata block (nil until loaded).
	// It is loaded and mutated only under mu held exclusively and read
	// under either mode.
	meta *layout.MetaBlock
	// pending buffers plaintext block writes by stable slot. The
	// buffers come from the FS slab pool and return to it when the
	// segment commits.
	pending map[int][]byte
	// liveOverwrites counts the pending slots that may replace a live
	// (non-hole) on-disk block and therefore claim a transient key
	// slot at commit. It is a conservative upper bound — maintained in
	// pendingBlock, reset by the commit — and drives the
	// overwrite-bounded batching policy (see commitSegment).
	liveOverwrites int
}

// newFile opens a handle and loads the authoritative size.
func (fs *FS) newFile(ctx context.Context, bf backend.File, name string, readOnly bool) (*file, error) {
	size, err := fs.logicalSize(ctx, bf, name)
	if err != nil {
		return nil, err
	}
	f := &file{
		fs:       fs,
		bf:       bf,
		name:     name,
		readOnly: readOnly,
		size:     size,
		segs:     make(map[int64]*segment),
	}
	f.BindCursor(f)
	return f, nil
}

// segment returns the concurrency state for segment si, creating it on
// first use.
func (f *file) segment(si int64) *segment {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	s := f.segs[si]
	if s == nil {
		s = &segment{pending: make(map[int][]byte)}
		f.segs[si] = s
	}
	return s
}

// sizeNow returns the current logical size.
func (f *file) sizeNow() int64 {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	return f.size
}

// checkOpen reports ErrClosed after Close.
func (f *file) checkOpen() error {
	f.stateMu.Lock()
	defer f.stateMu.Unlock()
	if f.closed {
		return backend.ErrClosed
	}
	return nil
}

// Size implements vfs.File.
func (f *file) Size() (int64, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	return f.sizeNow(), nil
}

// ReadAt implements vfs.File. Concurrent calls proceed in parallel.
//
// A request covering one block takes an allocation-free fast path (a
// cache or pending hit completes with no heap traffic at all). A
// multi-block request is planned into extents of payload-contiguous
// blocks, each fetched with a single backend read; see readSpans.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtCtx(nil, p, off)
}

// ReadAtCtx implements vfs.File: ReadAt observing ctx between blocks
// and extents. On cancellation it returns the number of leading valid
// bytes of p and an error wrapping ErrCanceled.
func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("lamassu: negative offset %d", off)
	}
	f.fs.cfg.Recorder.CountOp()
	size := f.sizeNow()
	if off >= size {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	var atEOF bool
	if off+int64(n) > size {
		n = int(size - off)
		atEOF = true
	}
	bs := f.fs.geo.BlockSize
	if bo := int(off % int64(bs)); bo+n <= bs {
		// Single-block fast path: no span slice, and a full-block
		// request decrypts (or cache-copies) straight into p.
		dbi := off / int64(bs)
		if bo == 0 && n == bs {
			if _, err := f.readBlock(ctx, dbi, p[:bs]); err != nil {
				return 0, err
			}
		} else {
			scratch := f.fs.slabs.get(bs)
			_, err := f.readBlock(ctx, dbi, scratch)
			if err == nil {
				copy(p[:n], scratch[bo:bo+n])
			}
			f.fs.slabs.put(scratch)
			if err != nil {
				return 0, err
			}
		}
	} else {
		if bad, err := f.readSpans(ctx, p, vfs.Spans(off, n, bs)); err != nil {
			return bad, err
		}
	}
	f.noteSequential(off, int64(n), size)
	if atEOF {
		return n, io.EOF
	}
	return n, nil
}

// readSpansBlocks reads spans one block at a time through readBlock
// and a single pooled scratch block — the path that knows how to try
// the transient keys, which is why readSpans falls back to it for a
// segment caught mid-update. On failure it returns the number of
// leading bytes of p that are valid.
func (f *file) readSpansBlocks(ctx context.Context, p []byte, spans []vfs.Span) (int, error) {
	block := f.fs.slabs.get(f.fs.geo.BlockSize)
	defer f.fs.slabs.put(block)
	for _, sp := range spans {
		if _, err := f.readBlock(ctx, sp.Index, block); err != nil {
			return sp.BufOff, err
		}
		copy(p[sp.BufOff:sp.BufOff+sp.Len], block[sp.Start:sp.Start+sp.Len])
	}
	return 0, nil
}

// readSpans fills a multi-block read, the mirror of the commit
// pipeline: segment by segment, pending and cached blocks are served
// from memory and hole slots read as zeros without touching the
// backend at all; what is left is planned into extents (planExtents —
// the plan the commit wrote them under) and each extent is fetched
// with one backend read, dispatched as commits dispatch their writes
// (dispatchExtents: on the I/O window if one is configured, else one
// goroutine per shard, else back to back). Every segment stays
// read-locked from its memory pass until its extents are fetched —
// every dispatch form joins its goroutines before it returns, so no
// fetch outlives the locks or touches p after readSpans has returned —
// and a commit cannot change the keys or lengths the plan was made
// from; segments lock in ascending order and writers hold one segment
// at a time, so the locks cannot cycle.
//
// On failure it returns the number of leading bytes of p that are
// valid: extents are planned in ascending buffer order and every
// dispatch form reports its lowest failing (or first unstarted) index
// only once every extent below it has been fetched and verified, so
// the lowest failing buffer position wins — however many fetches were
// in flight and whichever failed first in time.
func (f *file) readSpans(ctx context.Context, p []byte, spans []vfs.Span) (int, error) {
	geo := f.fs.geo
	bs := geo.BlockSize
	var (
		held  []*segment                                 // read-locked until fetch returns
		left  = make([]vfs.Span, 0, len(spans))          // blocks memory could not serve
		metas = make([]*layout.MetaBlock, 0, len(spans)) // left[i]'s segment metadata
	)
	// fetch reads everything in left, then releases the held segments.
	fetch := func() (int, error) {
		exts := f.planExtents(len(left),
			func(i int) int64 { return left[i].Index },
			func(i int) int { return storedBytes(metas[i], geo.SlotOfBlock(left[i].Index), bs) })
		idx, err := f.dispatchExtents(ctx, exts, false, func(e int) error {
			x := exts[e]
			if bad, err := f.fetchContig(ctx, p, left[x.lo:x.hi], metas[x.lo], x.shard); err != nil {
				return &spanError{bad, err}
			}
			return nil
		})
		bad := 0
		if se, ok := err.(*spanError); ok {
			bad, err = se.bufOff, se.err
		} else if err != nil { // the dispatcher's own: ctx died before extent idx started
			bad = left[exts[idx].lo].BufOff
		}
		for _, seg := range held {
			seg.mu.RUnlock()
		}
		held, left, metas = held[:0], left[:0], metas[:0]
		return bad, err
	}

	var scratch []byte // lazily pooled block for partial-span cache hits
	defer func() {
		if scratch != nil {
			f.fs.slabs.put(scratch)
		}
	}()
	for lo := 0; lo < len(spans); {
		si := geo.SegmentOfBlock(spans[lo].Index)
		hi := lo + 1
		for hi < len(spans) && geo.SegmentOfBlock(spans[hi].Index) == si {
			hi++
		}
		seg := f.segment(si)
		if err := f.rlockLoaded(ctx, seg, si); err != nil {
			// Everything planned so far is still fetched, so the
			// leading-valid-bytes contract holds whichever fails.
			if bad, ferr := fetch(); ferr != nil {
				return bad, ferr
			}
			return spans[lo].BufOff, err
		}
		if seg.meta.MidUpdate() {
			// Crash-recovery state: the per-block path knows how to try
			// the transient keys; planning a mid-update segment is not
			// worth the duplicated logic. It takes the segment lock
			// itself, and runs after what was planned so far (the
			// leading-valid-bytes contract again).
			seg.mu.RUnlock()
			if bad, err := fetch(); err != nil {
				return bad, err
			}
			if bad, err := f.readSpansBlocks(ctx, p, spans[lo:hi]); err != nil {
				return bad, err
			}
			lo = hi
			continue
		}
		held = append(held, seg)
		meta := seg.meta
		for _, sp := range spans[lo:hi] {
			slot := geo.SlotOfBlock(sp.Index)
			dst := p[sp.BufOff : sp.BufOff+sp.Len]
			served := true
			if plain, ok := seg.pending[slot]; ok {
				copy(dst, plain[sp.Start:sp.Start+sp.Len])
			} else if meta.StableKey(slot).IsZero() {
				zero(dst)
			} else if sp.Full(bs) {
				served = f.fs.cache.getData(f.name, sp.Index, dst)
			} else {
				if scratch == nil {
					scratch = f.fs.slabs.get(bs)
				}
				if served = f.fs.cache.getData(f.name, sp.Index, scratch); served {
					copy(dst, scratch[sp.Start:sp.Start+sp.Len])
				}
			}
			if !served {
				left = append(left, sp)
				metas = append(metas, meta)
			}
		}
		lo = hi
	}
	return fetch()
}

// rlockLoaded returns with seg.mu read-locked and the segment's
// metadata resident, loading it under the exclusive lock first when
// needed. On error no lock is held.
func (f *file) rlockLoaded(ctx context.Context, seg *segment, si int64) error {
	for {
		seg.mu.RLock()
		if seg.meta != nil {
			return nil
		}
		seg.mu.RUnlock()
		seg.mu.Lock()
		err := f.ensureMeta(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// spanError carries the buffer position of a failed span through the
// worker pool and the extent dispatcher, whose lowest-index error
// semantics then yield the lowest failing position deterministically.
type spanError struct {
	bufOff int
	err    error
}

func (e *spanError) Error() string { return e.err.Error() }
func (e *spanError) Unwrap() error { return e.err }

// fetchContig reads one planned extent of uncached, live blocks (shard
// is its owner, < 0 when unsharded) with a single backend read — the
// only multi-block data read there is — and fans the per-block decode
// (AES-CBC decrypt, decompress for short-stored blocks) and §2.5 hash
// verification across the worker pool. In a compressed segment only
// the final block may be stored short, so the ranged read trims its
// slack off the wire. Full-block spans decode straight into the
// caller's buffer; partial spans decode into pooled scratch and copy
// out. Verified plaintext enters the block cache under the usual
// generation guard.
func (f *file) fetchContig(ctx context.Context, p []byte, spans []vfs.Span, meta *layout.MetaBlock, shard int) (int, error) {
	geo := f.fs.geo
	bs := geo.BlockSize
	n := len(spans)
	last := storedBytes(meta, geo.SlotOfBlock(spans[n-1].Index), bs)
	if last <= 0 {
		return spans[n-1].BufOff, fmt.Errorf("%w: block %d: keyed slot with zero stored length",
			ErrIntegrity, spans[n-1].Index)
	}
	readLen := (n-1)*bs + last
	slab := f.fs.slabs.get(n * bs)
	defer f.fs.slabs.put(slab)
	gen := f.fs.cache.snapshot()

	done := f.fs.pool.noteShardIO(shard, metrics.ShardRead)
	// Window slot around the backend read only — released before the
	// decode fan-out below takes pool slots (see ioWindow).
	f.fs.iow.acquire()
	t := f.fs.cfg.Recorder.Start()
	err := backend.ReadFullCtx(ctx, f.bf, slab[:readLen], geo.DataBlockOffset(spans[0].Index))
	f.fs.cfg.Recorder.Stop(metrics.IO, t)
	f.fs.iow.release()
	f.fs.cfg.Recorder.CountIOBytes(int64(readLen))
	f.fs.cfg.Recorder.CountDataBytes(int64(n*bs), int64(readLen))
	f.fs.cfg.Recorder.CountEvent(metrics.ReadRun, 1)
	done()
	if err != nil {
		return spans[0].BufOff, fmt.Errorf("lamassu: reading run of %d blocks at block %d: %w",
			n, spans[0].Index, err)
	}

	decode := func(i int) error {
		sp := spans[i]
		slot := geo.SlotOfBlock(sp.Index)
		stored := storedBytes(meta, slot, bs)
		if stored <= 0 {
			return &spanError{sp.BufOff, fmt.Errorf("%w: block %d: keyed slot with zero stored length",
				ErrIntegrity, sp.Index)}
		}
		ct := slab[i*bs : i*bs+stored]
		key := meta.StableKey(slot)
		dst := p[sp.BufOff : sp.BufOff+sp.Len]
		var scratch []byte
		if !sp.Full(bs) {
			scratch = f.fs.slabs.get(bs)
			defer f.fs.slabs.put(scratch)
			dst = scratch
		}
		if err := f.fs.decodeStored(dst, ct, key, stored); err != nil {
			return &spanError{sp.BufOff, err}
		}
		if f.fs.cfg.Integrity == IntegrityFull && !f.fs.verifyBlock(dst, key) {
			return &spanError{sp.BufOff, fmt.Errorf("%w: block %d", ErrIntegrity, sp.Index)}
		}
		f.fs.cache.putData(f.name, sp.Index, dst, gen)
		if scratch != nil {
			copy(p[sp.BufOff:sp.BufOff+sp.Len], scratch[sp.Start:sp.Start+sp.Len])
		}
		return nil
	}
	if n > 1 && f.fs.pool.Width() > 1 {
		err = f.fs.pool.run(ctx, n, decode)
	} else {
		for i := 0; i < n && err == nil; i++ {
			err = decode(i)
		}
	}
	if err != nil {
		if se, ok := err.(*spanError); ok {
			return se.bufOff, se.err
		}
		return spans[0].BufOff, err
	}
	return 0, nil
}

// noteSequential advances the sequential-read detector after a
// successful ReadAt of [off, off+n) and, on a detected forward scan,
// arms one asynchronous readahead of the next Config.Readahead blocks
// into the block cache.
func (f *file) noteSequential(off, n, size int64) {
	ra := f.fs.cfg.Readahead
	if ra <= 0 || f.fs.cache == nil {
		return
	}
	end := off + n
	if f.seqEnd.Swap(end) != off || end >= size {
		return
	}
	bs := int64(f.fs.geo.BlockSize)
	nextB := (end + bs - 1) / bs // first whole block at or after end
	// The watermark keeps the prefetcher between one and ~three
	// windows ahead of the reader: behind the reader it restarts at
	// the reader's position, within reach it continues from where it
	// left off, comfortably ahead it does nothing, and far beyond
	// reach (stale state from a scan elsewhere in the file) it
	// restarts.
	start := nextB
	switch w := f.raNext.Load(); {
	case w <= nextB:
		// fresh scan, or the prefetcher fell behind
	case w < nextB+2*int64(ra):
		start = w // chase the watermark
	case w <= nextB+3*int64(ra):
		return // comfortably ahead; let the reader catch up
	}
	maxB := f.fs.geo.NumDataBlocks(size)
	if start >= maxB {
		return
	}
	cnt := int64(ra)
	if start+cnt > maxB {
		cnt = maxB - start
	}
	if !f.prefetchBusy.CompareAndSwap(false, true) {
		return
	}
	f.raNext.Store(start + cnt)
	go f.prefetch(start, int(cnt))
}

// prefetch reads blocks [db, db+n) through the multi-block reader,
// populating the block cache as a side effect. It is best-effort:
// errors are dropped (the foreground read that eventually arrives
// re-reads and re-verifies), and the handle's operation gate is held
// shared so Truncate/Close cannot run concurrently.
func (f *file) prefetch(db int64, n int) {
	defer f.prefetchBusy.Store(false)
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if f.checkOpen() != nil {
		return
	}
	bs := f.fs.geo.BlockSize
	buf := f.fs.slabs.get(n * bs)
	defer f.fs.slabs.put(buf)
	spans := make([]vfs.Span, n)
	for i := range spans {
		spans[i] = vfs.Span{Index: db + int64(i), Start: 0, Len: bs, BufOff: i * bs}
	}
	f.fs.cfg.Recorder.CountEvent(metrics.Prefetch, 1)
	// Deliberately detached from any caller context: readahead is
	// best-effort background work, and the read that armed it has
	// already returned.
	_, _ = f.readSpans(nil, buf, spans)
}

// readBlock places the full plaintext of logical data block dbi into
// dst (len == BlockSize). Pending writes are visible; unwritten
// (hole) blocks read as zeros. The returned bool reports whether the
// block was served without backend I/O (pending state or the cache) —
// the sharded read path keeps such hits out of its fan-out counters.
func (f *file) readBlock(ctx context.Context, dbi int64, dst []byte) (bool, error) {
	geo := f.fs.geo
	si := geo.SegmentOfBlock(dbi)
	slot := geo.SlotOfBlock(dbi)
	seg := f.segment(si)
	cacheProbed := false
	for {
		seg.mu.RLock()
		if plain, ok := seg.pending[slot]; ok {
			copy(dst, plain)
			seg.mu.RUnlock()
			return true, nil
		}
		// Probe the cache once per read; the meta-load retry below must
		// not count a second miss for the same logical lookup.
		if !cacheProbed {
			cacheProbed = true
			if f.fs.cache.getData(f.name, dbi, dst) {
				seg.mu.RUnlock()
				return true, nil
			}
		}
		if seg.meta != nil {
			err := f.readBlockMeta(ctx, seg, dbi, slot, dst)
			seg.mu.RUnlock()
			return false, err
		}
		seg.mu.RUnlock()
		// The segment's metadata is not loaded yet; load it under the
		// exclusive lock, then retry (pending state or the cache may
		// have changed while the lock was released).
		seg.mu.Lock()
		err := f.ensureMeta(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return false, err
		}
	}
}

// ensureMeta loads the segment's metadata block if it is not resident.
// The caller must hold seg.mu exclusively. Segments beyond the backing
// file decode as empty metadata (all zero-key slots).
func (f *file) ensureMeta(ctx context.Context, seg *segment, si int64) error {
	if seg.meta != nil {
		return nil
	}
	if m := f.fs.cache.getMeta(f.name, si); m != nil {
		seg.meta = m
		return nil
	}
	gen := f.fs.cache.snapshot()
	phys, err := f.bf.Size()
	if err != nil {
		return err
	}
	var m *layout.MetaBlock
	if f.fs.geo.MetaBlockOffset(si)+int64(f.fs.geo.BlockSize) > phys {
		m = layout.NewMetaBlock(f.fs.geo, uint64(si))
	} else {
		m, err = f.fs.readMeta(ctx, f.bf, si)
		if err != nil {
			return err
		}
		f.fs.cache.putMeta(f.name, si, m, gen)
	}
	seg.meta = m
	return nil
}

// readBlockMeta reads data block dbi through the segment's loaded
// metadata: decode (decrypt, and decompress when the segment stores
// the block compressed), verify, fall back to transient keys for
// segments caught mid-update by a crash. The caller must hold seg.mu
// (either mode) with seg.meta loaded, and must have checked pending
// state.
func (f *file) readBlockMeta(ctx context.Context, seg *segment, dbi int64, slot int, dst []byte) error {
	geo := f.fs.geo
	bs := geo.BlockSize
	meta := seg.meta
	key := meta.StableKey(slot)
	if key.IsZero() {
		zero(dst)
		return nil
	}

	// The ranged read covers only the stored payload — the whole win of
	// compression on the wire. A mid-update segment reads the full slot
	// regardless: the old contents being identified below may be longer
	// than the new stored length, and the hole check needs every byte.
	stored := storedBytes(meta, slot, bs)
	if stored <= 0 {
		return fmt.Errorf("%w: block %d: keyed slot with zero stored length", ErrIntegrity, dbi)
	}
	readLen := stored
	if meta.MidUpdate() {
		readLen = bs
	}

	gen := f.fs.cache.snapshot()
	ct := f.fs.slabs.get(bs)
	defer f.fs.slabs.put(ct)
	f.fs.iow.acquire()
	t := f.fs.cfg.Recorder.Start()
	err := backend.ReadFullCtx(ctx, f.bf, ct[:readLen], geo.DataBlockOffset(dbi))
	f.fs.cfg.Recorder.Stop(metrics.IO, t)
	f.fs.iow.release()
	f.fs.cfg.Recorder.CountIOBytes(int64(readLen))
	f.fs.cfg.Recorder.CountDataBytes(int64(bs), int64(readLen))
	if err != nil {
		return fmt.Errorf("lamassu: reading data block %d: %w", dbi, err)
	}

	// Integrity checking (§2.5). Under IntegrityFull every block is
	// verified; under meta-only we still verify when the segment is
	// mid-update (a crashed commit), because the stored stable key may
	// legitimately not match and the transient keys must be tried. A
	// decode failure outside mid-update is final; inside it, it just
	// means the stable (key, length) pair does not describe the bytes
	// on disk yet — exactly the case the transient loop resolves.
	if derr := f.fs.decodeStored(dst, ct, key, stored); derr != nil {
		if !meta.MidUpdate() {
			return derr
		}
	} else {
		needVerify := f.fs.cfg.Integrity == IntegrityFull || meta.MidUpdate()
		if !needVerify || f.fs.verifyBlock(dst, key) {
			f.fs.cache.putData(f.name, dbi, dst, gen)
			return nil
		}
	}
	if meta.MidUpdate() {
		// Interrupted commit: the old key for this block is among the
		// transient slots (§2.4); the hash check identifies it.
		if f.fs.matchesTransient(meta, ct, dst) >= 0 {
			return nil
		}
		// A pre-update hole whose new data write never landed reads
		// back as the zero block under hole semantics.
		if allZero(ct[:readLen]) {
			zero(dst)
			return nil
		}
	}
	return fmt.Errorf("%w: block %d", ErrIntegrity, dbi)
}

// WriteAt implements vfs.File. Concurrent calls proceed in parallel;
// writes into the same segment serialize on that segment's lock. A
// request within one block takes an allocation-free fast path when its
// block is already pending.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtCtx(nil, p, off)
}

// WriteAtCtx implements vfs.File: WriteAt observing ctx between blocks
// and between the backend writes of any multiphase commit the write
// triggers. A cancellation that lands inside a commit returns an error
// wrapping ErrCanceled and leaves the segment in a crash-equivalent
// state: the §2.4 recovery protocol (run implicitly by the next commit
// of the segment, or explicitly via Recover) repairs it, and no
// previously committed byte is lost.
//
// On a windowed mount a write that triggers a commit waits only for its
// encode: it hands the commit's backend writes to the window, still
// under ctx, and returns (writebehind.go). At most IOWindow such
// commits are in flight per mount; Sync, Truncate and Close wait for
// them. If one fails, this and every later WriteAt on the handle
// returns its error until Sync, Truncate or Close reports it.
func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.opMu.RLock()
	defer f.opMu.RUnlock()
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if f.readOnly {
		return 0, ErrReadOnly
	}
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("lamassu: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.fs.cfg.Recorder.CountOp()

	geo := f.fs.geo
	bs := geo.BlockSize
	if bo := int(off % int64(bs)); bo+len(p) <= bs {
		// Single-block fast path: no span slice.
		dbi := off / int64(bs)
		sp := vfs.Span{Index: dbi, Start: bo, Len: len(p), BufOff: 0}
		si := geo.SegmentOfBlock(dbi)
		slot := geo.SlotOfBlock(dbi)
		seg := f.segment(si)
		seg.mu.Lock()
		if err := f.writeSpan(ctx, seg, si, slot, sp, p, off); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	for _, sp := range vfs.Spans(off, len(p), bs) {
		if err := backend.CtxErr(ctx); err != nil {
			return sp.BufOff, err
		}
		si := geo.SegmentOfBlock(sp.Index)
		slot := geo.SlotOfBlock(sp.Index)
		seg := f.segment(si)
		seg.mu.Lock()
		if err := f.writeSpan(ctx, seg, si, slot, sp, p, off); err != nil {
			return sp.BufOff, err
		}
	}
	return len(p), nil
}

// writeSpan applies one block-intersecting span of a write under the
// segment's exclusive lock, extending the logical size and committing
// the segment when the batching policy fires (liveCap). The paper's
// policy — a commit once every R block writes (§2.4) — governs writes
// that replace live blocks (which claim the R transient slots). Pending
// blocks that were holes claim no transient slot, so fresh data batches
// until the segment is full: a sequential append commits a whole
// segment at once, which the planner then writes as a single extent.
//
// The caller locks seg.mu exclusively and writeSpan releases it, itself
// or through the commit it triggers (commitTriggered). A recorded
// write-behind failure is returned before the pending set is touched.
func (f *file) writeSpan(ctx context.Context, seg *segment, si int64, slot int, sp vfs.Span, p []byte, off int64) error {
	err := f.behindFailure()
	var buf []byte
	if err == nil {
		buf, err = f.pendingBlock(ctx, seg, si, slot, sp.Index, sp.Full(f.fs.geo.BlockSize))
	}
	if err != nil {
		seg.mu.Unlock()
		return err
	}
	copy(buf[sp.Start:sp.Start+sp.Len], p[sp.BufOff:sp.BufOff+sp.Len])
	end := off + int64(sp.BufOff+sp.Len)
	f.stateMu.Lock()
	if end > f.size {
		f.size = end
		f.sizeDirty = true
	}
	f.stateMu.Unlock()
	if seg.liveOverwrites >= f.fs.liveCap() || len(seg.pending) >= f.fs.geo.KeysPerSegment() {
		return f.commitTriggered(ctx, seg, si)
	}
	seg.mu.Unlock()
	return nil
}

// liveCap is the write trigger's live-overwrite cap: a segment commits
// once its pending live overwrites reach it (each claims a transient
// slot) or once every slot is pending. Fresh blocks claim no transient
// slot, so they batch until the segment is full. With compression on,
// the length table occupies LenSlots of the R reserved slots, so
// batches bound themselves to the compressed-mode transient capacity.
// (A compression-off FS keeps the full-R trigger even over segments
// some other mount compressed; the commit path chunks such batches to
// fit.)
func (fs *FS) liveCap() int {
	if fs.cfg.Compression {
		return fs.geo.CompressedReserved()
	}
	return fs.geo.Reserved
}

// pendingBlock returns the mutable plaintext buffer for (seg, slot),
// creating it from the current on-disk contents when needed. When the
// caller will overwrite the entire block (full == true) the old
// contents need not be read — this is what keeps full-block writes
// one-pass, as in the paper's prototype. The buffer comes from the
// slab pool (commit returns it there), so its initial contents are
// undefined: every path below either fills it completely or zeroes
// it. The caller must hold seg.mu exclusively.
func (f *file) pendingBlock(ctx context.Context, seg *segment, si int64, slot int, dbi int64, full bool) ([]byte, error) {
	if buf, ok := seg.pending[slot]; ok {
		return buf, nil
	}
	// Count the blocks that may replace live data — they claim the R
	// transient slots at commit and bound the coalescing batch. With
	// the metadata resident the check is exact; before that, any block
	// inside the logical size is conservatively assumed live.
	live := false
	if seg.meta != nil {
		live = !seg.meta.StableKey(slot).IsZero()
	} else {
		live = f.blockMayExist(dbi)
	}
	buf := f.fs.slabs.get(f.fs.geo.BlockSize)
	switch {
	case full:
		// Every byte is about to be overwritten.
	case f.blockMayExist(dbi):
		if !f.fs.cache.getData(f.name, dbi, buf) {
			if err := f.ensureMeta(ctx, seg, si); err != nil {
				f.fs.slabs.put(buf)
				return nil, err
			}
			if err := f.readBlockMeta(ctx, seg, dbi, slot, buf); err != nil {
				f.fs.slabs.put(buf)
				return nil, err
			}
		}
	default:
		// Fresh partial block: the bytes around the written span must
		// read as zeros.
		zero(buf)
	}
	if live {
		seg.liveOverwrites++
	}
	seg.pending[slot] = buf
	return buf, nil
}

// blockMayExist reports whether logical data block dbi lies within the
// current logical size (and therefore may hold data that a partial
// write must preserve).
func (f *file) blockMayExist(dbi int64) bool {
	return dbi < f.fs.geo.NumDataBlocks(f.sizeNow())
}

// Truncate implements vfs.File.
func (f *file) Truncate(newSize int64) error { return f.TruncateCtx(nil, newSize) }

// TruncateCtx implements vfs.File: the resize observes ctx between
// the block and segment operations it performs (a sub-block shrink
// re-commits the boundary segment; a grow persists the new size). A
// canceled cut is a crash cut — rerun it, or Recover, before trusting
// the size. It first waits for the handle's write-behind commits, as
// SyncCtx does, and reports a failed one instead of resizing.
func (f *file) TruncateCtx(ctx context.Context, newSize int64) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return ErrReadOnly
	}
	if newSize < 0 {
		return fmt.Errorf("lamassu: negative size %d", newSize)
	}
	if err := f.waitBehind(ctx); err != nil {
		return err
	}
	if newSize == f.size {
		return nil
	}
	if newSize < f.size {
		return f.shrink(ctx, newSize)
	}
	return f.grow(ctx, newSize)
}

// shrink truncates the file to newSize < size.
//
// Locking exemption (also grow, persistSize, commitAll): these run
// only with opMu held exclusively and the handle's write-behind
// commits waited for, which drains all positional I/O, so they read
// and write the stateMu-guarded fields and per-segment state directly
// without taking the inner locks. Do not call them from a path holding
// opMu shared.
func (f *file) shrink(ctx context.Context, newSize int64) error {
	geo := f.fs.geo
	bs := int64(geo.BlockSize)
	newNDB := geo.NumDataBlocks(newSize)

	// Drop pending blocks at or beyond the new end. The batching
	// counter is rebuilt as a conservative bound (every surviving
	// pending block may be a live overwrite) — leaving the dropped
	// blocks' contribution in place would trigger premature commits
	// later.
	for si, seg := range f.segs {
		for slot, buf := range seg.pending {
			dbi := si*int64(geo.KeysPerSegment()) + int64(slot)
			if dbi >= newNDB {
				delete(seg.pending, slot)
				f.fs.slabs.put(buf)
			}
		}
		if seg.liveOverwrites > len(seg.pending) {
			seg.liveOverwrites = len(seg.pending)
		}
	}

	// Zero the dropped tail of a now-partial final block so a later
	// grow reads zeros there (pad-with-zeros semantics, §2.3).
	if tail := newSize % bs; tail != 0 {
		dbi := newNDB - 1
		si := geo.SegmentOfBlock(dbi)
		slot := geo.SlotOfBlock(dbi)
		seg := f.segment(si)
		buf, err := f.pendingBlock(ctx, seg, si, slot, dbi, false)
		if err != nil {
			return err
		}
		zero(buf[tail:])
	}

	f.size = newSize
	f.sizeDirty = true

	// The cut invalidates any cached blocks beyond the new end (and
	// the zeroed tail); drop the whole file for simplicity — truncation
	// is rare and re-population is one read away.
	f.fs.cache.invalidateFile(f.name)

	// Flush pending state, then cut metadata beyond the new end.
	if err := f.commitAll(ctx); err != nil {
		return err
	}
	if newSize == 0 {
		f.segs = make(map[int64]*segment)
		t := f.fs.cfg.Recorder.Start()
		err := backend.TruncateCtx(ctx, f.bf, 0)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		// Post-truncate drop: a read that re-populated from the
		// pre-truncate store while the cut was in flight must not
		// survive it.
		f.fs.cache.invalidateFile(f.name)
		return err
	}

	// Clear stable keys past the new final block in the final
	// segment, then drop whole segments beyond it.
	lastSeg := geo.SegmentOfBlock(newNDB - 1)
	meta, err := f.metaFor(ctx, lastSeg)
	if err != nil {
		return err
	}
	lastSlot := geo.SlotOfBlock(newNDB - 1)
	for s := lastSlot + 1; s < geo.KeysPerSegment(); s++ {
		if !meta.StableKey(s).IsZero() {
			meta.SetStableKey(s, cryptoutil.Key{})
			if meta.Compressed() {
				meta.SetStoredLen(s, 0)
			}
		}
	}
	meta.LogicalSize = uint64(newSize)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return err
	}
	f.sizeDirty = false
	for si := range f.segs {
		if si > lastSeg {
			delete(f.segs, si)
		}
	}
	t := f.fs.cfg.Recorder.Start()
	err = backend.TruncateCtx(ctx, f.bf, geo.PhysicalSize(newSize))
	f.fs.cfg.Recorder.Stop(metrics.IO, t)
	// Post-truncate drop, as in the newSize == 0 branch above.
	f.fs.cache.invalidateFile(f.name)
	return err
}

// grow extends the file to newSize > size. The extended range is a
// hole (zero-key slots); only the final metadata block is written so
// the authoritative size is durable.
func (f *file) grow(ctx context.Context, newSize int64) error {
	f.size = newSize
	f.sizeDirty = true
	// commitAll persists the final metadata block with the new size
	// and extends the backing file to the new physical size; the
	// extended range is a hole of zero-key slots.
	return f.commitAll(ctx)
}

// metaFor returns the handle's decoded metadata block for segment si,
// loading it if needed. The caller must hold opMu exclusively (no
// concurrent positional I/O).
func (f *file) metaFor(ctx context.Context, si int64) (*layout.MetaBlock, error) {
	seg := f.segment(si)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if err := f.ensureMeta(ctx, seg, si); err != nil {
		return nil, err
	}
	return seg.meta, nil
}

// Sync implements vfs.File: commits all pending segments, persists the
// authoritative size, and syncs the backing store.
func (f *file) Sync() error { return f.SyncCtx(nil) }

// SyncCtx implements vfs.File: Sync observing ctx between the segment
// commits it flushes. A canceled flush leaves uncommitted segments
// pending (retryable with a live context) and any interrupted commit
// in the crash-equivalent state WriteAtCtx documents.
//
// It first waits for the handle's write-behind commits (WriteAtCtx),
// canceling them if ctx is or becomes dead. If one failed, SyncCtx
// returns its error and flushes nothing; the failed segment stays
// pending, so the next SyncCtx retries it.
func (f *file) SyncCtx(ctx context.Context) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.readOnly {
		return nil
	}
	if err := f.waitBehind(ctx); err != nil {
		return err
	}
	if err := f.commitAll(ctx); err != nil {
		return err
	}
	t := f.fs.cfg.Recorder.Start()
	err := backend.SyncCtx(ctx, f.bf)
	f.fs.cfg.Recorder.Stop(metrics.IO, t)
	return err
}

// Close implements vfs.File.
func (f *file) Close() error { return f.CloseCtx(nil) }

// CloseCtx implements vfs.FileCloserCtx: the flush of pending state
// observes ctx (an already-canceled context skips it entirely — no
// backend work happens after cancellation), while the handle is
// ALWAYS marked closed and the backing handle released. Data left
// uncommitted by a canceled close is dropped with the handle, exactly
// as a crash would drop it; the on-disk state stays recoverable.
//
// Before the flush it waits for the handle's write-behind commits
// (WriteAtCtx), canceling them under a dead ctx; a failed one is
// reported in place of the flush, and its data dropped with the handle.
func (f *file) CloseCtx(ctx context.Context) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.checkOpen(); err != nil {
		return err
	}
	var err error
	if !f.readOnly {
		if err = f.waitBehind(ctx); err == nil {
			err = f.commitAll(ctx)
		}
	}
	f.stateMu.Lock()
	f.closed = true
	f.stateMu.Unlock()
	if cerr := f.bf.Close(); err == nil {
		err = cerr
	}
	return err
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
