package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"lamassu/internal/backend"
)

// file is an open handle to one (possibly striped) backing file. The
// routed slot for byte 0 is opened eagerly by Store.Open; handles to
// the shards holding other stripes — and, mid-migration, to the other
// epoch's owners — open lazily on first touch. Every operation
// resolves its target slots against the Store's CURRENT topology
// snapshot, so a handle opened before a migration began routes
// correctly during and after it.
//
// Concurrency matches the backend.File contract the engine relies on:
// concurrent ReadAt and concurrent WriteAt are safe (the handle map
// has its own mutex; the per-shard files do their own serialization),
// so commit fan-out may write several stripes of one file at once.
//
// "Does this store hold a piece of this file, and how long is it" has
// ONE rule, for reads, Size and Truncate alike: handle(…, false). An
// open handle answers for its store (its own Size() is local on every
// backend in the tree); a store that probed empty is remembered in
// missing. The licence is the single-writer model the engine already
// assumes of a backing file — nobody else creates, extends or cuts a
// stripe while this handle is open — with the two exceptions the Store
// itself makes (the mover and the scrubber), which move routeGen.
type file struct {
	store *Store
	name  string
	flag  backend.OpenFlag

	mu     sync.Mutex
	closed bool
	files  map[int]backend.File
	// missing marks shards a read, a size or a cut probed and found
	// without a stripe file: their ranges read as zeros (hole
	// semantics), they add nothing to the size and a cut has nothing to
	// cap there, all without re-probing. A write through THIS handle
	// clears the mark when it creates the stripe; another handle
	// creating it is outside the single-writer model, as with every
	// other stale-read case. The marks are valid only for one routing
	// generation: a migration can relocate data — and a scrub repair
	// re-create a copy — ONTO a slot that legitimately probed empty
	// earlier, so known() drops them all when Store.routeGen moves.
	missing    map[int]bool
	missingGen uint64
	// opening holds, per slot whose first-touch open is in flight, a
	// channel closed when that open resolves (see handle).
	opening map[int]chan struct{}
}

// handle returns the backend.File for one shard slot, opening it on
// first use. Only writes (forWrite) may create a missing stripe file;
// a read that finds none gets (nil, nil) and treats the range as a
// hole — a pure read workload must never materialize empty stripe
// files on shards that hold no data.
//
// A slot has at most one first-touch open in flight: a concurrent
// caller waits for it and asks again instead of opening a second
// handle. A second handle could not be dropped quietly — closing a
// handle flushes, and on an object store that completes the upload the
// first handle's writes are still adding parts to.
func (f *file) handle(ctx context.Context, t *topology, shard int, forWrite bool) (backend.File, error) {
	for {
		f.mu.Lock()
		h, known, err := f.knownLocked(shard, forWrite)
		if known {
			f.mu.Unlock()
			return h, err
		}
		opening, busy := f.opening[shard]
		if !busy {
			if f.opening == nil {
				f.opening = make(map[int]chan struct{})
			}
			f.opening[shard] = make(chan struct{})
		}
		f.mu.Unlock()
		if !busy {
			return f.open(ctx, t, shard, forWrite)
		}
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-opening:
		case <-done:
			return nil, backend.CtxErr(ctx)
		}
	}
}

// open is handle's first-touch open of one slot. It runs outside the
// lock, so a slow open (network backend) does not stall I/O to shards
// that are already open.
func (f *file) open(ctx context.Context, t *topology, shard int, forWrite bool) (backend.File, error) {
	flag := backend.OpenWrite
	switch {
	case f.flag == backend.OpenRead:
		flag = backend.OpenRead
	case forWrite:
		flag = backend.OpenCreate
	}
	h, err := backend.OpenCtx(ctx, t.stores[shard], f.name, flag)

	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.opening[shard])
	delete(f.opening, shard)
	if err != nil {
		if flag != backend.OpenCreate && errors.Is(err, backend.ErrNotExist) {
			if f.missing == nil {
				f.missing = make(map[int]bool)
			}
			f.missing[shard] = true
			return nil, nil
		}
		return nil, err
	}
	if f.closed {
		h.Close()
		return nil, backend.ErrClosed
	}
	delete(f.missing, shard)
	f.files[shard] = h
	return h, nil
}

// known answers handle's question from the handle map alone, without
// I/O: an open handle, a remembered miss (never for a write, which must
// create the stripe), or the handle being closed. known=false means the
// shard has to be probed.
func (f *file) known(shard int, forWrite bool) (h backend.File, known bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.knownLocked(shard, forWrite)
}

// knownLocked is known with f.mu held.
func (f *file) knownLocked(shard int, forWrite bool) (h backend.File, known bool, err error) {
	if f.closed {
		return nil, true, backend.ErrClosed
	}
	if h, ok := f.files[shard]; ok {
		return h, true, nil
	}
	if gen := f.store.routeGen.Load(); gen != f.missingGen {
		// Routing moved (migration progress, an epoch transition or a
		// scrub repair): negative probes may have been invalidated by
		// relocated data.
		f.missing = nil
		f.missingGen = gen
	}
	return nil, !forWrite && f.missing[shard], nil
}

// handles resolves each of slots through handle(…, false): hs[i] (nil:
// no stripe file there) and errs[i] are handle's answer for slots[i].
// Answers the handle map already holds cost nothing; the first-touch
// opens of one call go out together, so the first size or cut through a
// handle is one round trip however many stores there are, and every
// later one is local.
func (f *file) handles(ctx context.Context, t *topology, slots []int) (hs []backend.File, errs []error) {
	hs, errs = make([]backend.File, len(slots)), make([]error, len(slots))
	var cold []int
	for i, sl := range slots {
		var known bool
		if hs[i], known, errs[i] = f.known(sl, false); !known {
			cold = append(cold, i)
		}
	}
	together(len(cold), func(i int) {
		at := cold[i]
		hs[at], errs[at] = f.handle(ctx, t, slots[at], false)
	})
	return hs, errs
}

// openHandles snapshots the currently open per-shard handles.
func (f *file) openHandles() (map[int]backend.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, backend.ErrClosed
	}
	out := make(map[int]backend.File, len(f.files))
	for s, h := range f.files {
		out[s] = h
	}
	return out, nil
}

// striped reports whether ranges of this file can live on different
// shards under topology t.
func striped(t *topology) bool { return t.lay.StripeBytes() > 0 }

// Size implements backend.File: the maximum local size across shards
// (see Store.Stat for why the maximum is exact). Every store is
// resolved through handle(…, false), so the first Size through a handle
// costs one round of first-touch opens and every later one is local
// until routeGen moves; what it may miss is a stripe somebody else
// created since (see the struct comment).
func (f *file) Size() (int64, error) { return f.size(nil, f.store.topo.Load()) }

func (f *file) size(ctx context.Context, t *topology) (int64, error) {
	if t.replicated() {
		return f.sizeReplicated(ctx, t)
	}
	slot, _ := t.readTarget(f.name, 0)
	h, err := f.handle(ctx, t, slot, false)
	if err != nil {
		return 0, err
	}
	var size int64
	if h != nil {
		size, err = h.Size()
		if err != nil {
			return 0, err
		}
	}
	if !striped(t) {
		return size, nil
	}
	hs, errs := f.handles(ctx, t, t.otherSlots(t.stores[slot]))
	for i, h := range hs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if h == nil {
			continue
		}
		sz, err := h.Size()
		if err != nil {
			return 0, err
		}
		size = max(size, sz)
	}
	return size, nil
}

// sizeReplicated computes the file's global size with failover: the
// home-owner group is consulted whole (max across reachable owners),
// and the striped sweep skips unreachable stores — exact under a
// single shard loss because every stripe's extent lives on every owner
// of that stripe.
func (f *file) sizeReplicated(ctx context.Context, t *topology) (int64, error) {
	s := f.store
	slots, _ := t.readTargets(f.name, 0)
	var size int64
	got := false
	var firstErr error
	var consulted []backend.Store
	for _, sl := range t.dedupSlots(slots) {
		consulted = append(consulted, t.stores[sl])
		h, err := f.handle(ctx, t, sl, false)
		if err != nil {
			if immediateErr(ctx, err) {
				return 0, err
			}
			s.slotFailed(t, sl)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if h == nil {
			got = true // live owner, no copy: local size 0
			continue
		}
		sz, err := h.Size()
		if err != nil {
			if immediateErr(ctx, err) {
				return 0, err
			}
			s.slotFailed(t, sl)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.health[sl].ok()
		if sz > size {
			size = sz
		}
		got = true
	}
	if !got {
		return 0, firstErr
	}
	if !striped(t) {
		return size, nil
	}
	rest := t.otherSlots(consulted...)
	hs, errs := f.handles(ctx, t, rest)
	for i, sl := range rest {
		var sz int64
		err := errs[i]
		if err == nil {
			if hs[i] == nil {
				continue
			}
			sz, err = hs[i].Size()
		}
		if err != nil {
			if immediateErr(ctx, err) {
				return 0, err
			}
			s.slotFailed(t, sl)
			continue
		}
		size = max(size, sz)
	}
	return size, nil
}

// readChunkReplicated reads one placement range, failing over across
// the key's replica set. served=false (with a nil error) reports a
// hole: no replica holds a copy of the range. A clean miss on a live
// replica outranks an error from a dead one — the write path
// guarantees every durable range has a copy inside the live owner
// group, so "the live owners agree it is a hole" is authoritative.
// Breaker-open owners are probed only when no live owner gave a
// definitive answer.
func (f *file) readChunkReplicated(ctx context.Context, t *topology, chunk []byte, off int64) (int, bool, error) {
	s := f.store
	slots, fellBack := t.readTargets(f.name, off)
	if fellBack {
		s.noteFallback(t.mig)
	}
	var order, deferred []int
	pref := -1
	for _, sl := range t.dedupSlots(slots) {
		if pref < 0 {
			pref = sl
		}
		if t.health[sl].allowed() {
			order = append(order, sl)
		} else {
			deferred = append(deferred, sl)
		}
	}
	var firstErr error
	sawMissing := false
	attempts := 0
	try := func(list []int) (int, bool, error, bool) {
		for _, sl := range list {
			h, herr := f.handle(ctx, t, sl, false)
			if herr != nil {
				if immediateErr(ctx, herr) {
					return 0, false, herr, true
				}
				s.slotFailed(t, sl)
				if firstErr == nil {
					firstErr = herr
				}
				attempts++
				continue
			}
			if h == nil {
				sawMissing = true
				attempts++
				continue
			}
			m, rerr := backend.ReadAtCtx(ctx, h, chunk, off)
			t.countRead(sl, m)
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				if immediateErr(ctx, rerr) {
					return m, true, rerr, true
				}
				s.slotFailed(t, sl)
				if firstErr == nil {
					firstErr = rerr
				}
				attempts++
				continue
			}
			t.health[sl].ok()
			// A failover read is any read the primary owner did not
			// serve — whether it failed just now (attempts > 0) or is
			// exiled by its breaker and was never tried.
			if attempts > 0 || sl != pref {
				s.noteFailoverRead()
			}
			return m, true, rerr, true
		}
		return 0, false, nil, false
	}
	if m, served, err, done := try(order); done {
		return m, served, err
	}
	if !sawMissing {
		if m, served, err, done := try(deferred); done {
			return m, served, err
		}
	}
	if sawMissing || firstErr == nil {
		return 0, false, nil
	}
	return 0, false, firstErr
}

// stripeRange describes the part of a request hitting one stripe.
type stripeRange struct {
	off   int64 // global offset (stripes keep global offsets)
	bufLo int
	bufHi int
}

// splitStripes cuts the request [off, off+n) at stripe boundaries.
// Both epochs share the stripe unit, so each range resolves to one
// placement key (and thus one read slot, or one dual-write pair).
func splitStripes(t *topology, off int64, n int) []stripeRange {
	stripe := t.lay.StripeBytes()
	out := make([]stripeRange, 0, int(int64(n)/stripe)+2)
	pos := off
	end := off + int64(n)
	for pos < end {
		next := (pos/stripe + 1) * stripe
		if next > end {
			next = end
		}
		out = append(out, stripeRange{
			off:   pos,
			bufLo: int(pos - off),
			bufHi: int(next - off),
		})
		pos = next
	}
	return out
}

// ReadAt implements io.ReaderAt. Ranges on shards whose stripe file is
// shorter than the file's global size (sparse stripes) read as zeros,
// preserving the hole semantics of an unsharded backing file.
func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.readAt(nil, p, off) }

// ReadAtCtx implements backend.FileCtx: cancellation is observed
// between the per-stripe reads, and the context is forwarded to each
// shard's store.
func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return f.readAt(ctx, p, off)
}

func (f *file) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("shard: negative offset %d", off)
	}
	t := f.store.topo.Load()
	if !striped(t) {
		if t.replicated() {
			n, served, err := f.readChunkReplicated(ctx, t, p, off)
			if !served && err == nil {
				return 0, io.EOF
			}
			return n, err
		}
		slot, fellBack := t.readTarget(f.name, 0)
		if fellBack {
			f.store.noteFallback(t.mig)
		}
		h, err := f.handle(ctx, t, slot, false)
		if err != nil {
			return 0, err
		}
		if h == nil {
			return 0, io.EOF
		}
		n, err := backend.ReadAtCtx(ctx, h, p, off)
		t.countRead(slot, n)
		return n, err
	}
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	// Optimistic path: read each stripe range and resolve the global
	// size ONLY when a range comes back short — locally a short read
	// cannot distinguish a hole inside the file from true EOF, but a
	// fully satisfied request needs neither, which keeps the common
	// case (reading materialized blocks) free of the per-shard Stat
	// round that computing the size costs.
	size := int64(-1)
	resolve := func() (int64, error) {
		if size < 0 {
			s, err := f.size(ctx, t)
			if err != nil {
				return 0, err
			}
			size = s
		}
		return size, nil
	}
	for _, r := range splitStripes(t, off, len(p)) {
		if err := backend.CtxErr(ctx); err != nil {
			return r.bufLo, err
		}
		chunk := p[r.bufLo:r.bufHi]
		m := 0
		if t.replicated() {
			var rerr error
			m, _, rerr = f.readChunkReplicated(ctx, t, chunk, r.off)
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return r.bufLo + m, rerr
			}
		} else {
			slot, fellBack := t.readTarget(f.name, r.off)
			if fellBack {
				f.store.noteFallback(t.mig)
			}
			h, err := f.handle(ctx, t, slot, false)
			if err != nil {
				return r.bufLo, err
			}
			if h != nil {
				var rerr error
				m, rerr = backend.ReadAtCtx(ctx, h, chunk, r.off)
				t.countRead(slot, m)
				if rerr != nil && !errors.Is(rerr, io.EOF) {
					return r.bufLo + m, rerr
				}
			}
		}
		if m == len(chunk) {
			continue
		}
		// Short (or missing) stripe: hole up to the global size, EOF
		// beyond it.
		sz, err := resolve()
		if err != nil {
			return r.bufLo + m, err
		}
		valid := sz - r.off
		if valid < int64(m) {
			// The size was resolved by an earlier range and a racing
			// append has moved EOF since; the local read itself proves
			// bytes exist through r.off+m.
			valid = int64(m)
		}
		if valid <= 0 {
			// Everything before this range was fully read (so the file
			// ends exactly at r.off), or the request starts at or past
			// EOF.
			return r.bufLo, io.EOF
		}
		if valid < int64(len(chunk)) {
			clear(chunk[m:valid])
			return r.bufLo + int(valid), io.EOF
		}
		clear(chunk[m:])
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt, routing each stripe of the payload
// to its owning shard (stripe files are created on first write).
func (f *file) WriteAt(p []byte, off int64) (int, error) { return f.writeAt(nil, p, off) }

// WriteAtCtx implements backend.FileCtx: cancellation is observed
// between the per-stripe writes, so a canceled multi-stripe write is a
// clean cut at a stripe boundary (stripes are block-aligned, so the
// engine's whole-block crash model is preserved).
func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return f.writeAt(ctx, p, off)
}

// writeRange lands one stripe-aligned chunk. Mid-migration a
// relocated key is dual-written — previous owner first (that copy
// must stay complete until the epoch commits, because a crash drops
// every in-memory confirmation back onto it), current owner second —
// under the key's migration lock so the pair cannot interleave with
// the mover copying the same key.
func (f *file) writeRange(ctx context.Context, t *topology, chunk []byte, off int64) (int, error) {
	if t.replicated() {
		return f.writeRangeReplicated(ctx, t, chunk, off)
	}
	primary, mirror, mirrored, key := t.writeTargets(f.name, off)
	if mirrored {
		kl := t.mig.keyLock(key)
		kl.Lock()
		defer kl.Unlock()
		f.store.noteMirror(t.mig)
	}
	h, err := f.handle(ctx, t, primary, true)
	if err != nil {
		return 0, err
	}
	n, err := backend.WriteAtCtx(ctx, h, chunk, off)
	t.countWrite(primary, n)
	if err != nil || !mirrored {
		return n, err
	}
	mh, err := f.handle(ctx, t, mirror, true)
	if err != nil {
		return 0, err
	}
	mn, err := backend.WriteAtCtx(ctx, mh, chunk, off)
	t.countWrite(mirror, mn)
	if err != nil {
		return mn, err
	}
	return n, nil
}

// immediateErr reports errors that must abort an operation instead of
// triggering failover: the caller's context died, or the handle/store
// itself is unusable regardless of which shard is asked.
func immediateErr(ctx context.Context, err error) bool {
	return backend.CtxErr(ctx) != nil ||
		errors.Is(err, backend.ErrClosed) || errors.Is(err, backend.ErrReadOnly)
}

// together runs fn(0) … fn(n-1) at once — fn(0) on the caller's
// goroutine, the rest on their own — and returns when all have. It is
// the whole of shard's own concurrency: the owners of one epoch group,
// the per-shard flushes of one barrier, and the per-store probes of one
// size, cut or by-name Stat.
func together(n int, fn func(i int)) {
	if n < 2 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// writeRangeReplicated lands one stripe-aligned chunk on every owner
// of its key. The write succeeds when each epoch group (one group when
// stable, previous-then-current mid-migration) has at least one copy
// down; owners the write could not reach are marked suspect in the
// health tracker and journaled so Scrub restores full replication.
// Breaker-open owners are skipped (and journaled) unless they are a
// group's last hope, in which case they are attempted anyway — the
// breaker sheds latency, never durability.
//
// The owners of one group are written TOGETHER, one round trip for R
// copies, and joined before anything is accounted or the next group
// starts. What that keeps and what it gives up:
//
//   - The call still returns only after every owner write it issued has
//     returned, so group-success (returned ⇒ on every healthy owner)
//     and the engine's §2.4 barriers, which are built from "this call
//     returned", are unchanged; the previous epoch's group still
//     completes before the current epoch's starts.
//   - Written one after another, owners gave "owner 0 has it whenever
//     owner 1 does" at a crash cut. That is gone: per owner, the state
//     at a cut is now an arbitrary subset of the writes in flight. Each
//     owner was already in that position ACROSS extents — the I/O window
//     keeps a window's worth (32 on the benchmark's remote stack) of one
//     commit's extent writes in flight, and a cut lands any subset of
//     them — so recovery through one owner never relied on more than
//     whole-block atomicity per write (§2.4's matchesTransient argument,
//     block by block).
//   - Across owners the replicas of a cut key may differ until a Scrub,
//     each holding a value the workload wrote — as they could before,
//     with owner 0 ahead; now either may be. Nothing elects a "newest":
//     a read goes primary-first, and scrubKey takes the copy the damage
//     journal does not implicate, else the primary-most reachable one,
//     as its source — the same copy a primary-first read serves and
//     Recover therefore repaired from — and rewrites the others to match
//     it. Which owner was ahead never entered into it.
//
// TestReplicatedOwnerSubsetCut cuts after every subset of a group's
// owner writes, for a data extent and for both metadata barriers, and
// recovers through each replica alone.
//
// An owner write takes no I/O-window slot of its own: it rides the slot
// its extent's engine operation already holds, so a window of W bounds W
// operations in flight, each at most R leaf requests wide (taking R
// slots per operation would deadlock a full window against itself).
func (f *file) writeRangeReplicated(ctx context.Context, t *topology, chunk []byte, off int64) (int, error) {
	s := f.store
	groups, key, mirrored := t.writeGroups(f.name, off)
	if mirrored {
		kl := t.mig.keyLock(key)
		kl.Lock()
		defer kl.Unlock()
		s.noteMirror(t.mig)
	} else if sc := s.scrub.Load(); sc != nil {
		kl := sc.keyLock(key)
		kl.Lock()
		defer kl.Unlock()
	}
	// One write per physical store, even when a slot appears in both
	// epoch groups (or several carve slots share a store). R is 2–3, so
	// finding a store's write is a scan, not a map.
	type ownerWrite struct {
		slot int // the slot the write was issued through
		n    int
		err  error
	}
	writes := make([]ownerWrite, 0, 4)
	find := func(slot int) int {
		for i := range writes {
			if t.stores[writes[i].slot] == t.stores[slot] {
				return i
			}
		}
		return -1
	}
	n := -1
	for _, group := range groups {
		group = t.dedupSlots(group)
		var allowed, deferred []int
		for _, sl := range group {
			if t.health[sl].allowed() {
				allowed = append(allowed, sl)
			} else {
				deferred = append(deferred, sl)
			}
		}
		okCount := 0
		var firstErr error
		runList := func(list []int) error {
			// Issue together the writes of this list no earlier group
			// made, join, then account for every slot in slot order.
			issued := len(writes)
			for _, sl := range list {
				if find(sl) < 0 {
					writes = append(writes, ownerWrite{slot: sl})
				}
			}
			fresh := writes[issued:]
			together(len(fresh), func(i int) {
				w := &fresh[i]
				h, err := f.handle(ctx, t, w.slot, true)
				if err == nil {
					w.n, err = backend.WriteAtCtx(ctx, h, chunk, off)
					t.countWrite(w.slot, w.n)
				}
				w.err = err
			})
			for _, sl := range list {
				at := find(sl)
				w := writes[at]
				if w.err == nil {
					t.health[sl].ok()
					okCount++
					if n < 0 {
						n = w.n
					}
					// Counted where a write was issued, not where an
					// earlier group's outcome is reused.
					if sl != group[0] && at >= issued {
						s.noteReplicaWrite()
					}
					continue
				}
				if immediateErr(ctx, w.err) {
					return w.err
				}
				s.slotFailed(t, sl)
				s.noteWriteMiss(key, sl)
				if firstErr == nil {
					firstErr = w.err
				}
			}
			return nil
		}
		if err := runList(allowed); err != nil {
			return 0, err
		}
		if okCount == 0 {
			if err := runList(deferred); err != nil {
				return 0, err
			}
		} else {
			for _, sl := range deferred {
				s.noteWriteMiss(key, sl)
			}
		}
		if okCount == 0 {
			return 0, firstErr
		}
	}
	return n, nil
}

func (f *file) writeAt(ctx context.Context, p []byte, off int64) (int, error) {
	if f.flag == backend.OpenRead {
		return 0, backend.ErrReadOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("shard: negative offset %d", off)
	}
	if len(p) == 0 {
		if err := f.checkOpen(); err != nil {
			return 0, err
		}
		return 0, nil
	}
	t := f.store.topo.Load()
	if !striped(t) {
		return f.writeRange(ctx, t, p, off)
	}
	for _, r := range splitStripes(t, off, len(p)) {
		if err := backend.CtxErr(ctx); err != nil {
			return r.bufLo, err
		}
		m, err := f.writeRange(ctx, t, p[r.bufLo:r.bufHi], r.off)
		if err != nil {
			return r.bufLo + m, err
		}
	}
	return len(p), nil
}

// Truncate implements backend.File. Every shard's stripe file is
// capped at size, and the shard owning the final byte is extended (or
// pinned) to exactly size so the global maximum equals size.
func (f *file) Truncate(size int64) error { return f.truncate(nil, size) }

// TruncateCtx implements backend.FileCtx. Cancellation is observed
// between per-shard truncates; a canceled multi-shard cut must be
// retried (as after a crash) before the global size is trustworthy.
func (f *file) TruncateCtx(ctx context.Context, size int64) error {
	return f.truncate(ctx, size)
}

func (f *file) truncate(ctx context.Context, size int64) error {
	if f.flag == backend.OpenRead {
		return backend.ErrReadOnly
	}
	if size < 0 {
		return fmt.Errorf("shard: negative size %d", size)
	}
	t := f.store.topo.Load()
	if t.mig != nil {
		// A cut changes every store's copy; exclude the mover's copies
		// of this file (its per-key copy would otherwise re-extend a
		// freshly capped destination with pre-truncate bytes).
		fl := t.mig.fileLock(f.name)
		fl.Lock()
		defer fl.Unlock()
	}
	if sc := f.store.scrub.Load(); sc != nil {
		// Same exclusion against the scrubber's repair copies.
		fl := sc.fileLock(f.name)
		fl.Lock()
		defer fl.Unlock()
	}
	if t.replicated() {
		return f.truncateReplicated(ctx, t, size)
	}
	if !striped(t) {
		if t.mig == nil {
			// Stable whole-file placement: one copy, one call — the
			// steady-state path stays free of per-store Stat sweeps.
			return f.truncateAnchor(ctx, t, t.lay.ShardOf(f.name, 0), size)
		}
		if err := f.truncateSlots(ctx, t, size); err != nil {
			return err
		}
		// Pin the exact size on every slot that must exist: the routed
		// (authoritative) slot, plus the current home so the
		// post-commit epoch agrees.
		slot, _ := t.readTarget(f.name, 0)
		if err := f.truncateAnchor(ctx, t, slot, size); err != nil {
			return err
		}
		if home := t.homeShard(f.name); home != slot {
			return f.truncateAnchor(ctx, t, home, size)
		}
		return nil
	}
	if err := f.truncateSlots(ctx, t, size); err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	// Anchor the global size on the owner of the final byte — under
	// both epochs while migrating, so either view reports the new size.
	slot, _ := t.readTarget(f.name, size-1)
	if err := f.truncateAnchor(ctx, t, slot, size); err != nil {
		return err
	}
	if t.mig != nil {
		if cur := t.lay.ShardOf(f.name, size-1); cur != slot {
			return f.truncateAnchor(ctx, t, cur, size)
		}
	}
	return nil
}

// truncateReplicated cuts a replicated file: every reachable copy is
// capped, then the owner group of the final byte (both epochs'
// mid-migration) is anchored at exactly size. Unreachable copies are
// journaled as size-suspect so Scrub re-caps them — a shard that was
// down through a truncate must not later reinflate the global size.
func (f *file) truncateReplicated(ctx context.Context, t *topology, size int64) error {
	if err := f.truncateSlots(ctx, t, size); err != nil {
		return err
	}
	if striped(t) && size == 0 {
		return nil
	}
	anchorOff := int64(0)
	if striped(t) && size > 0 {
		anchorOff = size - 1
	}
	slots, fellBack := t.readTargets(f.name, anchorOff)
	if err := f.truncateAnchorGroup(ctx, t, slots, size); err != nil {
		return err
	}
	if fellBack {
		if cur := t.lay.Owners(t.lay.KeyOf(f.name, anchorOff)); !sameSlotSet(cur, slots) {
			return f.truncateAnchorGroup(ctx, t, cur, size)
		}
	}
	return nil
}

// truncateAnchorGroup pins size on every owner in slots. At least one
// anchor must land; owners the cut could not reach are journaled for
// Scrub.
func (f *file) truncateAnchorGroup(ctx context.Context, t *topology, slots []int, size int64) error {
	s := f.store
	ok := 0
	var firstErr error
	for _, sl := range t.dedupSlots(slots) {
		err := f.truncateAnchor(ctx, t, sl, size)
		if err == nil {
			t.health[sl].ok()
			ok++
			continue
		}
		if immediateErr(ctx, err) {
			return err
		}
		s.slotFailed(t, sl)
		s.noteSizeMiss(f.name, sl)
		if firstErr == nil {
			firstErr = err
		}
	}
	if ok == 0 {
		return firstErr
	}
	return nil
}

// truncateSlots caps every store holding more than size, each resolved
// through handle(…, false) like Size: stripes written by an earlier
// handle are cut too because the probe OPENS them (a non-create handle
// is all a cut of a file that exists needs), and a store that probed
// empty has nothing to cap until routeGen moves or this handle creates
// its stripe. Under replication an unreachable store is journaled and
// skipped instead of failing the cut.
func (f *file) truncateSlots(ctx context.Context, t *topology, size int64) error {
	tolerate := func(err error, shard int) bool {
		if !t.replicated() || immediateErr(ctx, err) {
			return false
		}
		f.store.slotFailed(t, shard)
		f.store.noteSizeMiss(f.name, shard)
		return true
	}
	slots := t.otherSlots()
	hs, errs := f.handles(ctx, t, slots)
	for i, sl := range slots {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		err := errs[i]
		if err == nil {
			if hs[i] == nil {
				continue
			}
			var local int64
			if local, err = hs[i].Size(); err == nil && local > size {
				err = backend.TruncateCtx(ctx, hs[i], size)
			}
		}
		if err != nil && !tolerate(err, sl) {
			return err
		}
	}
	return nil
}

// truncateAnchor pins slot's copy at exactly size.
func (f *file) truncateAnchor(ctx context.Context, t *topology, slot int, size int64) error {
	h, err := f.handle(ctx, t, slot, true)
	if err != nil {
		return err
	}
	return backend.TruncateCtx(ctx, h, size)
}

// Sync implements backend.File: every shard handle this file touched
// is flushed.
func (f *file) Sync() error { return f.sync(nil) }

// SyncCtx implements backend.FileCtx. The per-shard flushes of one
// barrier run together, so ctx is observed before they start and by
// each shard's store.
func (f *file) SyncCtx(ctx context.Context) error { return f.sync(ctx) }

func (f *file) sync(ctx context.Context) error {
	open, err := f.openHandles()
	if err != nil {
		return err
	}
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	t := f.store.topo.Load()
	slots := slices.Sorted(maps.Keys(open)) // barriers account and report in slot order
	errs := make([]error, len(slots))
	together(len(slots), func(i int) {
		errs[i] = backend.SyncCtx(ctx, open[slots[i]])
	})
	// Accounting after the join, in slot order, and the error reported
	// is the lowest slot's (runWindowed's rule). This loop used to
	// report whichever failure Go's map iteration met first, so nothing
	// can have depended on which one it is.
	synced := 0
	var tolerated, fatal error
	for i, s := range slots {
		switch err := errs[i]; {
		case err == nil:
			t.countSync(s)
			synced++
		case t.replicated() && !immediateErr(ctx, err):
			// A dead shard's flush failing must not fail the sync:
			// every key it holds has a replica among the handles
			// that did flush, and its copies are suspect anyway —
			// Scrub reconverges them from the surviving owners.
			f.store.slotFailed(t, s)
			if tolerated == nil {
				tolerated = err
			}
		case fatal == nil:
			fatal = err
		}
	}
	if fatal != nil {
		return fatal
	}
	if synced == 0 {
		return tolerated
	}
	return nil
}

func (f *file) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return backend.ErrClosed
	}
	return nil
}

// Close implements backend.File.
func (f *file) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return backend.ErrClosed
	}
	f.closed = true
	files := f.files
	f.files = nil
	f.mu.Unlock()
	// A Close is a flush on stores that persist at Close (objstore
	// Completes its staged parts), so the shards close together like
	// sync's; the lowest slot's error is the one reported.
	slots := slices.Sorted(maps.Keys(files))
	errs := make([]error, len(slots))
	together(len(slots), func(i int) {
		errs[i] = files[slots[i]].Close()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
