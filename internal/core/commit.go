package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
)

// commitSegment runs the multiphase commit protocol (§2.4) for one
// segment's pending blocks:
//
//  1. Write the segment's metadata block with the midupdate flag set,
//     the new convergent keys installed in the stable slots, and the
//     previous keys preserved in the transient (reserved) slots.
//  2. Write the re-encrypted data blocks.
//  3. Write the metadata block again with the flag cleared and the
//     transient slots zeroed.
//
// There is one pipeline, and every mode is a parameter of it:
//
//	derive keys → drop already-durable blocks → encode fan-out →
//	chunk by transient capacity → per chunk: phase 1 → write the
//	planned extents → extent pad → phase 3
//
//	mode         extent rule (planExtents)          payload per block
//	raw          merge full-slot neighbours          BlockSize
//	compressed   same; a short block ends its extent stored length (encode)
//	per-block    never merge                         as raw / compressed
//	sharded      also split at stripe edges          unchanged
//
// A batch of m blocks costs extents+2 backing I/Os: m+2 in the paper's
// per-block mode (Config.DisableCoalescing), and as little as 3 for a
// whole segment of adjacent full-slot blocks. Extents split at shard
// stripe boundaries so each WriteAt lands on exactly one shard and is
// charged to that shard's slice of the worker pool.
//
// The transient slots only need to preserve the previous keys of
// blocks that were live before the commit; a block that was a hole (a
// zero-key slot) has no previous key, and both the read path and
// crash recovery already treat "keyed block whose data never landed"
// as that hole. Batching is therefore bounded by R *overwritten live
// blocks*, not R pending blocks: a purely sequential append buffers a
// whole segment and commits it with one extent — 3 backing I/Os for
// 118 blocks — while overwrites of live data still commit every R
// writes exactly as the paper prescribes. The per-block mode keeps the
// original R-pending policy (see batchCaps).
//
// The CPU-bound per-block work fans out across the FS worker pool and
// all of it — key derivation and the encode (compress + encrypt) of
// every pending block — runs BEFORE the phase-1 barrier: a compressed
// segment's stored lengths land in the same sealed metadata write that
// publishes the new keys, so they must exist up front. That is pure
// CPU work with no backend I/O, so the barriers — and therefore the
// §2.4 crash-consistency guarantees — are exactly the serial
// protocol's: no data block is written before the phase-1 metadata
// write completes, and the phase-3 write begins only after every data
// write has returned.
//
// A compressed segment's length table costs layout.LenSlots() of the R
// reserved slots, so one phase can stage at most meta.EffReserved()
// live overwrites. This FS's own write triggers bound batches
// accordingly, but a compression-off FS writing into a segment some
// other mount compressed can legally arrive with up to R — the batch is
// partitioned into consecutive chunks, each its own complete phase 1–3
// commit. A crash between chunks leaves earlier chunks fully committed
// and later ones never started: exactly the state a crash between two
// independent commits leaves.
//
// Cancellation (API v2): ctx is observed before every backend write —
// between the phase barriers and between the individual extent writes
// of phase 2 — never inside one. A cancellation point is therefore
// exactly a crash point of the existing sweeps: phase 1 canceled leaves
// the old committed state intact, phase 2 canceled leaves the segment
// midupdate with a recoverable mix of old and new blocks, and phase 3
// canceled leaves a fully-written segment whose marker the next
// recovery clears. The pending buffers stay staged, so retrying the
// commit with a live context converges (the midupdate repair at the top
// of this function plus the already-durable drop below re-commit only
// what never landed).
//
// The caller must hold seg.mu exclusively.
func (f *file) commitSegment(ctx context.Context, seg *segment, si int64) error {
	if len(seg.pending) == 0 {
		// Nothing buffered (e.g. a truncate dropped the pending set);
		// clear the batching counter so its staleness cannot trigger
		// premature one-block commits later.
		seg.liveOverwrites = 0
		return nil
	}
	if _, pendCap := f.fs.batchCaps(); len(seg.pending) > pendCap {
		// The write trigger commits at the cap, so this is a bug guard.
		return fmt.Errorf("lamassu: internal error: %d pending blocks exceed the batch cap %d in segment %d",
			len(seg.pending), pendCap, si)
	}
	if err := f.ensureMeta(ctx, seg, si); err != nil {
		return err
	}
	// Refuse to start mutating the in-memory metadata under an
	// already-dead context; after this point cancellation is observed
	// at backend-write boundaries only.
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	meta := seg.meta
	// A segment still marked midupdate carries recovery state from an
	// interrupted commit; repair it before reusing the transient slots.
	if meta.MidUpdate() {
		if err := f.recoverSegment(ctx, meta); err != nil {
			return err
		}
	}

	slots := make([]int, 0, len(seg.pending))
	for s := range seg.pending {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	// Derive the new convergent keys (fanned out — the SHA-256 block
	// hashes dominate the write path, Figure 9).
	newKeys := make([]cryptoutil.Key, len(slots))
	err := f.fs.pool.run(ctx, len(slots), func(i int) error {
		k, err := f.fs.deriveKey(seg.pending[slots[i]])
		if err != nil {
			return fmt.Errorf("lamassu: deriving key for segment %d slot %d: %w", si, slots[i], err)
		}
		newKeys[i] = k
		return nil
	})
	if err != nil {
		return err
	}

	// A pending block whose stable key already equals its derived key
	// is already durable: convergent keys are one-to-one with content,
	// so the on-disk ciphertext IS this plaintext. Dropping such
	// blocks makes a commit retry after a partially-landed batch
	// converge — recovery promotes the landed blocks to live under
	// exactly these keys, and re-staging them would both waste I/O and
	// overflow the R transient slots (they were fresh when the
	// batching trigger counted them). Identical same-content
	// overwrites get the same free pass. (Not in per-block mode, which
	// keeps the paper's exact I/O accounting.)
	if !f.fs.cfg.DisableCoalescing {
		kept := 0
		for i, s := range slots {
			if meta.StableKey(s).Equal(newKeys[i]) {
				continue
			}
			slots[kept], newKeys[kept] = s, newKeys[i]
			kept++
		}
		slots, newKeys = slots[:kept], newKeys[:kept]
		if kept == 0 {
			// Everything was already on disk; nothing to commit. The
			// logical size, if dirty, is persistSize's job.
			f.releasePending(seg)
			return nil
		}
	}

	// A compressed-mode FS flips each raw segment it first commits into:
	// the flag and freshly initialized length table (live blocks marked
	// raw-full — the bytes already on disk stay valid) are persisted by
	// the phase-1 barrier below. The reverse flip never happens, and a
	// compression-off FS keeps maintaining the length table of a segment
	// some other mount compressed, so the codec never has to guess.
	if f.fs.cfg.Compression && !meta.Compressed() {
		meta.InitCompressed()
	}

	// Encode fan-out: cts holds one BlockSize-strided slot per block,
	// with lens[i] payload bytes at the front (always BlockSize in a raw
	// segment — a full-segment batch must not serialize ~half a megabyte
	// of AES on one goroutine either way).
	bs := f.fs.geo.BlockSize
	cts := f.fs.slabs.get(len(slots) * bs)
	defer f.fs.slabs.put(cts)
	lens := make([]int, len(slots))
	err = f.fs.pool.run(ctx, len(slots), func(i int) error {
		n, err := f.fs.encode(cts[i*bs:(i+1)*bs], seg.pending[slots[i]], newKeys[i], meta.Compressed())
		if err != nil {
			return fmt.Errorf("lamassu: encoding segment %d slot %d: %w", si, slots[i], err)
		}
		lens[i] = n
		return nil
	})
	if err != nil {
		return err
	}

	// One phase 1–3 commit per chunk of at most EffReserved live
	// overwrites.
	var sizeAtCommit int64
	for lo := 0; lo < len(slots); {
		hi, overwrites := lo, 0
		for hi < len(slots) {
			if !meta.StableKey(slots[hi]).IsZero() {
				if overwrites == meta.EffReserved() {
					break
				}
				overwrites++
			}
			hi++
		}
		if hi < len(slots) && !meta.Compressed() {
			// The overwrite-bounded batching policy must leave enough
			// transient slots for every live block this commit
			// replaces; in a raw segment a violation is a bug in the
			// trigger accounting, caught here before any state changes.
			return fmt.Errorf("lamassu: internal error: more than R=%d live blocks overwritten in segment %d",
				f.fs.geo.Reserved, si)
		}
		sizeAtCommit, err = f.commitChunk(ctx, seg, si, slots[lo:hi], newKeys[lo:hi], lens[lo:hi], cts[lo*bs:hi*bs])
		if err != nil {
			return err
		}
		lo = hi
	}

	f.releasePending(seg)

	// The final metadata block now carries the size this commit
	// observed; only mark the size clean if it has not moved since
	// (a concurrent writer may have extended the file while our
	// barriers were in flight).
	f.stateMu.Lock()
	if f.size == sizeAtCommit && f.isFinalSegmentLocked(si) {
		f.sizeDirty = false
	}
	f.stateMu.Unlock()
	return nil
}

// releasePending recycles the segment's pending buffers — they came
// from the slab pool (pendingBlock) — once their ciphertext is durable.
func (f *file) releasePending(seg *segment) {
	for _, buf := range seg.pending {
		f.fs.slabs.put(buf)
	}
	clear(seg.pending)
	seg.liveOverwrites = 0
}

// commitChunk runs one complete phase 1–3 commit for a chunk whose live
// overwrites fit the segment's transient capacity. cts holds the
// chunk's pre-encoded ciphertexts, one BlockSize-strided slot each,
// with lens[i] valid payload bytes at the front. Returns the logical
// size the phase-1 barrier persisted. The caller must hold seg.mu
// exclusively.
func (f *file) commitChunk(ctx context.Context, seg *segment, si int64, slots []int, newKeys []cryptoutil.Key, lens []int, cts []byte) (int64, error) {
	meta := seg.meta
	compressed := meta.Compressed()
	keysPerSeg := int64(f.fs.geo.KeysPerSegment())

	// Phase 1: stage the old key of each live block into a transient
	// slot, install the new keys, mark midupdate, persist. Hole slots
	// stage nothing: recovery and the mid-update read path identify old
	// contents by the hash check, and a keyed block whose data never
	// landed reads back as the hole it was. A compressed segment pairs
	// each staged key with the block's old stored length, and the
	// pairing is load-bearing: old contents are decoded with transient
	// key r at OldLen(r) — a key without its length could not be
	// decoded at all.
	ti := 0
	for i, s := range slots {
		if old := meta.StableKey(s); !old.IsZero() {
			meta.SetTransientKey(ti, old)
			if compressed {
				meta.SetOldLen(ti, uint8(meta.StoredLen(s)))
			}
			ti++
		}
		meta.SetStableKey(s, newKeys[i])
		if compressed {
			meta.SetStoredLen(s, uint8(lens[i]/layout.LenUnit))
		}
	}
	meta.NTransient = uint32(ti)
	meta.SetMidUpdate(true)
	sizeAtCommit := f.sizeNow()
	meta.LogicalSize = uint64(sizeAtCommit)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return 0, fmt.Errorf("lamassu: commit phase 1 (segment %d): %w", si, err)
	}

	// The data writes below replace the committed blocks' on-disk
	// ciphertext; drop their cached plaintext BEFORE phase 2 starts
	// and again right after the batch returns — even on error, when
	// some writes landed and some did not — so a read that
	// re-populated from pre-phase-2 disk state while the batch was in
	// flight cannot outlive it. The guard is explicit: the cache
	// methods tolerate a nil receiver, but this path must not depend on
	// that incidental contract.
	var dbis []int64
	if f.fs.cache != nil {
		dbis = make([]int64, len(slots))
		for i, s := range slots {
			dbis[i] = si*keysPerSeg + int64(s)
		}
		f.fs.cache.invalidateDataBlocks(f.name, dbis)
	}

	// Phase 2: write the stored payloads between the two metadata
	// barriers.
	err := f.writeExtents(ctx, si, slots, lens, cts)
	// Second half of the invalidation bracket around phase 2, on the
	// success and error paths alike.
	if f.fs.cache != nil {
		f.fs.cache.invalidateDataBlocks(f.name, dbis)
	}
	if err != nil {
		return 0, err
	}
	last := len(slots) - 1
	if err := f.padExtent(ctx, si*keysPerSeg+int64(slots[last]), lens[last]); err != nil {
		return 0, fmt.Errorf("lamassu: commit phase 2 (segment %d extent pad): %w", si, err)
	}

	// Phase 3: clear the update marker. ClearTransient preserves the
	// stable length table in compressed mode and zeroes the old
	// lengths alongside the transient keys.
	meta.SetMidUpdate(false)
	meta.ClearTransient()
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		// The phase-3 write never landed: the on-disk segment is still
		// marked midupdate, so the in-memory view must agree or a
		// commit retry would skip the repair pass.
		meta.SetMidUpdate(true)
		return 0, fmt.Errorf("lamassu: commit phase 3 (segment %d): %w", si, err)
	}
	return sizeAtCommit, nil
}

// extent is one planned backend data I/O: blocks [lo, hi) of the
// caller's ascending block list, whose stored payloads are contiguous
// on disk — (hi-lo-1) full slots plus the last block's stored length,
// starting at backing offset off — and owned by one shard (-1 when the
// store is unsharded).
type extent struct {
	lo, hi int
	off    int64
	shard  int
}

// planExtents partitions blocks 0..n-1 — ascending data-block indices
// block(i), each holding stored(i) payload bytes at the front of its
// fixed slot — into the extents the commit writes and the read path
// fetches. This is the only place the adjacency rule is written: block
// i extends the current extent iff merging is on (off selects the
// paper's one-I/O-per-block mode), it is the next block on disk in the
// same segment (a metadata block separates segments), no shard stripe
// edge lies between the two (stripes are block-aligned, so contiguous
// blocks can only change shards at a stripe edge), and block i-1 is
// stored full-slot (a short payload leaves dead slack before the next
// slot, which is not ours to write or worth reading). A raw segment is
// the case where every stored length is BlockSize. Both directions
// plan through here, so what a commit wrote as one I/O a read fetches
// as one I/O.
func (f *file) planExtents(n int, block func(int) int64, stored func(int) int) []extent {
	geo := f.fs.geo
	bs := int64(geo.BlockSize)
	merge := !f.fs.cfg.DisableCoalescing
	var stripe int64
	if f.fs.sharded != nil {
		stripe = f.fs.sharded.StripeBytes()
	}
	exts := make([]extent, 0, 4)
	shard, shardStripe := -1, int64(0)
	for i := 0; i < n; i++ {
		b := block(i)
		off := geo.DataBlockOffset(b)
		if i > 0 && merge && b == block(i-1)+1 && geo.SegmentOfBlock(b) == geo.SegmentOfBlock(b-1) &&
			(stripe <= 0 || (off-bs)/stripe == off/stripe) && int64(stored(i-1)) == bs {
			exts[len(exts)-1].hi = i + 1
			continue
		}
		// One owner lookup per stripe: offsets within a stripe share a
		// shard, and a whole-file-placed store (stripe <= 0) needs a
		// single lookup for all blocks.
		if f.fs.sharded != nil && (shard < 0 || (stripe > 0 && off/stripe != shardStripe)) {
			shard = f.fs.sharded.ShardOf(f.name, off)
			if stripe > 0 {
				shardStripe = off / stripe
			}
		}
		exts = append(exts, extent{lo: i, hi: i + 1, off: off, shard: shard})
	}
	return exts
}

// writeExtents is phase 2, the one place a commit writes data: the
// chunk's pre-encoded payloads go out as the planned extents, one
// backend WriteAt each. An extent's payload is contiguous in the slab
// exactly as it is on disk — every block before its last is stored
// full-slot — so a short final block still merges, trimming the tail
// of the write. The writes of one chunk run concurrently (the backend
// is required to support concurrent WriteAt — os files and the memory
// store do), each from its own disjoint slice of the slab. Error
// semantics are the pool's: every dispatched write runs, and the
// failure of the lowest index wins, deterministically.
func (f *file) writeExtents(ctx context.Context, si int64, slots []int, lens []int, cts []byte) error {
	bs := f.fs.geo.BlockSize
	first := si * int64(f.fs.geo.KeysPerSegment())
	exts := f.planExtents(len(slots),
		func(i int) int64 { return first + int64(slots[i]) },
		func(i int) int { return lens[i] })
	_, err := f.dispatchExtents(ctx, exts, true, func(e int) error {
		x := exts[e]
		payload := cts[x.lo*bs : (x.hi-1)*bs+lens[x.hi-1]]
		// On the window nothing else charges the extent to its owning
		// shard; off it runSharded already has.
		if f.fs.iow != nil {
			defer f.fs.pool.noteShardIO(x.shard, metrics.ShardTask)()
		}
		// The window slot brackets the backend call only; the task may
		// already hold a pool slot (see ioWindow's deadlock note).
		f.fs.iow.acquire()
		t := f.fs.cfg.Recorder.Start()
		_, werr := backend.WriteAtCtx(ctx, f.bf, payload, x.off)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		f.fs.iow.release()
		f.fs.cfg.Recorder.CountIOBytes(int64(len(payload)))
		f.fs.cfg.Recorder.CountDataBytes(int64((x.hi-x.lo)*bs), int64(len(payload)))
		f.fs.cfg.Recorder.CountEvent(metrics.WriteRun, 1)
		if werr != nil {
			return fmt.Errorf("lamassu: commit phase 2 (extent of %d blocks at block %d): %w",
				x.hi-x.lo, first+int64(slots[x.lo]), werr)
		}
		return nil
	})
	return err
}

// dispatchExtents runs fn once per planned extent under the one
// dispatch rule both directions share, in this precedence:
//
//   - With an I/O window configured the extents — pure backend I/O,
//     the encode or decode fan-out happens elsewhere — dispatch on the
//     window itself instead of the worker pool (runWindowed), so the
//     number of requests on the wire tracks the link's depth rather
//     than the CPU budget or the shard count: commit or read, sharded
//     or not, the window alone bounds how many are in flight.
//   - Otherwise, over a sharded store, each extent is charged to the
//     one shard it lands on, so traffic into one hot shard queues on
//     that shard instead of starving the others. (On the window the
//     extents still count in their shard's gauges — noteShardIO — but
//     queue on the window.)
//   - Otherwise the extents share the pool, or run back to back.
//
// pooled says who pays for the fan-out without a window. Commit tasks
// take worker-pool slots (the owning shard's budget first). Read tasks
// deliberately take none, windowed or not: a reader can block on a
// segment lock held by that segment's commit, and the commit needs pool
// slots to finish — a reader holding one while it waits would deadlock
// the pool. Without a window reads instead get one goroutine per shard
// (the per-shard gauges still record the fan-out), serial within a
// shard and when unsharded.
//
// Every form has the pool's error semantics: the failure of the lowest
// extent index wins, and a dead ctx stops dispatch of extents not yet
// started. The unpooled forms also report that index, which a read maps
// to a buffer position; the §2.4 semantics are untouched — phase 2
// still completes in full before the phase-3 barrier.
func (f *file) dispatchExtents(ctx context.Context, exts []extent, pooled bool, fn func(e int) error) (int, error) {
	switch {
	case f.fs.iow != nil:
		return f.fs.runWindowed(ctx, len(exts), fn)
	case pooled && f.fs.sharded != nil:
		return 0, f.fs.pool.runSharded(ctx, len(exts), func(e int) int { return exts[e].shard }, fn)
	case pooled:
		return 0, f.fs.pool.run(ctx, len(exts), fn)
	}
	// runShard runs shard s's extents in index order, stopping at the
	// first failure.
	runShard := func(s int) (int, error) {
		for e := range exts {
			if exts[e].shard != s {
				continue
			}
			if err := backend.CtxErr(ctx); err != nil {
				return e, err
			}
			if err := fn(e); err != nil {
				return e, err
			}
		}
		return 0, nil
	}
	shards := extentShards(exts)
	switch len(shards) {
	case 0:
		return 0, nil
	case 1: // including every unsharded store (all extents at shard -1)
		return runShard(shards[0])
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	for _, s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if e, err := runShard(s); err != nil {
				mu.Lock()
				if firstErr == nil || e < firstIdx {
					firstErr, firstIdx = err, e
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return firstIdx, firstErr
}

// extentShards returns the distinct owning shards of exts in order of
// first appearance (a single -1 for an unsharded store).
func extentShards(exts []extent) []int {
	var shards []int
	for _, x := range exts {
		if !slices.Contains(shards, x.shard) {
			shards = append(shards, x.shard)
		}
	}
	return shards
}

// isFinalSegmentLocked reports whether si is the file's final segment
// at the current logical size (whose metadata carries the
// authoritative size, §2.3). The caller must hold stateMu.
func (f *file) isFinalSegmentLocked(si int64) bool {
	ndb := f.fs.geo.NumDataBlocks(f.size)
	if ndb == 0 {
		return si == 0
	}
	return si == f.fs.geo.SegmentOfBlock(ndb-1)
}

// commitAll flushes every pending segment and persists the
// authoritative logical size in the final metadata block. The caller
// must hold opMu exclusively.
func (f *file) commitAll(ctx context.Context) error {
	f.stateMu.Lock()
	segs := make([]int64, 0, len(f.segs))
	for si, seg := range f.segs {
		if len(seg.pending) > 0 {
			segs = append(segs, si)
		}
	}
	f.stateMu.Unlock()
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, si := range segs {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		seg := f.segment(si)
		seg.mu.Lock()
		err := f.commitSegment(ctx, seg, si)
		seg.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return f.persistSize(ctx)
}

// persistSize writes the current logical size into the final metadata
// block and extends the backing file to the matching physical size.
// Stale sizes in earlier metadata blocks are intentionally left in
// place; readers only trust the final block (§2.3). The caller must
// hold opMu exclusively.
func (f *file) persistSize(ctx context.Context) error {
	if !f.sizeDirty {
		return nil
	}
	if f.size == 0 {
		// An empty file stores no blocks at all (Equations 4–6 give
		// NDB = NMB = 0).
		t := f.fs.cfg.Recorder.Start()
		err := backend.TruncateCtx(ctx, f.bf, 0)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		if err != nil {
			return err
		}
		f.segs = make(map[int64]*segment)
		// Explicit nil guard, as in commitSegment's bracket.
		if f.fs.cache != nil {
			f.fs.cache.invalidateFile(f.name)
		}
		f.sizeDirty = false
		return nil
	}
	ndb := f.fs.geo.NumDataBlocks(f.size)
	lastSeg := f.fs.geo.SegmentOfBlock(ndb - 1)
	meta, err := f.metaFor(ctx, lastSeg)
	if err != nil {
		return err
	}
	meta.LogicalSize = uint64(f.size)
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		return err
	}
	phys, err := f.bf.Size()
	if err != nil {
		return err
	}
	if want := f.fs.geo.PhysicalSize(f.size); phys < want {
		t := f.fs.cfg.Recorder.Start()
		err := backend.TruncateCtx(ctx, f.bf, want)
		f.fs.cfg.Recorder.Stop(metrics.IO, t)
		if err != nil {
			return err
		}
	}
	f.sizeDirty = false
	return nil
}
