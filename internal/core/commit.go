package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

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
//	sharded      also split at stripe edges          unchanged
//
// A batch of m blocks costs extents+2 backing I/Os: the paper's m+2 when
// no two of them are adjacent, and as little as 3 for a whole segment
// of adjacent full-slot blocks. Extents split at shard
// stripe boundaries so each WriteAt lands on exactly one owner group.
//
// The transient slots only need to preserve the previous keys of
// blocks that were live before the commit; a block that was a hole (a
// zero-key slot) has no previous key, and both the read path and
// crash recovery already treat "keyed block whose data never landed"
// as that hole. Batching is therefore bounded by R *overwritten live
// blocks*, not R pending blocks: a purely sequential append buffers a
// whole segment and commits it with one extent — 3 backing I/Os for
// 118 blocks — while overwrites of live data still land one phase 1–3
// commit every R writes exactly as the paper prescribes (see liveCap).
// What a write amortizes is the CPU half: its trigger fires once per
// segment run (writeRun), so one multi-block overwrite derives and
// encodes all the groups of R it completes in one fan-out each, and
// landCommit lands them as back-to-back chunks of R overwrites.
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
// One phase can stage at most meta.EffReserved() live overwrites: R, or
// fewer in a compressed segment, whose length table costs
// layout.LenSlots() of the R reserved slots. Any batch — a triggered
// commit's groups, a Sync's whole pending set, a compression-off FS
// writing into a segment some other mount compressed — is partitioned
// into consecutive chunks of at most that many, each its own complete
// phase 1–3 commit. A crash between chunks leaves earlier chunks fully
// committed and later ones never started: exactly the state a crash
// between two independent commits leaves.
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
// The pipeline is two halves. The CPU half (prepareCommit) is
// everything up to and including the encode fan-out; the I/O half
// (landCommit) is the chunk loop of phases 1–3 and the bookkeeping
// after it. A commit a write triggers on a window of more than one slot
// runs its CPU half on the writer and hands the I/O half to the window
// (writebehind.go); every other commit runs both here, back to back.
//
// The caller must hold seg.mu exclusively.
func (f *file) commitSegment(ctx context.Context, seg *segment, si int64) error {
	c, err := f.prepareCommit(ctx, seg, si, true)
	if err != nil || c == nil {
		return err
	}
	return f.landCommit(ctx, seg, si, c)
}

// commitIO is a commit's I/O half: what its CPU half derived and
// encoded, waiting to be written under the §2.4 barriers.
type commitIO struct {
	slots   []int
	newKeys []cryptoutil.Key
	// lens[i] payload bytes of block i sit at the front of the i-th
	// BlockSize-strided slot of cts, a slab landCommit returns.
	lens []int
	cts  []byte
	// size is the logical size when the commit was triggered; phase 1
	// persists it.
	size int64
	// through is the highest pending slot the commit took; the pending
	// slots above it stay staged (prepareCommit).
	through int
}

// prepareCommit is the CPU half of commitSegment: the midupdate repair,
// the choice of slots, key derivation, the already-durable drop, the
// compressed-segment flip and the encode fan-out. A whole commit
// (commitSegment: Sync, Close, a truncate) takes every pending slot; a
// commit the write trigger fired takes those of triggeredSlots. It
// returns nil with a nil error when nothing is left to write. The
// caller must hold seg.mu exclusively.
func (f *file) prepareCommit(ctx context.Context, seg *segment, si int64, whole bool) (*commitIO, error) {
	if len(seg.pending) == 0 {
		// Nothing buffered (e.g. a truncate dropped the pending set);
		// clear the batching counter so its staleness cannot trigger
		// premature one-block commits later.
		seg.liveOverwrites = 0
		return nil, nil
	}
	if err := f.ensureMeta(ctx, seg, si); err != nil {
		return nil, err
	}
	// Refuse to start mutating the in-memory metadata under an
	// already-dead context; after this point cancellation is observed
	// at backend-write boundaries only.
	if err := backend.CtxErr(ctx); err != nil {
		return nil, err
	}
	meta := seg.meta
	// A segment still marked midupdate carries recovery state from an
	// interrupted commit; repair it before reusing the transient slots.
	if meta.MidUpdate() {
		if err := f.recoverSegment(ctx, meta); err != nil {
			return nil, err
		}
	}

	slots := make([]int, 0, len(seg.pending))
	for s := range seg.pending {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	if !whole {
		if slots = f.triggeredSlots(seg, slots); len(slots) == 0 {
			return nil, nil
		}
	}
	through := slots[len(slots)-1]

	// Derive the new convergent keys: one pool task, one BlockHashes
	// call and one KDF pass per group (the hashes lead a raw commit's
	// CPU, Figure 9). The encode below fans out over the same groups.
	newKeys, blocks := make([]cryptoutil.Key, len(slots)), make([][]byte, len(slots))
	for i, s := range slots {
		blocks[i] = seg.pending[s]
	}
	compressing := f.fs.cfg.Compression || meta.Compressed()
	groups := f.fs.commitGroups(len(slots), compressing)
	err := f.fs.pool.run(ctx, groups, func(g int) error {
		lo, hi := commitGroup(g, groups, len(slots), compressing)
		var hs [cryptoutil.HashLanes]cryptoutil.Hash
		if bad, err := f.fs.deriveKeys(newKeys[lo:hi], hs[:], blocks[lo:hi]); err != nil {
			return fmt.Errorf("lamassu: deriving key for segment %d slot %d: %w", si, slots[lo+bad], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A pending block whose stable key already equals its derived key
	// is already durable: convergent keys are one-to-one with content,
	// so the on-disk ciphertext IS this plaintext. Dropping such
	// blocks makes a commit retry after a partially-landed batch
	// converge — recovery promotes the landed blocks to live under
	// exactly these keys, and re-staging them would both waste I/O and
	// overflow the R transient slots (they were fresh when the
	// batching trigger counted them). Identical same-content
	// overwrites get the same free pass.
	kept := 0
	for i, s := range slots {
		if meta.StableKey(s).Equal(newKeys[i]) {
			continue
		}
		slots[kept], newKeys[kept], blocks[kept] = s, newKeys[i], blocks[i]
		kept++
	}
	slots, newKeys, blocks = slots[:kept], newKeys[:kept], blocks[:kept]
	if kept == 0 {
		// Everything was already on disk; nothing to commit. The
		// logical size, if dirty, is persistSize's job.
		f.releasePending(seg, through)
		return nil, nil
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
	c := &commitIO{slots: slots, newKeys: newKeys, lens: make([]int, len(slots)),
		cts: f.fs.slabs.get(len(slots) * bs), size: f.sizeNow(), through: through}
	// The dropped slots shrank the batch, so the groups are recounted.
	groups = f.fs.commitGroups(len(slots), compressing)
	err = f.fs.pool.run(ctx, groups, func(g int) error {
		lo, hi := commitGroup(g, groups, len(slots), compressing)
		if err := f.fs.encode(c.cts[lo*bs:hi*bs], blocks[lo:hi], newKeys[lo:hi], c.lens[lo:hi], meta.Compressed()); err != nil {
			return fmt.Errorf("lamassu: encoding segment %d slots %d-%d: %w", si, slots[lo], slots[hi-1], err)
		}
		return nil
	})
	if err != nil {
		f.fs.slabs.put(c.cts)
		return nil, err
	}
	return c, nil
}

// triggeredSlots is what a commit the write trigger fired takes of the
// segment's sorted pending slots: those up to the last live overwrite
// that completes a group of liveCap, so that landCommit lands them as
// chunks of exactly liveCap live overwrites each — the commits the
// paper's per-block trigger fires, one every R overwrites. The pending
// slots above stay staged, fewer than liveCap live among them. A
// segment whose every slot is pending with fewer than liveCap live
// commits whole. With no group to take it returns nothing and corrects
// seg.liveOverwrites, which counts blocks staged before the metadata
// was loaded as live, to the exact count.
func (f *file) triggeredSlots(seg *segment, slots []int) []int {
	capLive := f.fs.liveCap()
	live, take := 0, 0
	for i, s := range slots {
		if !seg.meta.StableKey(s).IsZero() {
			if live++; live%capLive == 0 {
				take = i + 1
			}
		}
	}
	if take > 0 {
		return slots[:take]
	}
	if len(slots) == f.fs.geo.KeysPerSegment() {
		return slots
	}
	seg.liveOverwrites = live
	return nil
}

// hashGroups is the number of hash groups a fan-out over n blocks hands
// the pool: enough that none holds more than cryptoutil.HashLanes
// blocks, and — while each keeps at least cryptoutil.Lanes — no fewer
// than the pool runs at once, so a small batch stays parallel (its
// groups then fall below BlockHashes' multi-buffer crossover and hash
// block by block). A 16-block group holds its P for about 25 µs.
// Parallelism comes first: the kernel runs only where n/width reaches
// the crossover of 8 blocks a group, so on a pool w wide a batch of
// fewer than 8·w blocks hashes on crypto/sha256 (on the measured
// 2-wide pool, from 16 blocks up; wider pools are unmeasured). Which
// batches reach it: reads of 16 blocks or more, whole-segment appends,
// and overwrites that one write carries two or more groups of R deep
// into a segment (a 1 MiB sequential overwrite's full segment takes
// 112 blocks, 7 groups of 16). A per-block write stream commits one
// group of R = 8 at a time, two groups of 4 on crypto/sha256. A raw
// commit encrypts the same groups, one EncryptBlocksCBC call each.
func (fs *FS) hashGroups(n int) int {
	return max((n+cryptoutil.HashLanes-1)/cryptoutil.HashLanes, min(fs.pool.Width(), (n+cryptoutil.Lanes-1)/cryptoutil.Lanes))
}

// commitGroups is the group count of a commit's derive and encode over
// n slots, and commitGroup the range [lo, hi) of group g: hashGroups',
// or runs of cryptoutil.Lanes slots for a commit that compresses. That
// fork waits on ROADMAP 7(j): next to ~200 µs compression tasks wider
// groups change how two committing streams share the pool, and made
// objstore-seq-z2's fastest commit-triggering write (its write_p50_ms)
// 26 % slower. Once the benchmark reports a typical commit, measure
// again and drop the fork.
func (fs *FS) commitGroups(n int, compressing bool) int {
	if compressing {
		return (n + cryptoutil.Lanes - 1) / cryptoutil.Lanes
	}
	return fs.hashGroups(n)
}

func commitGroup(g, groups, n int, compressing bool) (lo, hi int) {
	if !compressing {
		return hashGroup(g, groups, n)
	}
	return g * cryptoutil.Lanes, min((g+1)*cryptoutil.Lanes, n)
}

// hashGroup is the index range [lo, hi) of group g of groups over n
// blocks; group sizes differ by at most one.
func hashGroup(g, groups, n int) (lo, hi int) {
	return g * n / groups, (g + 1) * n / groups
}

// landCommit is the I/O half of commitSegment: one phase 1–3 commit per
// chunk of at most EffReserved live overwrites, back to back, then the
// release of the committed pending buffers and the size bookkeeping.
// One chunk rule serves raw and compressed segments alike: a chunk
// takes slots in order until the next one would be its EffReserved+1st
// live overwrite. Whatever happens, it returns c's slab. On failure the
// pending blocks stay staged, so a retried commit converges. The caller
// must hold seg.mu exclusively.
func (f *file) landCommit(ctx context.Context, seg *segment, si int64, c *commitIO) error {
	defer f.fs.slabs.put(c.cts)
	meta := seg.meta
	bs := f.fs.geo.BlockSize
	slots := c.slots
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
		if err := f.commitChunk(ctx, seg, si, slots[lo:hi], c.newKeys[lo:hi], c.lens[lo:hi], c.cts[lo*bs:hi*bs], c.size); err != nil {
			return err
		}
		lo = hi
	}

	f.releasePending(seg, c.through)

	// The final metadata block now carries the size this commit
	// observed; only mark the size clean if it has not moved since
	// (a writer may have extended the file while our barriers were in
	// flight).
	f.stateMu.Lock()
	if f.size == c.size && f.isFinalSegmentLocked(si) {
		f.sizeDirty = false
	}
	f.stateMu.Unlock()
	return nil
}

// releasePending recycles the buffers of the segment's pending slots up
// to through — they came from the slab pool (pendingBlock) — once their
// ciphertext is durable, and recounts the live overwrites among the
// slots that stay pending. The metadata is loaded, so the count is
// exact.
func (f *file) releasePending(seg *segment, through int) {
	live := 0
	for s, buf := range seg.pending {
		if s > through {
			if !seg.meta.StableKey(s).IsZero() {
				live++
			}
			continue
		}
		f.fs.slabs.put(buf)
		delete(seg.pending, s)
	}
	seg.liveOverwrites = live
}

// commitChunk runs one complete phase 1–3 commit for a chunk whose live
// overwrites fit the segment's transient capacity. cts holds the
// chunk's pre-encoded ciphertexts, one BlockSize-strided slot each,
// with lens[i] valid payload bytes at the front; the phase-1 barrier
// persists size as the logical size. The caller must hold seg.mu
// exclusively.
func (f *file) commitChunk(ctx context.Context, seg *segment, si int64, slots []int, newKeys []cryptoutil.Key, lens []int, cts []byte, size int64) error {
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
	meta.LogicalSize = uint64(size)
	// The phase-1 write may be the first to reach past another
	// segment's slots; padExtent must not probe the size around it.
	f.extendMu.RLock()
	err := f.fs.writeMeta(ctx, f.bf, f.name, meta)
	f.extendMu.RUnlock()
	if err != nil {
		return fmt.Errorf("lamassu: commit phase 1 (segment %d): %w", si, err)
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
	err = f.writeExtents(ctx, si, slots, lens, cts)
	// Second half of the invalidation bracket around phase 2, on the
	// success and error paths alike.
	if f.fs.cache != nil {
		f.fs.cache.invalidateDataBlocks(f.name, dbis)
	}
	if err != nil {
		return err
	}
	last := len(slots) - 1
	if err := f.padExtent(ctx, si*keysPerSeg+int64(slots[last]), lens[last]); err != nil {
		return fmt.Errorf("lamassu: commit phase 2 (segment %d extent pad): %w", si, err)
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
		return fmt.Errorf("lamassu: commit phase 3 (segment %d): %w", si, err)
	}
	return nil
}

// extent is one planned backend data I/O: blocks [lo, hi) of the
// caller's ascending block list, whose stored payloads are contiguous
// on disk — (hi-lo-1) full slots plus the last block's stored length,
// starting at backing offset off — within one shard stripe.
type extent struct {
	lo, hi int
	off    int64
}

// planExtents partitions blocks 0..n-1 — ascending data-block indices
// block(i), each holding stored(i) payload bytes at the front of its
// fixed slot — into the extents the commit writes and the read path
// fetches. This is the only place the adjacency rule is written: block
// i extends the current extent iff it is the next block on disk in the
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
	var stripe int64
	if f.fs.sharded != nil {
		stripe = f.fs.sharded.StripeBytes()
	}
	exts := make([]extent, 0, 4)
	for i := 0; i < n; i++ {
		b := block(i)
		off := geo.DataBlockOffset(b)
		if i > 0 && b == block(i-1)+1 && geo.SegmentOfBlock(b) == geo.SegmentOfBlock(b-1) &&
			(stripe <= 0 || (off-bs)/stripe == off/stripe) && int64(stored(i-1)) == bs {
			exts[len(exts)-1].hi = i + 1
			continue
		}
		exts = append(exts, extent{lo: i, hi: i + 1, off: off})
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
// store do), each from its own disjoint slice of the slab, on the I/O
// window (runWindowed): every dispatched write runs, and the failure of
// the lowest index wins, deterministically.
func (f *file) writeExtents(ctx context.Context, si int64, slots []int, lens []int, cts []byte) error {
	bs := f.fs.geo.BlockSize
	first := si * int64(f.fs.geo.KeysPerSegment())
	exts := f.planExtents(len(slots),
		func(i int) int64 { return first + int64(slots[i]) },
		func(i int) int { return lens[i] })
	_, err := f.fs.runWindowed(ctx, len(exts), func(e int) error {
		x := exts[e]
		payload := cts[x.lo*bs : (x.hi-1)*bs+lens[x.hi-1]]
		// The window slot brackets the backend call only (see ioWindow's
		// deadlock note).
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
	segs := make([]int64, 0, len(f.dirty))
	for si, seg := range f.dirty {
		if len(seg.pending) > 0 {
			segs = append(segs, si)
		} else {
			delete(f.dirty, si)
		}
	}
	f.stateMu.Unlock()
	slices.Sort(segs)
	for _, si := range segs {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		seg := f.segment(si)
		seg.mu.Lock()
		err := f.commitSegment(ctx, seg, si)
		drained := len(seg.pending) == 0
		seg.mu.Unlock()
		if err != nil {
			return err
		}
		if drained {
			f.stateMu.Lock()
			delete(f.dirty, si)
			f.stateMu.Unlock()
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
		clear(f.dirty)
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
