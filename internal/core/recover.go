package core

import (
	"context"
	"errors"
	"fmt"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
)

// verdict is what the convergent hash check (§2.5) says about the
// bytes in a keyed data slot: which key, if any, owns them. The audit,
// recovery, the pre-rotation audit and the mid-update read all ask
// slotVerdict, and each maps the answer to its own policy.
type verdict uint8

const (
	slotNew     verdict = iota // the stable key decodes and verifies the bytes
	slotOld                    // mid-update: transient key r does, at its old length
	slotHole                   // mid-update: all zero, a pre-update hole whose data never landed
	slotMissing                // the slot lies beyond the physical extent (slotLanded)
	slotBad                    // no key owns the bytes: corruption, or a torn write
	slotUnread                 // the read of the slot's extent failed
)

// slotVerdict classifies keyed slot `slot` of meta by its full-slot
// bytes ct (BlockSize of them), leaving the plaintext of a new or old
// block in plain and returning, for slotOld, the transient slot that
// owns it. Outside a mid-update segment only the stable key may own the
// bytes. Inside one a stable decode failure is not final: the stable
// (key, length) pair describes the NEW block, which may never have
// landed, so each transient key that staged something is tried at its
// own old length (OldLen in a compressed segment; a key without its
// length could not be decoded at all), and a candidate that fails to
// decode is simply not this block's old state.
func (fs *FS) slotVerdict(meta *layout.MetaBlock, slot int, ct, plain []byte) (verdict, int) {
	bs := fs.geo.BlockSize
	key := meta.StableKey(slot)
	var hs [1]cryptoutil.Hash // verifyBlocks' scratch
	if stored := storedBytes(meta, slot, bs); stored > 0 &&
		fs.decodeStored(plain, ct, key, stored) == nil && fs.verifyBlocks([][]byte{plain}, []cryptoutil.Key{key}, hs[:]) < 0 {
		return slotNew, -1
	}
	if !meta.MidUpdate() {
		return slotBad, -1
	}
	for r := 0; r < int(meta.NTransient); r++ {
		old, oldStored := meta.TransientKey(r), bs
		if meta.Compressed() {
			oldStored = meta.OldLen(r) * layout.LenUnit
		}
		if !old.IsZero() && oldStored > 0 &&
			fs.decodeStored(plain, ct, old, oldStored) == nil && fs.verifyBlocks([][]byte{plain}, []cryptoutil.Key{old}, hs[:]) < 0 {
			return slotOld, r
		}
	}
	if allZero(ct) {
		return slotHole, -1
	}
	return slotBad, -1
}

// slotLanded reports whether data block dbi's whole slot lies inside a
// backing file of phys bytes. A keyed slot that does not holds a block
// whose data never reached the store: padExtent extends the file to the
// end of a commit's last slot before phase 3, so a cleanly committed
// segment has none.
func (fs *FS) slotLanded(dbi, phys int64) bool {
	return fs.geo.DataBlockOffset(dbi)+int64(fs.geo.BlockSize) <= phys
}

// keyedSlot is one keyed slot of a segment and its verdict; r is the
// owning transient slot when v is slotOld.
type keyedSlot struct {
	slot int
	v    verdict
	r    int
}

// keyedSlots lists every keyed slot of meta in slot order: what the
// segment walk asks verdicts about.
func (fs *FS) keyedSlots(meta *layout.MetaBlock) []keyedSlot {
	var slots []keyedSlot
	for s := 0; s < fs.geo.KeysPerSegment(); s++ {
		if !meta.StableKey(s).IsZero() {
			slots = append(slots, keyedSlot{slot: s})
		}
	}
	return slots
}

// verdicts judges slots — keyed slots of meta in ascending slot order:
// every one for the segment walk, the ones a read asks about for
// readVerdicts — setting each one's verdict in place. The full slots
// that lie inside the physical extent phys are read as the extents
// planExtents gives when every stored length is BlockSize, so
// neighbours merge and stripe edges split as on every other path: one
// backend read per extent (readExtent), dispatched on the I/O window
// (runWindowed). The slots of an extent whose read failed are
// slotUnread, and the lowest failing extent's error is returned. When
// plains is non-nil, the plaintext of slots[i] is left in its i-th
// BlockSize slot.
func (f *file) verdicts(ctx context.Context, meta *layout.MetaBlock, phys int64, slots []keyedSlot, plains []byte) error {
	geo := f.fs.geo
	bs := geo.BlockSize
	first := int64(meta.SegIndex) * int64(geo.KeysPerSegment())
	var read []int // indices into slots of the slots inside phys
	for i := range slots {
		k := &slots[i]
		k.v, k.r = slotMissing, -1
		if f.fs.slotLanded(first+int64(k.slot), phys) {
			read = append(read, i)
		}
	}
	cts := f.fs.slabs.get(len(read) * bs)
	defer f.fs.slabs.put(cts)
	exts := f.planExtents(len(read),
		func(i int) int64 { return first + int64(slots[read[i]].slot) },
		func(int) int { return bs })
	ok := make([]bool, len(exts))
	_, err := f.fs.runWindowed(ctx, len(exts), func(e int) error {
		x := exts[e]
		if err := f.readExtent(ctx, cts[x.lo*bs:x.hi*bs], x.off); err != nil {
			return fmt.Errorf("lamassu: reading %d slots at block %d: %w",
				x.hi-x.lo, first+int64(slots[read[x.lo]].slot), err)
		}
		ok[e] = true
		return nil
	})

	var scratch []byte
	if plains == nil {
		scratch = f.fs.slabs.get(bs)
		defer f.fs.slabs.put(scratch)
	}
	for e, x := range exts {
		for i := x.lo; i < x.hi; i++ {
			k := &slots[read[i]]
			if !ok[e] {
				k.v = slotUnread
				continue
			}
			plain := scratch
			if plains != nil {
				plain = plains[read[i]*bs : (read[i]+1)*bs]
			}
			k.v, k.r = f.fs.slotVerdict(meta, k.slot, cts[i*bs:(i+1)*bs], plain)
		}
	}
	return err
}

// segWalk is what walkSegments hands each segment's visitor: a handle
// on the backing file (reads through verdicts, writes through
// writeExtents and writeMeta), its physical size and its final segment.
type segWalk struct {
	f          *file
	phys, last int64
}

// walkSegments is the one loop over a file's segments that the audit,
// recovery and both rotations share. It opens name with flag — a pass
// that may write drops the file's cached state on entry and on return —
// and, for a non-empty file, reads each segment's metadata block in
// order, observing ctx before each, and hands it to visit with the read
// error, if any; a cancellation ends the walk.
//
// A rotation passes rot, the FS under its new key pair, and the walk
// applies the two rules every rotation keeps: a segment whose metadata
// no longer opens under the old outer key but opens under rot's was
// sealed by an earlier, interrupted pass and is skipped, so a rotation
// is resumable between segments; and a midupdate segment is refused,
// since its transient keys would not survive the reseal.
func (fs *FS) walkSegments(ctx context.Context, name string, flag backend.OpenFlag, rot *FS,
	visit func(w *segWalk, seg int64, meta *layout.MetaBlock, err error) error) error {
	bf, err := backend.OpenCtx(ctx, fs.store, name, flag)
	if err != nil {
		return mapErr(err)
	}
	defer bf.Close()
	if flag != backend.OpenRead {
		fs.cache.invalidateFile(name)
		defer fs.cache.invalidateFile(name)
	}
	phys, err := bf.Size()
	if err != nil || phys == 0 {
		return err
	}
	w := &segWalk{f: &file{fs: fs, bf: bf, name: name}, phys: phys, last: fs.lastSegment(phys)}
	for seg := int64(0); seg <= w.last; seg++ {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		meta, err := fs.readMeta(ctx, bf, seg)
		if errors.Is(err, ErrCanceled) {
			return err
		}
		if rot != nil {
			if err != nil {
				if _, rerr := rot.readMeta(ctx, bf, seg); rerr == nil {
					continue
				}
				return fmt.Errorf("lamassu: rekey segment %d: %w", seg, err)
			}
			if meta.MidUpdate() {
				return fmt.Errorf("%w: segment %d is midupdate; run recovery before rekeying", ErrUnrecoverable, seg)
			}
		}
		if err := visit(w, seg, meta, err); err != nil {
			return err
		}
	}
	return nil
}

// recoverSegment repairs a segment whose metadata block is marked
// midupdate — an interrupted multiphase commit (§2.4). Every keyed
// slot's verdict decides which key owns the block:
//
//   - slotNew: the new data write landed (or the block was not part of
//     the commit); nothing to do.
//   - slotOld: the block still holds its previous contents, and the
//     stable slot is repaired to the transient key (and, compressed,
//     its old length) that decodes them.
//   - slotHole, slotMissing: a pre-update hole whose new data never
//     reached the store; the slot reverts to the zero-key hole.
//   - slotBad: unrecoverable (for example a torn sub-block write, which
//     the paper's model explicitly does not defend against); recovery
//     stops with ErrUnrecoverable, changes nothing, and leaves the
//     segment marked midupdate so the damage stays detectable.
//
// The paper attaches block numbers to the transient keys to locate the
// blocks a commit touched; this implementation keeps the published
// key-table arithmetic (K = TotalSlots − R) and lets the hash check
// locate them instead. The two are equivalent because a convergent key
// is derived from the hash of its plaintext: bytes decode and verify
// under a key only if they are that key's block, up to a SHA-256
// collision. A block
// the commit did not touch, or whose new data landed, therefore
// verifies under its stable key, and a block whose write never landed
// verifies under exactly the transient key its block number would have
// named — two transient keys that both verify are the same key, holding
// the same bytes. A block number would tell recovery nothing the check
// does not, and would cost key-table space.
//
// On success the metadata block is rewritten with the flag cleared.
// ctx is observed by the reads and the final write. A canceled repair
// changes no on-disk state (the only write is that final rewrite), so
// it can simply be retried.
func (f *file) recoverSegment(ctx context.Context, meta *layout.MetaBlock) error {
	if !meta.MidUpdate() {
		return nil
	}
	phys, err := f.bf.Size()
	if err != nil {
		return err
	}
	slots := f.fs.keyedSlots(meta)
	if err := f.verdicts(ctx, meta, phys, slots, nil); err != nil {
		return fmt.Errorf("lamassu: recovering segment %d: %w", meta.SegIndex, err)
	}
	for _, k := range slots {
		if k.v == slotBad {
			dbi := int64(meta.SegIndex)*int64(f.fs.geo.KeysPerSegment()) + int64(k.slot)
			return fmt.Errorf("%w: segment %d block %d matches no key", ErrUnrecoverable, meta.SegIndex, dbi)
		}
	}
	for _, k := range slots {
		switch k.v {
		case slotOld:
			meta.SetStableKey(k.slot, meta.TransientKey(k.r))
			if meta.Compressed() {
				meta.SetStoredLen(k.slot, uint8(meta.OldLen(k.r)))
			}
		case slotHole, slotMissing:
			meta.SetStableKey(k.slot, cryptoutil.Key{})
			if meta.Compressed() {
				meta.SetStoredLen(k.slot, 0)
			}
		}
	}

	meta.SetMidUpdate(false)
	meta.ClearTransient()
	if err := f.fs.writeMeta(ctx, f.bf, f.name, meta); err != nil {
		// The cleared marker never reached the store; keep the
		// in-memory view in agreement so a retry repeats the repair.
		meta.SetMidUpdate(true)
		return err
	}
	return nil
}

// RecoverStats summarizes a recovery pass over one file.
type RecoverStats struct {
	// Segments is the number of segments examined.
	Segments int64
	// Repaired is the number of segments that were found midupdate
	// and successfully repaired.
	Repaired int64
}

// Recover scans every segment of the named file and repairs any that
// were left midupdate by a crash. It is the programmatic form of the
// fsck tool's repair pass and must be run on an otherwise-idle file.
func (fs *FS) Recover(name string) (RecoverStats, error) { return fs.RecoverCtx(nil, name) }

// RecoverCtx is Recover observing ctx between segments (and between
// the reads within a repair). A canceled pass has repaired a prefix of
// the segments; rerunning it is safe and resumes where the damage
// remains.
func (fs *FS) RecoverCtx(ctx context.Context, name string) (RecoverStats, error) {
	var stats RecoverStats
	err := fs.walkSegments(ctx, name, backend.OpenWrite, nil, func(w *segWalk, seg int64, meta *layout.MetaBlock, err error) error {
		if err != nil {
			return fmt.Errorf("lamassu: recover segment %d: %w", seg, err)
		}
		stats.Segments++
		if !meta.MidUpdate() {
			return nil
		}
		if err := w.f.recoverSegment(ctx, meta); err != nil {
			return err
		}
		stats.Repaired++
		return nil
	})
	return stats, err
}

// CheckReport summarizes an integrity audit of one file.
type CheckReport struct {
	// Segments and DataBlocks are the totals examined.
	Segments   int64
	DataBlocks int64
	// MidUpdate counts segments still carrying the midupdate flag
	// (crash damage awaiting recovery).
	MidUpdate int64
	// BadMeta counts metadata blocks failing GCM authentication.
	BadMeta int64
	// BadData counts data blocks failing the convergent hash check.
	BadData int64
	// LogicalSize is the authoritative size read from the final
	// metadata block.
	LogicalSize int64
}

// Clean reports whether the audit found no damage.
func (r CheckReport) Clean() bool {
	return r.MidUpdate == 0 && r.BadMeta == 0 && r.BadData == 0
}

// Check audits the named file without modifying it: every metadata
// block's GCM tag is verified, and every data block is verified
// against its stored convergent key (the §2.5 mechanism). Blocks in
// midupdate segments are verified against both stable and transient
// keys.
func (fs *FS) Check(name string) (CheckReport, error) { return fs.CheckCtx(nil, name) }

// CheckCtx is Check observing ctx between segments and reads; the
// audit mutates nothing, so a canceled pass is simply incomplete.
func (fs *FS) CheckCtx(ctx context.Context, name string) (CheckReport, error) {
	var rep CheckReport
	err := fs.walkSegments(ctx, name, backend.OpenRead, nil, func(w *segWalk, seg int64, meta *layout.MetaBlock, err error) error {
		rep.Segments++
		if err != nil {
			rep.BadMeta++
			return nil
		}
		if seg == w.last {
			// The final metadata block carries the size.
			rep.LogicalSize = int64(meta.LogicalSize)
		}
		if meta.MidUpdate() {
			rep.MidUpdate++
		}
		slots := fs.keyedSlots(meta)
		if err := w.f.verdicts(ctx, meta, w.phys, slots, nil); errors.Is(err, ErrCanceled) {
			return err
		}
		for _, k := range slots {
			switch k.v {
			case slotMissing:
				if !meta.MidUpdate() {
					rep.BadData++ // keyed block with no data at all
				}
			case slotUnread:
				rep.BadData++
			case slotBad:
				rep.DataBlocks++
				rep.BadData++
			default:
				rep.DataBlocks++
			}
		}
		return nil
	})
	return rep, err
}

// IsUnrecoverable reports whether err indicates crash damage that
// recovery cannot repair.
func IsUnrecoverable(err error) bool { return errors.Is(err, ErrUnrecoverable) }
