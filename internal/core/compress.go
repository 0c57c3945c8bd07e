package core

import (
	"context"

	"lamassu/internal/backend"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
)

// Compression is not a second engine: it is a shorter payload in the
// same pipeline (see commitSegment). The on-disk addressing is
// untouched: every block still owns its fixed BlockSize slot at
// DataBlockOffset(dbi). Compression only shrinks the *payload* written
// into (and read out of) that slot — a compressed block occupies a
// prefix of its slot, its length recorded in the sealed metadata's
// length table in layout.LenUnit granules. Incompressible blocks escape
// to raw and are stored verbatim, full-slot, exactly as before; they
// never cost more bytes than a raw segment. This file holds the two
// places the short payload shows: the stored-extent lookup and the
// physical-extent pad.

// storedBytes returns the on-disk payload extent of a stable slot's
// block: the full block for a raw segment, length-table driven for a
// compressed one.
func storedBytes(meta *layout.MetaBlock, slot, bs int) int {
	if !meta.Compressed() {
		return bs
	}
	return meta.StoredLen(slot) * layout.LenUnit
}

// padExtent runs after phase 2 for the batch's last block dbi, stored
// in stored bytes. A raw full-slot write of that block would have
// extended the backing file to the end of its slot; a short stored
// payload does not. Pad the physical extent up to the slot boundary so
// the fixed-slot addressing — and every phys-bound guard in recovery,
// audit and rekey — holds identically with compression. Ordering
// matters: the pad lands before the phase-3 barrier, so a cleanly
// committed segment never has a keyed slot beyond the physical extent.
func (f *file) padExtent(ctx context.Context, dbi int64, stored int) error {
	bs := f.fs.geo.BlockSize
	if stored == bs {
		return nil
	}
	end := f.fs.geo.DataBlockOffset(dbi) + int64(bs)
	phys, err := f.bf.Size()
	if err != nil || phys >= end {
		return err
	}
	t := f.fs.cfg.Recorder.Start()
	err = backend.TruncateCtx(ctx, f.bf, end)
	f.fs.cfg.Recorder.Stop(metrics.IO, t)
	return err
}
