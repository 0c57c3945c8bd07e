package core

import (
	"context"
	"errors"
	"fmt"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
)

// Key rotation (§2.2). The paper's prototype did not implement
// re-keying but lays out the design this file follows:
//
//   - Partial re-key (RekeyOuter): "it is possible to perform a less
//     secure, but much faster partial re-keying of Lamassu data by
//     changing the outer key, but not the inner key. In that case,
//     only the metadata blocks in each file would need to be re-keyed,
//     rather than entire files." One metadata block per segment is
//     re-sealed; data blocks are untouched, so the cost is roughly
//     1/K of a full rewrite (≈0.85 % of the file at R=8).
//
//   - Full re-key (RekeyFull): changing the inner key changes every
//     convergent key, so every data block must be decrypted under the
//     old keys and re-encrypted under keys derived with the new inner
//     key. This also moves the file to a different deduplication
//     isolation zone.

// RekeyStats summarizes a rotation pass over one file.
type RekeyStats struct {
	// MetaBlocks is the number of metadata blocks re-sealed.
	MetaBlocks int64
	// DataBlocks is the number of data blocks re-encrypted (zero for
	// a partial re-key).
	DataBlocks int64
}

// RekeyOuter re-seals every metadata block of the named file under
// newOuter, leaving data blocks (and the deduplication domain)
// untouched. The file must be idle. On success, subsequent opens must
// use a Config carrying newOuter.
func (fs *FS) RekeyOuter(name string, newOuter cryptoutil.Key) (RekeyStats, error) {
	return fs.RekeyOuterCtx(nil, name, newOuter)
}

// RekeyOuterCtx is RekeyOuter observing ctx between segments. A
// canceled pass has re-sealed a prefix of the metadata blocks; rerun
// it (from the same FS, still configured with the OLD outer key) to
// finish — segments that already decode under newOuter are detected
// and skipped, so the rotation is resumable. Only discard the old key
// once a pass completes without error.
func (fs *FS) RekeyOuterCtx(ctx context.Context, name string, newOuter cryptoutil.Key) (RekeyStats, error) {
	if newOuter.IsZero() {
		return RekeyStats{}, errors.New("lamassu: new outer key must be set")
	}
	var stats RekeyStats
	rot := fs.rotated(fs.cfg.Inner, newOuter)
	err := fs.walkSegments(ctx, name, backend.OpenWrite, rot, func(w *segWalk, _ int64, meta *layout.MetaBlock, _ error) error {
		if err := rot.writeMeta(ctx, w.f.bf, name, meta); err != nil {
			return err
		}
		stats.MetaBlocks++
		return nil
	})
	return stats, err
}

// RekeyFull re-encrypts the named file under a new (inner, outer) key
// pair: every data block is decrypted with its old convergent key,
// re-keyed under newInner, re-encrypted, and every metadata block is
// re-sealed under newOuter. The file must be idle. The rewrite goes
// segment at a time — a segment's keyed slots are read and audited,
// its data blocks rewritten in place as the planned extents, then its
// metadata block is resealed — and is resumable at segment boundaries:
// after an interruption BETWEEN segments the file holds segments under
// both key pairs, and rerunning with the old pair still at hand
// finishes the job. It does NOT use the multiphase commit of normal
// writes: there is no phase-1 barrier, so a crash INSIDE a segment's
// writes leaves data blocks under new keys the old metadata does not
// describe, which recovery cannot repair (ROADMAP item 8(a) records
// the hole). Back the file up, or rotate a copy, when that matters.
//
// An FS with an external Config.KeyDeriver refuses it before any
// write: its convergent keys come from the deriver, not from the inner
// key, so re-keying under newInner's local KDF would leave blocks its
// reads can no longer verify. Rotate such a file's outer key with
// RekeyOuter.
func (fs *FS) RekeyFull(name string, newInner, newOuter cryptoutil.Key) (RekeyStats, error) {
	return fs.RekeyFullCtx(nil, name, newInner, newOuter)
}

// RekeyFullCtx is RekeyFull observing ctx between segments and in a
// segment's reads, never once its writes have begun (a segment that
// has started rewriting runs to its metadata reseal), so a canceled
// pass leaves a file whose segments are split between the two key
// pairs — the resumable state described above; retain both pairs and
// rerun to finish.
func (fs *FS) RekeyFullCtx(ctx context.Context, name string, newInner, newOuter cryptoutil.Key) (RekeyStats, error) {
	if newInner.IsZero() || newOuter.IsZero() {
		return RekeyStats{}, errors.New("lamassu: new keys must be set")
	}
	if newInner.Equal(newOuter) {
		return RekeyStats{}, errors.New("lamassu: inner and outer keys must differ")
	}
	if fs.cfg.KeyDeriver != nil {
		return RekeyStats{}, errors.New("lamassu: full rekey is not possible with an external key deriver, " +
			"whose keys do not come from the inner key; rotate the outer key with RekeyOuter")
	}
	geo := fs.geo
	bs := geo.BlockSize
	comp := fs.cfg.Compression
	rot := fs.rotated(newInner, newOuter)
	plains := fs.slabs.get(geo.KeysPerSegment() * bs)
	defer fs.slabs.put(plains)
	var stats RekeyStats
	err := fs.walkSegments(ctx, name, backend.OpenWrite, rot, func(w *segWalk, seg int64, meta *layout.MetaBlock, _ error) error {
		// The pre-rotation audit: every keyed block must verify under
		// its old key before anything is rewritten.
		slots := fs.keyedSlots(meta)
		if err := w.f.verdicts(ctx, meta, w.phys, slots, plains); err != nil {
			return err
		}
		n := len(slots)
		idx, blocks := make([]int, n), make([][]byte, n)
		for i, k := range slots {
			dbi := seg*int64(geo.KeysPerSegment()) + int64(k.slot)
			switch k.v {
			case slotNew:
			case slotMissing:
				return fmt.Errorf("lamassu: rekey: keyed block %d beyond backing extent", dbi)
			default:
				return fmt.Errorf("%w: block %d (pre-rotation audit)", ErrIntegrity, dbi)
			}
			idx[i], blocks[i] = k.slot, plains[i*bs:(i+1)*bs]
		}

		// The rotated segment is written in the rotating FS's own mode:
		// a compression-enabled FS re-encodes every block (including
		// segments that were raw), a compression-off FS rewrites the
		// file raw even if it was compressed — the rewrite touches
		// every data byte anyway, so the mode change is free.
		keys, lens := make([]cryptoutil.Key, n), make([]int, n)
		cts := fs.slabs.get(n * bs)
		defer fs.slabs.put(cts)
		groups := fs.hashGroups(n)
		err := fs.pool.run(nil, groups, func(g int) error {
			lo, hi := hashGroup(g, groups, n)
			var hs [cryptoutil.HashLanes]cryptoutil.Hash
			if _, err := rot.deriveKeys(keys[lo:hi], hs[:], blocks[lo:hi]); err != nil {
				return err
			}
			return rot.encode(cts[lo*bs:hi*bs], blocks[lo:hi], keys[lo:hi], lens[lo:hi], comp)
		})
		if err != nil {
			return err
		}
		newMeta := layout.NewMetaBlock(geo, uint64(seg))
		newMeta.LogicalSize = meta.LogicalSize
		if comp {
			newMeta.InitCompressed()
		}
		for i, s := range idx {
			newMeta.SetStableKey(s, keys[i])
			if comp {
				newMeta.SetStoredLen(s, uint8(lens[i]/layout.LenUnit))
			}
		}

		// From the first write on, the segment runs to its reseal
		// without ctx: a canceled pass stays segment-atomic.
		if err := w.f.writeExtents(nil, seg, idx, lens, cts); err != nil {
			return err
		}
		if err := rot.writeMeta(nil, w.f.bf, name, newMeta); err != nil {
			return err
		}
		stats.DataBlocks += int64(n)
		stats.MetaBlocks++
		return nil
	})
	return stats, err
}

// rotated is fs under a new key pair: what a rotation derives, encodes
// and seals with, its own KDF and GCM built for the new keys. It shares
// fs's geometry, integrity mode, compression setting, recorder and
// slabs, and has no pool, cache or I/O window of its own; the walk
// reads and writes through fs's.
func (fs *FS) rotated(inner, outer cryptoutil.Key) *FS {
	cfg := fs.cfg
	cfg.Inner, cfg.Outer, cfg.KeyDeriver = inner, outer, nil
	return &FS{store: fs.store, geo: fs.geo, cfg: cfg, ced: cryptoutil.NewCEKeyDeriver(inner),
		sealer: cryptoutil.NewMetaSealer(outer), slabs: fs.slabs}
}
