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
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenWrite)
	if err != nil {
		return RekeyStats{}, mapErr(err)
	}
	defer bf.Close()
	// Re-sealing rewrites every metadata block; cached decodes of them
	// must not survive (dropped again on return so nothing re-cached
	// mid-pass lingers either).
	fs.cache.invalidateFile(name)
	defer fs.cache.invalidateFile(name)

	var stats RekeyStats
	phys, err := bf.Size()
	if err != nil {
		return stats, err
	}
	if phys == 0 {
		return stats, nil
	}
	buf := make([]byte, fs.geo.BlockSize)
	lastSeg := fs.lastSegment(phys)
	for seg := int64(0); seg <= lastSeg; seg++ {
		if err := backend.CtxErr(ctx); err != nil {
			return stats, err
		}
		meta, err := fs.readMeta(ctx, bf, seg)
		if err != nil {
			if errors.Is(err, ErrCanceled) {
				return stats, err
			}
			// Resumption after an interrupted pass: a segment that no
			// longer decodes under the old key may already be sealed
			// under the new one; verify and skip it rather than fail.
			if rerr := backend.ReadFullCtx(ctx, bf, buf, fs.geo.MetaBlockOffset(seg)); rerr == nil {
				if _, derr := layout.DecodeMetaBlock(fs.geo, buf, newOuter, uint64(seg)); derr == nil {
					continue
				}
			}
			return stats, fmt.Errorf("lamassu: rekey segment %d: %w", seg, err)
		}
		if meta.MidUpdate() {
			return stats, fmt.Errorf("%w: segment %d is midupdate; run recovery before rekeying", ErrUnrecoverable, seg)
		}
		if err := meta.Encode(buf, newOuter); err != nil {
			return stats, err
		}
		if _, err := backend.WriteAtCtx(ctx, bf, buf, fs.geo.MetaBlockOffset(seg)); err != nil {
			return stats, err
		}
		stats.MetaBlocks++
	}
	return stats, nil
}

// RekeyFull re-encrypts the named file under a new (inner, outer) key
// pair: every data block is decrypted with its old convergent key,
// re-keyed under newInner, re-encrypted, and every metadata block is
// re-sealed under newOuter. The file must be idle. The rewrite goes
// segment at a time — a segment's data blocks are rewritten in place,
// then its metadata block is resealed — and is resumable at segment
// boundaries: after an interruption BETWEEN segments the file holds
// segments under both key pairs, and rerunning with the old pair still
// at hand finishes the job. It does NOT use the multiphase commit of
// normal writes: there is no phase-1 barrier, so a crash INSIDE a
// segment leaves data blocks under new keys the old metadata does not
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

// RekeyFullCtx is RekeyFull observing ctx between segments only (a
// segment that has started rotating runs to its metadata reseal), so a
// canceled pass leaves a file whose segments are split between the two
// key pairs — the resumable state described above; retain both pairs
// and rerun to finish.
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
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenWrite)
	if err != nil {
		return RekeyStats{}, mapErr(err)
	}
	defer bf.Close()
	// Full rotation rewrites every block of the file; drop all cached
	// state for it on entry and again on return.
	fs.cache.invalidateFile(name)
	defer fs.cache.invalidateFile(name)

	var stats RekeyStats
	phys, err := bf.Size()
	if err != nil {
		return stats, err
	}
	if phys == 0 {
		return stats, nil
	}

	geo := fs.geo
	newFS := &FS{store: fs.store, geo: geo, cfg: Config{
		Geometry:    geo,
		Inner:       newInner,
		Outer:       newOuter,
		Integrity:   fs.cfg.Integrity,
		Recorder:    fs.cfg.Recorder,
		Compression: fs.cfg.Compression,
	},
		ced:   cryptoutil.NewCEKeyDeriver(newInner),
		slabs: fs.slabs,
	}

	ct := make([]byte, geo.BlockSize)
	plain := make([]byte, geo.BlockSize)
	metaBuf := make([]byte, geo.BlockSize)
	keysPerSeg := int64(geo.KeysPerSegment())
	lastSeg := fs.lastSegment(phys)
	for seg := int64(0); seg <= lastSeg; seg++ {
		// Cancellation is observed BETWEEN segments only: a segment's
		// data rewrite must land together with its metadata reseal, so
		// once a segment starts rotating it runs to completion and a
		// canceled pass is always segment-atomic (and resumable below).
		if err := backend.CtxErr(ctx); err != nil {
			return stats, err
		}
		meta, err := fs.readMeta(nil, bf, seg)
		if err != nil {
			// Resumption: a segment sealed under the new outer key was
			// fully rotated by an earlier (interrupted) pass; skip it.
			if rerr := backend.ReadFull(bf, metaBuf, geo.MetaBlockOffset(seg)); rerr == nil {
				if _, derr := layout.DecodeMetaBlock(geo, metaBuf, newOuter, uint64(seg)); derr == nil {
					continue
				}
			}
			return stats, fmt.Errorf("lamassu: rekey segment %d: %w", seg, err)
		}
		if meta.MidUpdate() {
			return stats, fmt.Errorf("%w: segment %d is midupdate; run recovery before rekeying", ErrUnrecoverable, seg)
		}
		// The rotated segment is written in the rotating FS's own mode:
		// a compression-enabled FS re-encodes every block (including
		// segments that were raw), a compression-off FS rewrites the
		// file raw even if it was compressed — the rewrite touches
		// every data byte anyway, so the mode change is free.
		newMeta := layout.NewMetaBlock(geo, uint64(seg))
		newMeta.LogicalSize = meta.LogicalSize
		if fs.cfg.Compression {
			newMeta.InitCompressed()
		}
		for slot := 0; slot < geo.KeysPerSegment(); slot++ {
			oldKey := meta.StableKey(slot)
			if oldKey.IsZero() {
				continue
			}
			dbi := seg*keysPerSeg + int64(slot)
			off := geo.DataBlockOffset(dbi)
			if off+int64(geo.BlockSize) > phys {
				return stats, fmt.Errorf("lamassu: rekey: keyed block %d beyond backing extent", dbi)
			}
			if err := backend.ReadFull(bf, ct, off); err != nil {
				return stats, err
			}
			stored := storedBytes(meta, slot, geo.BlockSize)
			if stored <= 0 {
				return stats, fmt.Errorf("%w: block %d: keyed slot with zero stored length", ErrIntegrity, dbi)
			}
			if err := fs.decodeStored(plain, ct, oldKey, stored); err != nil {
				return stats, err
			}
			if !fs.verifyBlock(plain, oldKey) {
				return stats, fmt.Errorf("%w: block %d (pre-rotation audit)", ErrIntegrity, dbi)
			}
			newKey, err := newFS.deriveKey(plain)
			if err != nil {
				return stats, err
			}
			var n [1]int
			if err := newFS.encode(ct, [][]byte{plain}, []cryptoutil.Key{newKey}, n[:], fs.cfg.Compression); err != nil {
				return stats, err
			}
			if _, err := bf.WriteAt(ct[:n[0]], off); err != nil {
				return stats, err
			}
			if fs.cfg.Compression {
				newMeta.SetStoredLen(slot, uint8(n[0]/layout.LenUnit))
			}
			newMeta.SetStableKey(slot, newKey)
			stats.DataBlocks++
		}
		if err := newMeta.Encode(metaBuf, newOuter); err != nil {
			return stats, err
		}
		if _, err := bf.WriteAt(metaBuf, geo.MetaBlockOffset(seg)); err != nil {
			return stats, err
		}
		stats.MetaBlocks++
	}
	return stats, nil
}
