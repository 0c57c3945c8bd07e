package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"lamassu/internal/backend"
)

// RebalanceStats summarizes one relocation pass: a RunMover run, and so
// equally a Rebalance, which is nothing more than one.
type RebalanceStats struct {
	// Files is the number of files examined.
	Files int
	// MovedFiles counts files that had at least one byte migrated.
	MovedFiles int
	// MovedStripes counts stripe (or whole-file) moves performed.
	MovedStripes int64
	// MovedBytes totals the payload bytes copied between stores.
	MovedBytes int64
	// RemovedCopies counts stale per-shard file copies deleted.
	RemovedCopies int
}

// Rebalance migrates a sharded deployment from one placement to
// another and waits for it: it opens the migration on from
// (BeginMigration towards to's store list) and runs the mover to the
// epoch commit — the same engine, locks and layout record as a live
// Mount's online rebalance, so there is one relocation routine to
// reason about. Both views must share the stripe unit, replication
// factor and vnode count, and to's store list must extend from's
// (grow by appending shards) or be a prefix of it (shrink by removing
// a suffix); anything else is rejected before a byte moves.
//
// Consistent hashing keeps the work proportional to the placement
// delta: only keys whose owning store actually changed are touched —
// growing N stores to N+1 moves about 1/(N+1) of the keys, all of
// them onto the new store. Identical placements move nothing.
//
// On success from itself has moved to the new placement, and the
// deployment carries a stable layout record one epoch on: opening it
// with the old store list afterwards is refused. Rebalance is
// idempotent — rerunning after a crash or cancellation midway resumes
// the persisted migration and converges.
func Rebalance(from, to *Store) (RebalanceStats, error) { return RebalanceCtx(nil, from, to) }

// RebalanceCtx is Rebalance honoring ctx between key copies: a
// cancellation returns ErrCanceled with the migration cut at a copy
// boundary and still active — every byte readable through from's dual
// rings — and rerunning with a live context converges, on the same
// Store objects or on fresh ones over the same stores.
func RebalanceCtx(ctx context.Context, from, to *Store) (RebalanceStats, error) {
	var st RebalanceStats
	ft, tt := from.topo.Load(), to.topo.Load()
	if tt.mig != nil {
		return st, errors.New("shard: rebalance target view has an active migration")
	}
	if ft.lay.StripeBytes() != tt.lay.StripeBytes() {
		return st, fmt.Errorf("shard: rebalance stripe mismatch: %d vs %d",
			ft.lay.StripeBytes(), tt.lay.StripeBytes())
	}
	if ft.lay.Replicas() != tt.lay.Replicas() {
		return st, fmt.Errorf("shard: rebalance replication mismatch: %d-way vs %d-way",
			ft.lay.Replicas(), tt.lay.Replicas())
	}
	if ft.lay.Vnodes() != tt.lay.Vnodes() {
		return st, fmt.Errorf("shard: rebalance vnode mismatch: %d vs %d; %s under one vnode count",
			ft.lay.Vnodes(), tt.lay.Vnodes(), prefixRule)
	}
	if ft.mig == nil {
		// Pick up the persisted epoch (and refuse a stale store list)
		// exactly as a mount would; a Store already mid-migration in
		// this process carries newer state than its record.
		if err := from.AdoptLayout(ctx); err != nil {
			return st, err
		}
		if ft = from.topo.Load(); ft.mig == nil && slices.Equal(ft.stores, tt.stores) {
			return st, nil
		}
	}
	if err := from.BeginMigration(ctx, tt.stores, MigrateHooks{}); err != nil {
		return st, err
	}
	return from.RunMover(ctx)
}

// copyRange copies name's bytes [lo, hi) from src to dst at the same
// offsets, wiping the destination range first so stale bytes from an
// earlier placement epoch cannot shine through where the source file
// is shorter than the range (a hole).
//
// A source store without the file at all is left alone ENTIRELY — no
// wipe: that state means either the stripe was never written (then
// nonzero stale bytes on dst are impossible, because writing the
// stripe would have materialized the source copy) or an interrupted
// earlier pass already moved the data to dst and removed the source
// copy, in which case wiping would destroy the only copy. Returns the
// number of payload bytes copied.
func copyRange(src, dst backend.Store, name string, lo, hi int64) (int64, error) {
	in, err := src.Open(name, backend.OpenRead)
	if errors.Is(err, backend.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer in.Close()

	out, err := dst.Open(name, backend.OpenCreate)
	if err != nil {
		return 0, err
	}
	defer out.Close()

	// Wipe [lo, min(hi, dstSize)) so holes stay holes.
	dstSize, err := out.Size()
	if err != nil {
		return 0, err
	}
	if wipeHi := min(hi, dstSize); wipeHi > lo {
		zeros := make([]byte, wipeHi-lo)
		if _, err := out.WriteAt(zeros, lo); err != nil {
			return 0, err
		}
	}
	srcSize, err := in.Size()
	if err != nil {
		return 0, err
	}
	end := min(hi, srcSize)
	if end <= lo {
		return 0, nil
	}
	buf := make([]byte, end-lo)
	if err := backend.ReadFull(in, buf, lo); err != nil {
		return 0, err
	}
	if _, err := out.WriteAt(buf, lo); err != nil {
		return 0, err
	}
	if err := out.Sync(); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// copyNamed replaces dst's dstName with src's srcName, streaming in
// bounded chunks so multi-gigabyte backing files never load into
// memory whole. Truncating the destination to the source size first
// discards any stale longer content.
func copyNamed(src backend.Store, srcName string, dst backend.Store, dstName string) (int64, error) {
	in, err := src.Open(srcName, backend.OpenRead)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	size, err := in.Size()
	if err != nil {
		return 0, err
	}
	out, err := dst.Open(dstName, backend.OpenCreate)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	if err := out.Truncate(size); err != nil {
		return 0, err
	}
	buf := make([]byte, 1<<20)
	var off int64
	for off < size {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		if err := backend.ReadFull(in, buf[:n], off); err != nil {
			return off, err
		}
		if _, err := out.WriteAt(buf[:n], off); err != nil {
			return off, err
		}
		off += n
	}
	return size, out.Sync()
}

// storeHas reports whether s holds a copy of name.
func storeHas(s backend.Store, name string) (bool, error) {
	if _, err := s.Stat(name); err != nil {
		if errors.Is(err, backend.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// ensureExists creates name on s if absent, without touching content.
func ensureExists(s backend.Store, name string) error {
	if _, err := s.Stat(name); err == nil {
		return nil
	} else if !errors.Is(err, backend.ErrNotExist) {
		return err
	}
	f, err := s.Open(name, backend.OpenCreate)
	if err != nil {
		return err
	}
	return f.Close()
}

// extendTo grows name on s to at least size bytes (zero-filled).
func extendTo(s backend.Store, name string, size int64) error {
	f, err := s.Open(name, backend.OpenCreate)
	if err != nil {
		return err
	}
	defer f.Close()
	cur, err := f.Size()
	if err != nil {
		return err
	}
	if cur >= size {
		return nil
	}
	return f.Truncate(size)
}
