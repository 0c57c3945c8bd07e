package shard

import (
	"context"
	"fmt"

	"lamassu/internal/backend"
	"lamassu/internal/shard/layout"
)

// TopologyError reports a persisted layout record that cannot be
// served by the configuration the deployment was opened with: the
// record needs more shard slots than stores were mounted, or declares
// a different replication factor than configured. It is a distinct
// type so openers can tell "valid deployment, wrong topology handed to
// it" from I/O failures — and so the mismatch surfaces as a clear
// error instead of an out-of-range slot index downstream.
type TopologyError struct {
	// RecordShards is the slot count the record requires; Mounted the
	// number of stores the deployment was opened with. Both 0 when the
	// mismatch is the replication factor.
	RecordShards int
	Mounted      int
	// RecordReplicas / Replicas report a replication-factor mismatch
	// (both 0 when the mismatch is the shard count).
	RecordReplicas int
	Replicas       int
}

func (e *TopologyError) Error() string {
	if e.RecordReplicas != 0 || e.Replicas != 0 {
		return fmt.Sprintf("shard: layout record declares %d-way replication, store configured for %d-way; the factor is part of the deployment's on-disk identity",
			e.RecordReplicas, e.Replicas)
	}
	return fmt.Sprintf("shard: layout record needs %d shard slots, only %d stores mounted",
		e.RecordShards, e.Mounted)
}

// AdoptLayout aligns the store with the layout records persisted on
// its shards, if any. It is the reopen half of the epoch subsystem:
//
//   - No records (a deployment that never rebalanced online): the
//     store stays at implicit epoch 0.
//   - Stable record: the parameters must match the configured store
//     list; the epoch number is adopted.
//   - Reaping record (a crash between the epoch commit and the end of
//     stale-copy removal): the reap is finished and the record settles
//     to stable.
//   - Migrating record: with the full (union) store list the store
//     reopens in dual-ring mode — every byte readable immediately, the
//     migration resumable via RunMover. With only the previous epoch's
//     store list (a grow abandoned after a crash) the store reopens as
//     that epoch; the half-built copies on the new shards are re-copied
//     if the migration is ever rerun.
//
// Records written by one deployment can diverge across shards after a
// crash mid-fanout; the most advanced record wins (Record.Newer),
// because every phase finishes its data work before fanning out the
// next record. A stale store list never adopts: the record's shard and
// vnode counts must match the configured ones (TopologyError when too
// few stores were mounted).
func (s *Store) AdoptLayout(ctx context.Context) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	t := s.topo.Load()
	if t.mig != nil {
		return fmt.Errorf("shard: AdoptLayout with a migration already active")
	}
	var (
		best  layout.Record
		found bool
	)
	for _, u := range t.uniq {
		rec, ok, err := layout.ReadRecord(ctx, u.store)
		if err != nil {
			return fmt.Errorf("shard: reading layout record: %w", err)
		}
		if ok && (!found || rec.Newer(best)) {
			best, found = rec, true
		}
	}
	if !found {
		// A replicated deployment that never migrated has no record,
		// which would let a later single-copy open adopt it silently
		// and stop maintaining replicas. Pin the factor on disk at
		// first adoption (stable epoch-0 v2 record). Single-copy
		// deployments stay recordless — their on-disk bytes are
		// pinned by the pre-replication goldens.
		if t.lay.Replicas() > 1 {
			rec := layout.Record{
				Epoch:       t.lay.Epoch(),
				State:       layout.StateStable,
				Shards:      t.lay.Shards(),
				Vnodes:      t.lay.Vnodes(),
				StripeBytes: t.lay.StripeBytes(),
				Replicas:    t.lay.Replicas(),
			}
			for _, u := range t.uniq {
				if err := layout.WriteRecord(ctx, u.store, rec); err != nil {
					return fmt.Errorf("shard: pinning replication factor: %w", err)
				}
			}
		}
		return nil
	}
	if best.StripeBytes != t.lay.StripeBytes() {
		return fmt.Errorf("shard: layout record stripe %d does not match configured %d",
			best.StripeBytes, t.lay.StripeBytes())
	}
	// The replication factor is persisted (format v2) and must match the
	// configuration exactly: adopting an R-way deployment single-copy
	// would silently stop maintaining replicas, and the reverse would
	// treat missing copies as damage. v1 records count as R=1.
	if rr, cr := best.ReplicaCount(), t.lay.Replicas(); rr != cr {
		return &TopologyError{RecordReplicas: rr, Replicas: cr}
	}
	switch best.State {
	case layout.StateStable, layout.StateReaping:
		if best.Shards > len(t.stores) {
			// Checked before the parameter comparison below so the
			// caller sees "you mounted too few stores" rather than a
			// generic mismatch (or, worse, a slot index panic in a path
			// that trusted the record).
			return &TopologyError{RecordShards: best.Shards, Mounted: len(t.stores)}
		}
		if best.Shards != t.lay.Shards() || best.Vnodes != t.lay.Vnodes() {
			return fmt.Errorf("shard: deployment is at epoch %d with %d shards x %d vnodes; got %d x %d (was it rebalanced elsewhere?)",
				best.Epoch, best.Shards, best.Vnodes, t.lay.Shards(), t.lay.Vnodes())
		}
		nt := &topology{
			stores: t.stores,
			uniq:   t.uniq,
			lay:    t.lay.WithEpoch(best.Epoch),
			stats:  t.stats,
			health: t.health,
		}
		if best.State == layout.StateReaping {
			// The epoch committed but the crash interrupted stale-copy
			// removal; finish it and settle the record.
			var st RebalanceStats
			if err := reapStale(ctx, nt.stores, nt.uniq, nt.lay, &st); err != nil {
				return fmt.Errorf("shard: finishing interrupted reap: %w", err)
			}
			rec := best
			rec.State = layout.StateStable
			rec.PrevShards, rec.PrevVnodes = 0, 0
			for _, u := range nt.uniq {
				if err := layout.WriteRecord(ctx, u.store, rec); err != nil {
					return err
				}
			}
		}
		s.topo.Store(nt)
		s.routeGen.Add(1)
		return nil
	case layout.StateMigrating:
		union := max(best.Shards, best.PrevShards)
		switch {
		case len(t.stores) == union:
			if best.Vnodes != t.lay.Vnodes() {
				return fmt.Errorf("shard: migration record has %d vnodes, configured %d", best.Vnodes, t.lay.Vnodes())
			}
			curLay, err := layout.New(best.Epoch, best.Shards, best.Vnodes, best.StripeBytes)
			if err != nil {
				return err
			}
			prevLay, err := layout.New(best.Epoch-1, best.PrevShards, best.PrevVnodes, best.StripeBytes)
			if err != nil {
				return err
			}
			// Both epochs share the deployment's replication factor
			// (checked against the configuration above).
			curLay = curLay.WithReplicas(best.ReplicaCount())
			prevLay = prevLay.WithReplicas(best.ReplicaCount())
			s.topo.Store(&topology{
				stores: t.stores,
				uniq:   t.uniq,
				lay:    curLay,
				mig:    newMigration(prevLay),
				stats:  t.stats,
				health: t.health,
			})
			s.routeGen.Add(1)
			return nil
		case len(t.stores) == best.PrevShards:
			// The previous epoch's view of a grow that crashed
			// mid-migration: dual-writes kept these shards complete, so
			// serve the old epoch as-is.
			if best.PrevVnodes != t.lay.Vnodes() {
				return fmt.Errorf("shard: migration record has %d prev-vnodes, configured %d", best.PrevVnodes, t.lay.Vnodes())
			}
			s.topo.Store(&topology{
				stores: t.stores,
				uniq:   t.uniq,
				lay:    t.lay.WithEpoch(best.Epoch - 1),
				stats:  t.stats,
				health: t.health,
			})
			s.routeGen.Add(1)
			return nil
		default:
			return fmt.Errorf("shard: interrupted migration %d->%d shards: open with the previous %d stores or the full %d to resume (got %d)",
				best.PrevShards, best.Shards, best.PrevShards, union, len(t.stores))
		}
	default:
		return fmt.Errorf("shard: layout record in unknown state %v", best.State)
	}
}

// ResumableMigration reports whether the store reopened into an
// interrupted migration (AdoptLayout found a migrating record) whose
// mover is not running; RunMover (or Mount.StartRebalance with the
// same target) resumes it.
func (s *Store) ResumableMigration() ([]backend.Store, bool) {
	t := s.topo.Load()
	if t.mig == nil || t.mig.moverRunning.Load() {
		return nil, false
	}
	return append([]backend.Store(nil), t.curStores()...), true
}
