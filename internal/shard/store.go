package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/metrics"
	"lamassu/internal/shard/layout"
)

// Config tunes a sharded Store.
type Config struct {
	// Vnodes is the virtual-node count per shard on the placement
	// ring. 0 selects DefaultVnodes. Changing it changes placement, so
	// it must match between the process that wrote a store and every
	// process that opens it; no migration changes it.
	Vnodes int
	// StripeBytes, when > 0, additionally stripes each backing file:
	// its bytes [s·StripeBytes, (s+1)·StripeBytes) live on the shard
	// owning the derived key "name\x00s". 0 places every file whole on
	// the shard owning its name. Stripe boundaries should align with
	// the layout's segment size so one multiphase commit lands on one
	// shard.
	StripeBytes int64
	// Replicas is the number of distinct shards every placement key is
	// written to (the key's owner plus the next Replicas-1 distinct
	// shards clockwise on the ring). 0 and 1 both select single-copy
	// placement. With Replicas >= 2 writes fan out to all owners, reads
	// fail over from the primary to the next replica on fatal errors or
	// a missing copy, and Scrub restores full replication after an
	// outage. Must not exceed the store count.
	Replicas int
}

// IOStats is a snapshot of one shard's I/O counters.
type IOStats struct {
	// Shard is the shard index in the stores slice.
	Shard int
	// Reads / Writes / Syncs count backend calls routed to the shard.
	Reads, Writes, Syncs int64
	// BytesRead / BytesWritten total the payloads moved.
	BytesRead, BytesWritten int64
}

// shardCounters is the mutable form of IOStats.
type shardCounters struct {
	reads, writes, syncs    atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// topology is one immutable placement state of the Store. Every
// operation loads the pointer once and works against a consistent
// snapshot; topology transitions (BeginMigration, the mover's epoch
// commit, record adoption) build a new value and swap it in.
type topology struct {
	// stores is the slot-indexed store list. While migrating it is the
	// UNION of both epochs' lists: on grow the whole new list (the old
	// list is its prefix), on shrink the old list (the new list is its
	// prefix). Ring lookups of either epoch index into it directly.
	stores []backend.Store
	// uniq lists the distinct underlying stores (first-occurrence
	// order) with a representative slot index each. Namespace
	// operations iterate it instead of stores, so carving N logical
	// shards out of one physical store costs one backend call, not N.
	uniq []uniqueStore
	// lay is the current placement epoch: writes and commits route by
	// it, and it defines file existence (home shard).
	lay *layout.Layout
	// mig is non-nil while a migration is in progress; it carries the
	// previous epoch's layout and the dual-ring routing state.
	mig *migration
	// stats holds one counter block per slot; the pointers are shared
	// across topologies so counters survive transitions.
	stats []*shardCounters
	// health holds one breaker block per slot; like stats, the
	// pointers are shared across topologies.
	health []*slotHealth
}

// curStores returns the current epoch's slice of the slot list.
func (t *topology) curStores() []backend.Store { return t.stores[:t.lay.Shards()] }

// replicated reports whether the current epoch places more than one
// copy per key — the gate for every failover/fan-out path, so a
// single-copy store keeps exactly its historical behavior.
func (t *topology) replicated() bool { return t.lay.Replicas() > 1 }

// dedupSlots drops slots backed by a store already present earlier in
// the list (carve mode maps several slots onto one physical store; one
// copy per physical store is all replication can buy there).
func (t *topology) dedupSlots(slots []int) []int {
	if len(slots) < 2 {
		return slots
	}
	out := slots[:0:len(slots)]
	for i, sl := range slots {
		dup := false
		for _, prior := range slots[:i] {
			if t.stores[prior] == t.stores[sl] {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, sl)
		}
	}
	return out
}

// sameSlotSet reports whether a and b contain the same slots
// (order-insensitively; replica sets are small, so quadratic is fine).
func sameSlotSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// uniqueOf builds the uniq list for a store slice.
func uniqueOf(stores []backend.Store) []uniqueStore {
	var uniq []uniqueStore
	seen := make(map[backend.Store]bool, len(stores))
	for i, st := range stores {
		if !seen[st] {
			seen[st] = true
			uniq = append(uniq, uniqueStore{store: st, shard: i})
		}
	}
	return uniq
}

// Store stripes a flat file namespace across several backend.Store
// instances via an epoch-versioned consistent-hash layout. It
// implements backend.Store; see the package comment for placement
// semantics and migrate.go for online topology change.
//
// The same underlying store may appear in several slots: internal/core
// and the public Options use that to carve N *logical* shards (routing
// plus per-shard worker budgets) out of one physical store, which is
// byte-for-byte identical to the unsharded layout because every stripe
// keeps its global offset and file name.
type Store struct {
	topo atomic.Pointer[topology]
	// routeGen increments whenever key→slot routing can change for
	// reasons a long-lived handle cannot see locally: a topology swap
	// (BeginMigration, epoch commit, record adoption) or a mover
	// confirmation (which redirects the key's reads to a slot that may
	// previously have held nothing) — or whenever the Store itself puts
	// a copy where a handle may have probed none (a scrub repair).
	// Handles compare it to invalidate their negative probe cache
	// (file.missing), which reads, Size and Truncate all answer from.
	routeGen atomic.Uint64
	// migMu serializes topology transitions; the data path never takes
	// it.
	migMu sync.Mutex
	// damage journals replica copies that operations could not reach;
	// Scrub consults and clears it.
	damage damageJournal
	// scrub is non-nil while a scrub pass runs; replicated writes take
	// its per-key lock so a repair copy cannot interleave with a live
	// write of the same key.
	scrub atomic.Pointer[scrubState]
	// rec is the optional metrics recorder for replication and
	// migration events (nil-safe).
	rec atomic.Pointer[metrics.Recorder]
	// Replication event counters (always live, recorder or not).
	replicaWrites, failoverReads, scrubRepairs, breakerOpens atomic.Int64
}

// SetRecorder attaches a metrics recorder to the store's replication
// events (ReplicaWrite, FailoverRead, ScrubRepair, BreakerOpen) and
// migration events (FallbackRead, MirrorWrite, MoveCopy, EpochBump). A
// nil recorder detaches.
func (s *Store) SetRecorder(rec *metrics.Recorder) { s.rec.Store(rec) }

func (s *Store) noteReplicaWrite() {
	s.replicaWrites.Add(1)
	s.rec.Load().CountEvent(metrics.ReplicaWrite, 1)
}

func (s *Store) noteFailoverRead() {
	s.failoverReads.Add(1)
	s.rec.Load().CountEvent(metrics.FailoverRead, 1)
}

func (s *Store) noteScrubRepair() {
	s.scrubRepairs.Add(1)
	// The repair may have re-created a copy on a store some open handle
	// remembers as empty; its next size or cut must see that copy.
	s.routeGen.Add(1)
	s.rec.Load().CountEvent(metrics.ScrubRepair, 1)
}

func (s *Store) noteBreakerOpen() {
	s.breakerOpens.Add(1)
	s.rec.Load().CountEvent(metrics.BreakerOpen, 1)
}

// noteFallback counts one dual-ring read served by the previous
// epoch's owner.
func (s *Store) noteFallback(m *migration) {
	m.fallbackReads.Add(1)
	s.rec.Load().CountEvent(metrics.FallbackRead, 1)
}

// noteMirror counts one write mirrored to the previous epoch's owner.
func (s *Store) noteMirror(m *migration) {
	m.mirrorWrites.Add(1)
	s.rec.Load().CountEvent(metrics.MirrorWrite, 1)
}

// ReplicationStats is a snapshot of the store's replication counters.
type ReplicationStats struct {
	// ReplicaWrites counts writes landed on non-primary replicas.
	ReplicaWrites int64
	// FailoverReads counts reads a non-primary replica served — the
	// primary owner failed, was missing the copy, or sat exiled behind
	// an open breaker.
	FailoverReads int64
	// ScrubRepairs counts replica copies Scrub re-created or rewrote.
	ScrubRepairs int64
	// BreakerOpens counts closed→open breaker transitions.
	BreakerOpens int64
}

// ReplicationStats returns a snapshot of the replication counters;
// all-zero for single-copy stores.
func (s *Store) ReplicationStats() ReplicationStats {
	return ReplicationStats{
		ReplicaWrites: s.replicaWrites.Load(),
		FailoverReads: s.failoverReads.Load(),
		ScrubRepairs:  s.scrubRepairs.Load(),
		BreakerOpens:  s.breakerOpens.Load(),
	}
}

// uniqueStore pairs a distinct underlying store with the lowest slot
// index it backs.
type uniqueStore struct {
	store backend.Store
	shard int
}

// New returns a sharded Store over the given backends at epoch 0. The
// order of stores is part of the placement contract: reopening a
// sharded deployment with the stores permuted scatters every lookup.
// A deployment that has rebalanced online persists its epoch on the
// shards; call AdoptLayout after New to pick it up.
func New(stores []backend.Store, cfg Config) (*Store, error) {
	if len(stores) == 0 {
		return nil, errors.New("shard: at least one backend store is required")
	}
	for i, s := range stores {
		if s == nil {
			return nil, fmt.Errorf("shard: store %d is nil", i)
		}
	}
	if cfg.StripeBytes < 0 {
		return nil, errors.New("shard: stripe size must be >= 0")
	}
	if cfg.Replicas < 0 {
		return nil, errors.New("shard: replicas must be >= 0")
	}
	if cfg.Replicas > len(stores) {
		return nil, fmt.Errorf("shard: %d replicas need at least %d stores, have %d",
			cfg.Replicas, cfg.Replicas, len(stores))
	}
	lay, err := layout.New(0, len(stores), cfg.Vnodes, cfg.StripeBytes)
	if err != nil {
		return nil, err
	}
	lay = lay.WithReplicas(cfg.Replicas)
	stores = append([]backend.Store(nil), stores...)
	stats := make([]*shardCounters, len(stores))
	health := make([]*slotHealth, len(stores))
	for i := range stats {
		stats[i] = &shardCounters{}
		health[i] = &slotHealth{}
	}
	s := &Store{}
	s.topo.Store(&topology{
		stores: stores,
		uniq:   uniqueOf(stores),
		lay:    lay,
		stats:  stats,
		health: health,
	})
	return s, nil
}

// NumShards returns the number of shard slots — during a migration
// the union of both epochs, so per-shard worker budgets cover every
// store being written. Together with ShardOf it is the seam
// internal/core uses to carve per-shard worker budgets.
func (s *Store) NumShards() int { return len(s.topo.Load().stores) }

// Ring returns the current epoch's placement map.
func (s *Store) Ring() *Ring { return s.topo.Load().lay.Ring() }

// Layout returns the current placement epoch.
func (s *Store) Layout() *layout.Layout { return s.topo.Load().lay }

// Epoch returns the current placement epoch number.
func (s *Store) Epoch() uint64 { return s.topo.Load().lay.Epoch() }

// StripeBytes returns the stripe unit (0 = whole-file placement).
func (s *Store) StripeBytes() int64 { return s.topo.Load().lay.StripeBytes() }

// Replicas returns the number of distinct copies the current epoch
// places per key; 1 for single-copy stores.
func (s *Store) Replicas() int { return s.topo.Load().lay.Replicas() }

// Shards returns the current epoch's backend stores, in placement
// order.
func (s *Store) Shards() []backend.Store {
	return append([]backend.Store(nil), s.topo.Load().curStores()...)
}

// ShardOf returns the shard owning byte off of the named file under
// the CURRENT epoch (the ring writes route by). It is pure ring
// arithmetic — no I/O, O(log vnodes) — so callers may use it on their
// hot paths to route work before touching data.
func (s *Store) ShardOf(name string, off int64) int {
	return s.topo.Load().lay.ShardOf(name, off)
}

// homeShard returns the slot that defines a file's existence under
// the current epoch: the owner of its first byte (equivalently, of
// stripe 0).
func (t *topology) homeShard(name string) int { return t.lay.ShardOf(name, 0) }

// readTarget resolves the slot a read of byte off of name should hit:
// the current owner once the key is confirmed moved (or was never
// relocated), the previous epoch's owner — the authoritative copy —
// until then. fellBack reports the dual-ring fallback case.
func (t *topology) readTarget(name string, off int64) (slot int, fellBack bool) {
	cur := t.lay.ShardOf(name, off)
	if t.mig == nil {
		return cur, false
	}
	key := t.lay.KeyOf(name, off)
	prev := t.mig.prev.Owner(key)
	if prev == cur || t.mig.confirmed(key) {
		return cur, false
	}
	return prev, true
}

// writeTargets resolves where a write of byte off of name must land.
// Stable (or unrelocated key): the current owner only. Mid-migration,
// a relocated key is DUAL-WRITTEN — the previous owner first, then
// the current owner — under the key's migration lock so the pair
// cannot interleave with the mover's copy of the same key. The mirror
// continues even AFTER the mover confirms the key: confirmations live
// only in memory, so after a crash every key reads from (and a mover
// rerun re-copies from) the previous owner again — which is only safe
// because the mirror kept that copy fresh until the epoch committed.
func (t *topology) writeTargets(name string, off int64) (primary, mirror int, mirrored bool, key string) {
	cur := t.lay.ShardOf(name, off)
	if t.mig == nil {
		return cur, 0, false, ""
	}
	key = t.lay.KeyOf(name, off)
	prev := t.mig.prev.Owner(key)
	if prev == cur {
		return cur, 0, false, ""
	}
	return prev, cur, true, key
}

// readTargets is readTarget generalized to a replica set: the
// failover-ordered candidate slots a read of byte off of name may be
// served from. The authoritative group comes whole — previous-epoch
// owners until the mover confirms a relocated key, current owners
// otherwise — because mid-copy current-epoch bytes must never serve
// reads, replica or not.
func (t *topology) readTargets(name string, off int64) (slots []int, fellBack bool) {
	key := t.lay.KeyOf(name, off)
	cur := t.lay.Owners(key)
	if t.mig == nil {
		return cur, false
	}
	prev := t.mig.prev.Owners(key)
	if sameSlotSet(prev, cur) || t.mig.confirmed(key) {
		return cur, false
	}
	return prev, true
}

// writeGroups is writeTargets generalized to replica sets: the slot
// groups a write of byte off of name must land in, in write order. A
// write is durable when every group has at least one success (and
// every reachable member a copy); mid-migration a relocated key gets
// both epochs' owner groups — previous first, mirroring writeTargets —
// under the key's migration lock (mirrored=true).
func (t *topology) writeGroups(name string, off int64) (groups [][]int, key string, mirrored bool) {
	key = t.lay.KeyOf(name, off)
	cur := t.lay.Owners(key)
	if t.mig == nil {
		return [][]int{cur}, key, false
	}
	prev := t.mig.prev.Owners(key)
	if sameSlotSet(prev, cur) {
		return [][]int{cur}, key, false
	}
	return [][]int{prev, cur}, key, true
}

// Stats returns a snapshot of every shard slot's I/O counters.
func (s *Store) Stats() []IOStats {
	t := s.topo.Load()
	out := make([]IOStats, len(t.stats))
	for i, c := range t.stats {
		out[i] = IOStats{
			Shard:        i,
			Reads:        c.reads.Load(),
			Writes:       c.writes.Load(),
			Syncs:        c.syncs.Load(),
			BytesRead:    c.bytesRead.Load(),
			BytesWritten: c.bytesWritten.Load(),
		}
	}
	return out
}

// Open implements backend.Store. Existence is decided by the home
// shard (falling back to the previous epoch's home mid-migration);
// stripe files on other shards are created lazily by writes.
func (s *Store) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

// OpenCtx implements backend.StoreCtx: ctx reaches the eager open
// here and every lazy per-shard open through the handle's *Ctx
// methods later.
func (s *Store) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	if layout.IsReserved(name) {
		if flag == backend.OpenRead {
			return nil, backend.ErrNotExist
		}
		return nil, errReservedName
	}
	t := s.topo.Load()
	// The eager handle goes to the slot a read of byte 0 routes to:
	// pre-migration that is the home shard; mid-migration the previous
	// epoch's home keeps answering existence until the mover confirms
	// the key. Under replication the whole authoritative owner group is
	// tried in failover order.
	slot, hf, err := s.openEager(ctx, t, name, flag)
	if err != nil {
		return nil, err
	}
	f := &file{
		store: s,
		name:  name,
		flag:  flag,
		files: make(map[int]backend.File, 1),
	}
	f.files[slot] = hf
	// Creating a file mid-migration materializes it under BOTH epochs:
	// the current home defines existence after the epoch commits, the
	// previous home keeps the old-epoch view complete in case the
	// migration is abandoned after a crash.
	if flag == backend.OpenCreate && t.mig != nil && !t.replicated() {
		if home := t.homeShard(name); home != slot {
			if _, err := f.handle(ctx, t, home, true); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	// Under replication a create materializes the file on EVERY owner
	// of its home key (both epochs' owners mid-migration), so existence
	// survives losing any single shard. Unreachable owners are
	// journaled for Scrub instead of failing the open — the eager open
	// above already secured one copy.
	if flag == backend.OpenCreate && t.replicated() {
		key0 := t.lay.KeyOf(name, 0)
		want := t.lay.Owners(key0)
		if t.mig != nil {
			want = append(append([]int(nil), want...), t.mig.prev.Owners(key0)...)
		}
		for _, sl := range t.dedupSlots(want) {
			if sl == slot || t.stores[sl] == t.stores[slot] {
				continue
			}
			if _, err := f.handle(ctx, t, sl, true); err != nil {
				if backend.CtxErr(ctx) != nil {
					f.Close()
					return nil, err
				}
				s.slotFailed(t, sl)
				s.noteWriteMiss(key0, sl)
			}
		}
	}
	return f, nil
}

// openEager opens the initial handle of OpenCtx: the single routed
// slot for single-copy stores (historical behavior, strict errors),
// the first reachable member of the authoritative owner group under
// replication. Breaker-open slots are attempted last, and only when no
// live owner gave a definitive answer — a clean ErrNotExist from a
// live owner resolves the open without poking a known-dead shard.
func (s *Store) openEager(ctx context.Context, t *topology, name string, flag backend.OpenFlag) (int, backend.File, error) {
	if !t.replicated() {
		slot, _ := t.readTarget(name, 0)
		hf, err := backend.OpenCtx(ctx, t.stores[slot], name, flag)
		return slot, hf, err
	}
	slots, _ := t.readTargets(name, 0)
	order := make([]int, 0, len(slots))
	deferred := make([]int, 0, 1)
	for _, sl := range t.dedupSlots(slots) {
		if t.health[sl].allowed() {
			order = append(order, sl)
		} else {
			deferred = append(deferred, sl)
		}
	}
	var firstErr error
	sawMissing := false
	try := func(list []int) (int, backend.File, error, bool) {
		for _, sl := range list {
			hf, err := backend.OpenCtx(ctx, t.stores[sl], name, flag)
			if err == nil {
				t.health[sl].ok()
				return sl, hf, nil, true
			}
			if backend.CtxErr(ctx) != nil {
				return 0, nil, err, true
			}
			if errors.Is(err, backend.ErrNotExist) {
				sawMissing = true // store is alive, the name just is not there
				continue
			}
			s.slotFailed(t, sl)
			if firstErr == nil {
				firstErr = err
			}
		}
		return 0, nil, nil, false
	}
	if sl, hf, err, done := try(order); done {
		return sl, hf, err
	}
	if !sawMissing {
		if sl, hf, err, done := try(deferred); done {
			return sl, hf, err
		}
	}
	if sawMissing || firstErr == nil {
		return 0, nil, backend.ErrNotExist
	}
	return 0, nil, firstErr
}

// RemoveCtx implements backend.StoreCtx, checking ctx between the
// per-shard removes.
func (s *Store) RemoveCtx(ctx context.Context, name string) error {
	if layout.IsReserved(name) {
		return backend.ErrNotExist
	}
	t := s.topo.Load()
	if t.mig != nil {
		fl := t.mig.fileLock(name)
		fl.Lock()
		defer fl.Unlock()
		defer t.mig.forgetName(name)
	}
	if sc := s.scrub.Load(); sc != nil {
		fl := sc.fileLock(name)
		fl.Lock()
		defer fl.Unlock()
	}
	if t.replicated() {
		return s.removeReplicated(ctx, t, name)
	}
	return removeLocked(ctx, t, name)
}

// removeLocked is RemoveCtx after the migration file lock (if any)
// has been taken; RemoveCtx is its only caller, the split just keeps
// the locking at the entry point.
func removeLocked(ctx context.Context, t *topology, name string) error {
	homeStore := t.stores[t.homeShard(name)]
	err := backend.RemoveCtx(ctx, homeStore, name)
	if errors.Is(err, backend.ErrNotExist) && t.mig != nil {
		// Mid-migration the file may exist only under the previous
		// epoch's home; existence is the union of the two.
		if prevStore := t.stores[t.mig.prev.ShardOf(name, 0)]; prevStore != homeStore {
			err = backend.RemoveCtx(ctx, prevStore, name)
			homeStore = prevStore
		}
	}
	if err != nil {
		return err
	}
	for _, u := range t.uniq {
		if u.store == homeStore {
			continue
		}
		if err := backend.RemoveCtx(ctx, u.store, name); err != nil && !errors.Is(err, backend.ErrNotExist) {
			return err
		}
	}
	return nil
}

// removeReplicated is removeLocked for replicated topologies: the file
// exists while ANY home owner holds it, so the remove succeeds when at
// least one owner copy came off; unreachable copies are journaled so
// Scrub finishes the remove instead of resurrecting the name.
func (s *Store) removeReplicated(ctx context.Context, t *topology, name string) error {
	homes, _ := t.readTargets(name, 0)
	homes = t.dedupSlots(homes)
	removed, sawMissing := false, false
	var firstErr error
	done := make(map[backend.Store]bool, len(t.uniq))
	for _, sl := range homes {
		done[t.stores[sl]] = true
		err := backend.RemoveCtx(ctx, t.stores[sl], name)
		switch {
		case err == nil:
			t.health[sl].ok()
			removed = true
		case errors.Is(err, backend.ErrNotExist):
			sawMissing = true
		case backend.CtxErr(ctx) != nil:
			return err
		default:
			s.slotFailed(t, sl)
			s.noteRemoveMiss(name, sl)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if !removed {
		if sawMissing || firstErr == nil {
			// Every live owner agrees the name is gone; any copy stuck
			// on an unreachable owner is journaled above and reaped by
			// Scrub rather than surfacing a double-fault ambiguity here.
			return backend.ErrNotExist
		}
		return firstErr
	}
	for _, u := range t.uniq {
		if done[u.store] {
			continue
		}
		if err := backend.RemoveCtx(ctx, u.store, name); err != nil && !errors.Is(err, backend.ErrNotExist) {
			if backend.CtxErr(ctx) != nil {
				return err
			}
			s.slotFailed(t, u.shard)
			s.noteRemoveMiss(name, u.shard)
		}
	}
	return nil
}

// ListCtx implements backend.StoreCtx.
func (s *Store) ListCtx(ctx context.Context) ([]string, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return nil, err
	}
	return s.List()
}

// StatCtx implements backend.StoreCtx.
func (s *Store) StatCtx(ctx context.Context, name string) (int64, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	return s.Stat(name)
}

// Remove implements backend.Store: the file is removed from every
// shard holding a stripe of it. The home shard decides existence.
func (s *Store) Remove(name string) error { return s.RemoveCtx(nil, name) }

// errReservedName reports an attempt to create or rename over the
// layout record's reserved name.
var errReservedName = fmt.Errorf("shard: %q is reserved for the layout record", layout.RecordName)

// Rename implements backend.Store. Renaming changes every placement
// key, so in general the data must move; when the whole file stays on
// one shard the rename is delegated (and stays atomic), otherwise the
// content is copied to its new placement and the old name removed —
// NOT atomic across shards, which callers of a sharded store must
// tolerate (none of the engine's consistency paths rename).
func (s *Store) Rename(oldName, newName string) error {
	if layout.IsReserved(oldName) || layout.IsReserved(newName) {
		return errReservedName
	}
	t := s.topo.Load()
	if t.mig != nil {
		// Both names' placement state changes; drop any confirmations
		// for either name so their keys restart unconfirmed (the old
		// copies are authoritative again and the mover re-copies). The
		// rename itself takes NO coarse file locks — its constituent
		// operations (routed writes, truncate, remove) each serialize
		// against the mover with the per-key and per-file locks they
		// already hold, and rename is documented non-atomic anyway.
		defer t.mig.forgetName(oldName)
		defer t.mig.forgetName(newName)
	}
	oldHome := t.homeShard(oldName)
	newHome := t.homeShard(newName)
	if t.mig == nil && t.lay.StripeBytes() <= 0 && t.stores[oldHome] == t.stores[newHome] {
		if err := t.stores[oldHome].Rename(oldName, newName); err != nil {
			return err
		}
		// The name may still linger on other shards (e.g. after a ring
		// change); drop stale copies so List stays clean.
		for _, u := range t.uniq {
			if u.store == t.stores[oldHome] {
				continue
			}
			_ = u.store.Remove(oldName)
		}
		return nil
	}
	if _, err := copyNamed(s, oldName, s, newName); err != nil {
		if errors.Is(err, backend.ErrNotExist) {
			return fmt.Errorf("rename %q: %w", oldName, backend.ErrNotExist)
		}
		return err
	}
	return s.Remove(oldName)
}

// List implements backend.Store: the union of the shards' namespaces,
// filtered to names whose home shard holds them (a stripe file whose
// home copy is gone is garbage, not a file; mid-migration the
// previous epoch's home also vouches for existence) and with the
// layout record hidden.
func (s *Store) List() ([]string, error) {
	t := s.topo.Load()
	seen := make(map[string]bool)
	perStore := make(map[backend.Store]map[string]bool, len(t.uniq))
	for _, u := range t.uniq {
		names, err := u.store.List()
		if err != nil {
			if t.replicated() {
				// A dead shard must not take the whole namespace down;
				// its names are vouched for by replica owners below.
				s.slotFailed(t, u.shard)
				continue
			}
			return nil, err
		}
		set := make(map[string]bool, len(names))
		for _, n := range names {
			if layout.IsReserved(n) {
				continue
			}
			set[n] = true
			seen[n] = true
		}
		perStore[u.store] = set
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		var live bool
		if t.replicated() {
			// Existence is vouched for by ANY owner of the home key,
			// under either epoch while migrating.
			for _, sl := range t.lay.Owners(t.lay.KeyOf(n, 0)) {
				if perStore[t.stores[sl]][n] {
					live = true
					break
				}
			}
			if !live && t.mig != nil {
				for _, sl := range t.mig.prev.Owners(t.mig.prev.KeyOf(n, 0)) {
					if perStore[t.stores[sl]][n] {
						live = true
						break
					}
				}
			}
		} else {
			live = perStore[t.stores[t.homeShard(n)]][n]
			if !live && t.mig != nil {
				live = perStore[t.stores[t.mig.prev.ShardOf(n, 0)]][n]
			}
		}
		if live {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stat implements backend.Store. A striped file's physical size is
// the maximum across shards: every write extends the shard owning the
// written range, so the shard owning the final stripe always reaches
// the true size.
func (s *Store) Stat(name string) (int64, error) {
	if layout.IsReserved(name) {
		return 0, backend.ErrNotExist
	}
	t := s.topo.Load()
	if t.replicated() {
		return s.statReplicated(t, name)
	}
	homeStore := t.stores[t.homeShard(name)]
	size, err := homeStore.Stat(name)
	if errors.Is(err, backend.ErrNotExist) && t.mig != nil {
		if prevStore := t.stores[t.mig.prev.ShardOf(name, 0)]; prevStore != homeStore {
			size, err = prevStore.Stat(name)
			homeStore = prevStore
		}
	}
	if err != nil {
		return 0, err
	}
	rest := t.otherSlots(homeStore)
	sizes, errs := t.statTogether(rest, name)
	for i := range rest {
		if errs[i] != nil {
			if errors.Is(errs[i], backend.ErrNotExist) {
				continue
			}
			return 0, errs[i]
		}
		size = max(size, sizes[i])
	}
	return size, nil
}

// otherSlots returns the representative slot of every distinct store
// not among consulted, in slot order: the stores a sweep still has to
// ask once the home group has answered.
func (t *topology) otherSlots(consulted ...backend.Store) []int {
	rest := make([]int, 0, len(t.uniq))
	for _, u := range t.uniq {
		if !slices.Contains(consulted, u.store) {
			rest = append(rest, u.shard)
		}
	}
	return rest
}

// statTogether stats name on the stores behind slots, all at once. A
// by-name sweep has no handle to remember anything in, so it asks every
// time — but one round trip per list, not one per store.
func (t *topology) statTogether(slots []int, name string) (sizes []int64, errs []error) {
	sizes, errs = make([]int64, len(slots)), make([]error, len(slots))
	together(len(slots), func(i int) {
		sizes[i], errs[i] = t.stores[slots[i]].Stat(name)
	})
	return sizes, errs
}

// statReplicated is Stat with failover: existence is decided by the
// home-owner group (any live copy vouches), and the max-size sweep
// skips unreachable stores — exact under a single shard loss because
// every stripe's extent lives on every owner of that stripe.
func (s *Store) statReplicated(t *topology, name string) (int64, error) {
	homes, _ := t.readTargets(name, 0)
	homes = t.dedupSlots(homes)
	var size int64
	found, sawMissing := false, false
	var firstErr error
	homeStores := make([]backend.Store, len(homes))
	sizes, errs := t.statTogether(homes, name)
	for i, sl := range homes {
		homeStores[i] = t.stores[sl]
		switch err := errs[i]; {
		case err == nil:
			t.health[sl].ok()
			size = max(size, sizes[i])
			found = true
		case errors.Is(err, backend.ErrNotExist):
			sawMissing = true
		default:
			s.slotFailed(t, sl)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if !found {
		if sawMissing || firstErr == nil {
			return 0, backend.ErrNotExist
		}
		return 0, firstErr
	}
	rest := t.otherSlots(homeStores...)
	sizes, errs = t.statTogether(rest, name)
	for i, sl := range rest {
		if errs[i] != nil {
			if !errors.Is(errs[i], backend.ErrNotExist) {
				s.slotFailed(t, sl)
			}
			continue
		}
		size = max(size, sizes[i])
	}
	return size, nil
}

func (t *topology) countRead(shard, n int) {
	c := t.stats[shard]
	c.reads.Add(1)
	c.bytesRead.Add(int64(n))
}

func (t *topology) countWrite(shard, n int) {
	c := t.stats[shard]
	c.writes.Add(1)
	c.bytesWritten.Add(int64(n))
}

func (t *topology) countSync(shard int) {
	if shard < len(t.stats) {
		t.stats[shard].syncs.Add(1)
	}
}
