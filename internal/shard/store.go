package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
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
	// placement: an owner group of one. Every operation runs the same
	// owner-group path at every factor — writes fan out to all owners,
	// reads fail over from the primary to the next owner on fatal errors
	// or a missing copy — so with one owner a failure has nowhere to go
	// and surfaces. Scrub, which restores full replication after an
	// outage, needs Replicas >= 2. Must not exceed the store count.
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
	// QueueDepth is the number of leaf reads and writes in flight on
	// the slot now: every owner of a replicated write counts, each on
	// its own slot.
	QueueDepth int64
}

// shardCounters is the mutable form of IOStats.
type shardCounters struct {
	reads, writes, syncs    atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	inFlight                atomic.Int64
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
// copy per key. Every operation runs one owner-group path whatever the
// factor (R=1 is a group of one); this is only the predicate "may an
// operation go on without a store that failed, because another copy
// answers for it?" — plus Scrub's guard.
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

// sameStores reports whether slot lists a and b name the same set of
// physical stores: carve aliases — distinct slots over one store —
// compare equal, because a key routed to either reaches the same bytes.
func (t *topology) sameStores(a, b []int) bool {
	return maps.Equal(t.storeSet(a), t.storeSet(b))
}

// storeSet maps a slot list to its set of physical stores.
func (t *topology) storeSet(slots []int) map[backend.Store]bool {
	out := make(map[backend.Store]bool, len(slots))
	for _, sl := range slots {
		out[t.stores[sl]] = true
	}
	return out
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
// The same underlying store may appear in several slots: repeating it
// carves N *logical* shards (routing plus per-slot counters) out of one
// physical store, which is
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
	// Replication counters (ReplicationStats).
	replicaWrites, failoverReads, scrubRepairs, breakerOpens atomic.Int64
}

func (s *Store) noteScrubRepair() {
	s.scrubRepairs.Add(1)
	// The repair may have re-created a copy on a store some open handle
	// remembers as empty; its next size or cut must see that copy.
	s.routeGen.Add(1)
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

// ReplicationStats returns a snapshot of the replication counters. At
// R=1 a key's one owner is its primary, so ReplicaWrites,
// FailoverReads and ScrubRepairs stay zero; BreakerOpens counts at
// every factor.
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

// readTargets resolves the failover-ordered owner group a read of byte
// off of name may be served from. The authoritative group comes whole
// — the previous epoch's owners until the mover confirms a relocated
// key, the current owners otherwise — because mid-copy current-epoch
// bytes must never serve reads. fellBack reports the dual-ring
// fallback case.
func (t *topology) readTargets(name string, off int64) (slots []int, fellBack bool) {
	key := t.lay.KeyOf(name, off)
	cur := t.lay.Owners(key)
	if t.mig == nil {
		return cur, false
	}
	prev := t.mig.prev.Owners(key)
	if t.sameStores(prev, cur) || t.mig.confirmed(key) {
		return cur, false
	}
	return prev, true
}

// writeGroups resolves the owner groups a write of byte off of name
// must land in, in write order. A write is durable when every group
// has at least one success (and every reachable member a copy).
// Mid-migration a relocated key is DUAL-WRITTEN (mirrored=true): the
// previous epoch's group first, then the current one, under the key's
// migration lock so the pair cannot interleave with the mover's copy
// of the key. The mirror continues even AFTER the mover confirms the
// key: confirmations live only in memory, so after a crash every key
// reads from (and a mover rerun re-copies from) the previous owners
// again — which is only safe because the mirror kept their copies
// fresh until the epoch committed.
func (t *topology) writeGroups(name string, off int64) (groups [][]int, key string, mirrored bool) {
	key = t.lay.KeyOf(name, off)
	cur := t.lay.Owners(key)
	if t.mig == nil {
		return [][]int{cur}, key, false
	}
	prev := t.mig.prev.Owners(key)
	if t.sameStores(prev, cur) {
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
			QueueDepth:   c.inFlight.Load(),
		}
	}
	return out
}

// Open implements backend.Store. Existence is decided by the home
// owner group (the previous epoch's until the mover confirms the key
// mid-migration); stripe files on other shards are created lazily by
// writes.
func (s *Store) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

// OpenCtx implements backend.StoreCtx: ctx reaches the eager open
// here and every lazy per-shard open through the handle's *Ctx
// methods later.
//
// A miss is final only if routing held still across it: between the
// routing decision and the open, the mover may confirm the key, commit
// the epoch and reap the copy the decision picked. routeGen moves on
// each of those, so a miss under a moved routeGen routes once more.
func (s *Store) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	if layout.IsReserved(name) {
		if flag == backend.OpenRead {
			return nil, backend.ErrNotExist
		}
		return nil, errReservedName
	}
	gen := s.routeGen.Load()
	t := s.topo.Load()
	slot, hf, err := s.openEager(ctx, t, name, flag)
	if errors.Is(err, backend.ErrNotExist) && s.routeGen.Load() != gen {
		t = s.topo.Load()
		slot, hf, err = s.openEager(ctx, t, name, flag)
	}
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
	if flag == backend.OpenCreate {
		if err := f.create(ctx, t, slot); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// openEager opens the initial handle of OpenCtx on the first reachable
// member of the authoritative home group, the group a read of byte 0
// routes to. Breaker-open slots are attempted last, and only when no
// live owner gave a definitive answer — a clean ErrNotExist from a
// live owner resolves the open without poking a known-dead shard.
func (s *Store) openEager(ctx context.Context, t *topology, name string, flag backend.OpenFlag) (int, backend.File, error) {
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
			firstErr = cmp.Or(firstErr, err)
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
// per-shard removes. The file exists while ANY home owner holds it, so
// the remove succeeds once one home copy came off; home owners it could
// not reach (and, past them, every other store it could not reach) are
// journaled so Scrub finishes the remove instead of resurrecting the
// name.
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
	// The home groups go newest epoch first: after a crash the previous
	// epoch answers for existence again, so its copy is the last to go.
	groups, _, _ := t.writeGroups(name, 0)
	slices.Reverse(groups)
	homes := t.dedupSlots(slices.Concat(groups...))
	removed, sawMissing := false, false
	var firstErr error
	for _, sl := range homes {
		switch err := backend.RemoveCtx(ctx, t.stores[sl], name); {
		case err == nil:
			t.health[sl].ok()
			removed = true
		case errors.Is(err, backend.ErrNotExist):
			sawMissing = true
		case !s.tolerate(ctx, t, sl, err):
			return err
		default:
			s.noteMiss(t, &s.damage.removes, name, sl)
			firstErr = cmp.Or(firstErr, err)
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
	for _, sl := range t.otherSlots(homes) {
		if err := backend.RemoveCtx(ctx, t.stores[sl], name); err != nil && !errors.Is(err, backend.ErrNotExist) {
			if !s.tolerate(ctx, t, sl, err) {
				return err
			}
			s.noteMiss(t, &s.damage.removes, name, sl)
		}
	}
	return nil
}

// Remove implements backend.Store: the file is removed from every
// shard holding a stripe of it. The home owners decide existence.
func (s *Store) Remove(name string) error { return s.RemoveCtx(nil, name) }

// errReservedName reports an attempt to create or rename over the
// layout record's reserved name.
var errReservedName = fmt.Errorf("shard: %q is reserved for the layout record", layout.RecordName)

// Rename implements backend.Store. Renaming changes every placement
// key, so in general the data must move; when both names are whole
// files on the same home stores the rename is delegated to each of
// them (and stays atomic per store), otherwise the content is copied
// to its new placement and the old name removed — NOT atomic across
// shards, which callers of a sharded store must tolerate (none of the
// engine's consistency paths rename).
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
	homes := t.dedupSlots(t.lay.Owners(t.lay.KeyOf(oldName, 0)))
	if t.mig == nil && !striped(t) && t.sameStores(homes, t.lay.Owners(t.lay.KeyOf(newName, 0))) {
		return s.renameInPlace(t, homes, oldName, newName)
	}
	if _, err := copyNamed(s, oldName, s, newName); err != nil {
		if errors.Is(err, backend.ErrNotExist) {
			return fmt.Errorf("rename %q: %w", oldName, backend.ErrNotExist)
		}
		return err
	}
	return s.Remove(oldName)
}

// renameInPlace renames on every home owner the two names share.
// Group-success, like a write: one owner renamed is a rename, and an
// owner that failed still holds the old name and lacks the new one,
// which the journal records so Scrub reaps the one and copies the
// other. Nothing is journaled when no owner renamed: the old name then
// still stands.
func (s *Store) renameInPlace(t *topology, homes []int, oldName, newName string) error {
	renamed := false
	var missed []int
	var firstErr error
	for _, sl := range homes {
		switch err := t.stores[sl].Rename(oldName, newName); {
		case err == nil:
			t.health[sl].ok()
			renamed = true
		case errors.Is(err, backend.ErrNotExist):
			firstErr = cmp.Or(firstErr, err)
		default:
			s.slotFailed(t, sl)
			missed = append(missed, sl)
			firstErr = cmp.Or(firstErr, err)
		}
	}
	if !renamed {
		return firstErr
	}
	for _, sl := range missed {
		s.noteMiss(t, &s.damage.removes, oldName, sl)
		s.noteMiss(t, &s.damage.keys, newName, sl)
	}
	// The old name may still linger on other shards (e.g. after a ring
	// change); drop stale copies so List stays clean.
	for _, sl := range t.otherSlots(homes) {
		_ = t.stores[sl].Remove(oldName)
	}
	return nil
}

// List implements backend.Store; see ListCtx.
func (s *Store) List() ([]string, error) { return s.ListCtx(nil) }

// ListCtx implements backend.StoreCtx: the union of the shards'
// namespaces, filtered to names some home owner holds (a stripe file
// whose home copies are gone is garbage, not a file; mid-migration the
// previous epoch's home owners also vouch for existence) and with the
// layout record hidden. A store that fails is skipped when replica
// owners vouch for its names.
func (s *Store) ListCtx(ctx context.Context) ([]string, error) {
	t := s.topo.Load()
	seen := make(map[string]bool)
	perStore := make(map[backend.Store]map[string]bool, len(t.uniq))
	for _, u := range t.uniq {
		names, err := backend.ListCtx(ctx, u.store)
		if err != nil {
			if s.tolerate(ctx, t, u.shard, err) {
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
	held := func(lay *layout.Layout, n string) bool {
		return slices.ContainsFunc(lay.Owners(lay.KeyOf(n, 0)), func(sl int) bool { return perStore[t.stores[sl]][n] })
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		if held(t.lay, n) || (t.mig != nil && held(t.mig.prev, n)) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stat implements backend.Store; see StatCtx.
func (s *Store) Stat(name string) (int64, error) { return s.StatCtx(nil, name) }

// StatCtx implements backend.StoreCtx, by the rule file.Size follows.
// Existence is decided by the authoritative home group (any live copy
// vouches), which holds every byte of a whole file. A striped file's
// physical size is the maximum across shards: every write extends the
// owners of the written range, so the owners of the final stripe
// always reach the true size — exact under the loss of one shard of a
// replicated store, whose every extent has another owner, so that
// sweep skips a store that fails there.
func (s *Store) StatCtx(ctx context.Context, name string) (int64, error) {
	if layout.IsReserved(name) {
		return 0, backend.ErrNotExist
	}
	t := s.topo.Load()
	homes, _ := t.readTargets(name, 0)
	homes = t.dedupSlots(homes)
	var size int64
	found, sawMissing := false, false
	var firstErr error
	sizes, errs := t.statTogether(ctx, homes, name)
	for i, sl := range homes {
		switch err := errs[i]; {
		case err == nil:
			t.health[sl].ok()
			size = max(size, sizes[i])
			found = true
		case errors.Is(err, backend.ErrNotExist):
			sawMissing = true
		case backend.CtxErr(ctx) != nil:
			return 0, err
		default:
			s.slotFailed(t, sl)
			firstErr = cmp.Or(firstErr, err)
		}
	}
	if !found {
		if sawMissing || firstErr == nil {
			return 0, backend.ErrNotExist
		}
		return 0, firstErr
	}
	if !striped(t) {
		return size, nil
	}
	rest := t.otherSlots(homes)
	sizes, errs = t.statTogether(ctx, rest, name)
	for i, sl := range rest {
		switch err := errs[i]; {
		case err == nil:
			size = max(size, sizes[i])
		case errors.Is(err, backend.ErrNotExist):
		case !s.tolerate(ctx, t, sl, err):
			return 0, err
		}
	}
	return size, nil
}

// otherSlots returns the representative slot of every distinct store
// not behind one of consulted, in slot order: the stores a sweep still
// has to ask once the home group has answered.
func (t *topology) otherSlots(consulted []int) []int {
	done := t.storeSet(consulted)
	rest := make([]int, 0, len(t.uniq))
	for _, u := range t.uniq {
		if !done[u.store] {
			rest = append(rest, u.shard)
		}
	}
	return rest
}

// statTogether stats name on the stores behind slots, all at once. A
// by-name sweep has no handle to remember anything in, so it asks every
// time — but one round trip per list, not one per store.
func (t *topology) statTogether(ctx context.Context, slots []int, name string) (sizes []int64, errs []error) {
	sizes, errs = make([]int64, len(slots)), make([]error, len(slots))
	together(len(slots), func(i int) {
		sizes[i], errs[i] = backend.StatCtx(ctx, t.stores[slots[i]], name)
	})
	return sizes, errs
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
