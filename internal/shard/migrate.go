package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lamassu/internal/backend"
	"lamassu/internal/metrics"
	"lamassu/internal/shard/layout"
)

// migration is the dual-ring state a Store carries between
// BeginMigration and the mover's epoch commit. Invariants:
//
//   - The previous epoch's copies stay complete until the epoch
//     commits: EVERY write to a relocated key lands on the previous
//     owner first and on the new owner second (regardless of
//     confirmation), so a crash at any point leaves the old epoch
//     fully intact.
//   - A key is confirmed only after the mover copied it old→new under
//     the key's lock, so a confirmed key's new-owner copy is complete
//     and reads switch to it; unconfirmed relocated keys read from
//     the previous owner.
//   - Confirmations live in memory only. After a crash the moved set
//     is empty again: every read falls back to the (still fresh) old
//     copies, and rerunning the mover re-copies — idempotently — until
//     it converges.
type migration struct {
	prev *layout.Layout
	// invalidate, when non-nil, brackets the mover's per-file copies:
	// it is called before the first and after the last stripe of a
	// file moves, so a block cache above the store can drop entries
	// around the relocation window.
	invalidate func(name string)
	// onKeyMoved, when non-nil, runs after each key is confirmed —
	// before the mover's next copy — giving tests and tooling an exact
	// copy-boundary hook.
	onKeyMoved func(key string)

	// mu guards the maps below; it is an RWMutex because confirmed()
	// sits on the mid-migration READ path of every request and must
	// not serialize disjoint readers.
	mu    sync.RWMutex
	moved map[string]bool
	// keyLocks serialize the mover's copy of one key against the
	// dual-writes to it; fileLocks serialize whole-file operations
	// (truncate, remove, rename, the mover's per-file pass) that must
	// not interleave with a relocation. Order: fileLock before
	// keyLock, never the reverse.
	keyLocks  map[string]*sync.Mutex
	fileLocks map[string]*sync.Mutex

	totalKeys     atomic.Int64
	movedKeys     atomic.Int64
	movedBytes    atomic.Int64
	fallbackReads atomic.Int64
	mirrorWrites  atomic.Int64
	moverRunning  atomic.Bool
}

func newMigration(prev *layout.Layout) *migration {
	return &migration{
		prev:      prev,
		moved:     make(map[string]bool),
		keyLocks:  make(map[string]*sync.Mutex),
		fileLocks: make(map[string]*sync.Mutex),
	}
}

func (m *migration) confirmed(key string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.moved[key]
}

func (m *migration) confirm(key string) {
	m.mu.Lock()
	m.moved[key] = true
	m.mu.Unlock()
	m.movedKeys.Add(1)
}

// forgetName drops the confirmations of every key derived from name
// (called when the file is removed or renamed: a later incarnation of
// the name must restart unconfirmed). The key and file locks stay: the
// caller holds the file's lock right now, and dropping a held mutex
// from the map would hand the next operation a fresh one and break the
// exclusion. They are reclaimed with the migration at the epoch commit.
func (m *migration) forgetName(name string) {
	prefix := name + "\x00"
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.moved {
		if k == name || (len(k) > len(prefix) && k[:len(prefix)] == prefix) {
			delete(m.moved, k)
		}
	}
}

func (m *migration) keyLock(key string) *sync.Mutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.keyLocks[key]
	if l == nil {
		l = &sync.Mutex{}
		m.keyLocks[key] = l
	}
	return l
}

func (m *migration) fileLock(name string) *sync.Mutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.fileLocks[name]
	if l == nil {
		l = &sync.Mutex{}
		m.fileLocks[name] = l
	}
	return l
}

// MigrateHooks configures the observability side of a migration.
type MigrateHooks struct {
	// Invalidate brackets each file's relocation (called before the
	// first and after the last key of the file moves) so caches above
	// the store can drop entries around the window.
	Invalidate func(name string)
	// OnKeyMoved runs after each key is confirmed, at an exact copy
	// boundary.
	OnKeyMoved func(key string)
}

// MigrationStatus is a point-in-time snapshot of a Store's migration.
type MigrationStatus struct {
	// Active reports a migration in progress (dual-ring routing on);
	// MoverRunning whether its mover goroutine is currently copying.
	Active, MoverRunning bool
	// Epoch is the settled epoch being served; TargetEpoch the epoch
	// being migrated to (0 when not Active).
	Epoch, TargetEpoch uint64
	// TotalKeys counts the placement keys the migration must relocate,
	// discovered file by file as the mover walks (0 until it starts);
	// MovedKeys how many are confirmed; MovedBytes the payload copied
	// by the mover.
	TotalKeys, MovedKeys, MovedBytes int64
	// FallbackReads counts reads served by the previous epoch's owner;
	// MirroredWrites counts writes dual-written to it.
	FallbackReads, MirroredWrites int64
}

// Migrating reports whether the store is serving two epochs.
func (s *Store) Migrating() bool { return s.topo.Load().mig != nil }

// MigrationStatus returns a snapshot of the migration state.
func (s *Store) MigrationStatus() MigrationStatus {
	t := s.topo.Load()
	if t.mig == nil {
		return MigrationStatus{Epoch: t.lay.Epoch()}
	}
	m := t.mig
	return MigrationStatus{
		Active:         true,
		MoverRunning:   m.moverRunning.Load(),
		Epoch:          m.prev.Epoch(),
		TargetEpoch:    t.lay.Epoch(),
		TotalKeys:      m.totalKeys.Load(),
		MovedKeys:      m.movedKeys.Load(),
		MovedBytes:     m.movedBytes.Load(),
		FallbackReads:  m.fallbackReads.Load(),
		MirroredWrites: m.mirrorWrites.Load(),
	}
}

// BeginMigration opens a new placement epoch over newStores and
// switches the store into dual-ring mode: writes route by the new
// ring (mirrored to the old owner until the epoch commits), reads
// fall back to the old owner. newStores must extend the current store
// list (grow) or be a prefix of it (shrink) — that identity-prefix
// rule is what lets a crashed migration be re-derived from the
// persisted record plus one store list. The migrating record is
// persisted to every participating store BEFORE any routing changes.
//
// Calling BeginMigration again with the same target while a migration
// is active is a resume: hooks are replaced, nothing else changes. It
// fails while the mover runs — the mover reads the hooks unlocked.
// The data copies happen in RunMover; until it completes (idempotent,
// rerunnable) the deployment stays fully readable and writable.
func (s *Store) BeginMigration(ctx context.Context, newStores []backend.Store, h MigrateHooks) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	t := s.topo.Load()
	if t.mig != nil {
		if len(newStores) != t.lay.Shards() {
			return fmt.Errorf("shard: migration to %d shards already in progress (got %d)",
				t.lay.Shards(), len(newStores))
		}
		for i, st := range newStores {
			if t.stores[i] != st {
				return fmt.Errorf("shard: store %d differs from the in-progress migration's target", i)
			}
		}
		if t.mig.moverRunning.Load() {
			return errMoverRunning
		}
		t.mig.invalidate = h.Invalidate
		t.mig.onKeyMoved = h.OnKeyMoved
		return nil
	}
	if s.scrub.Load() != nil {
		return errors.New("shard: cannot begin a migration while a scrub pass runs")
	}
	cur := t.curStores()
	union, err := unionStoreList(cur, newStores)
	if err != nil {
		return err
	}
	newLay, err := layout.New(t.lay.Epoch()+1, len(newStores), t.lay.Vnodes(), t.lay.StripeBytes())
	if err != nil {
		return err
	}
	// The replication factor is part of the deployment's identity; the
	// new epoch inherits it, which bounds how far a shrink can go.
	if r := t.lay.Replicas(); r > 1 {
		if len(newStores) < r {
			return fmt.Errorf("shard: %d-way replication needs at least %d shards; migration target has %d",
				r, r, len(newStores))
		}
		newLay = newLay.WithReplicas(r)
	}
	if newLay.SamePlacement(t.lay) {
		return errors.New("shard: migration target has the same placement as the current epoch")
	}
	rec := layout.Record{
		Epoch:       newLay.Epoch(),
		State:       layout.StateMigrating,
		Shards:      newLay.Shards(),
		Vnodes:      newLay.Vnodes(),
		StripeBytes: newLay.StripeBytes(),
		PrevShards:  t.lay.Shards(),
		PrevVnodes:  t.lay.Vnodes(),
		Replicas:    recReplicas(newLay),
	}
	unionUniq := uniqueOf(union)
	for _, u := range unionUniq {
		if err := layout.WriteRecord(ctx, u.store, rec); err != nil {
			return fmt.Errorf("shard: persisting migration record: %w", err)
		}
	}
	mig := newMigration(t.lay)
	mig.invalidate = h.Invalidate
	mig.onKeyMoved = h.OnKeyMoved
	// Copy before growing: older topology snapshots still held by
	// in-flight operations share the backing array, and an in-place
	// append would race their counter reads.
	stats := append([]*shardCounters(nil), t.stats...)
	for len(stats) < len(union) {
		stats = append(stats, &shardCounters{})
	}
	health := append([]*slotHealth(nil), t.health...)
	for len(health) < len(union) {
		health = append(health, &slotHealth{})
	}
	s.topo.Store(&topology{
		stores: union,
		uniq:   unionUniq,
		lay:    newLay,
		mig:    mig,
		stats:  stats,
		health: health,
	})
	s.routeGen.Add(1)
	return nil
}

// prefixRule is the one shape of topology change a migration accepts;
// every rejection of another shape names it.
const prefixRule = "a migration grows by appending shards or shrinks by removing a suffix"

// unionStoreList validates the grow/shrink prefix rule and returns
// the slot list covering both epochs.
func unionStoreList(cur, next []backend.Store) ([]backend.Store, error) {
	if len(next) == 0 {
		return nil, errors.New("shard: migration needs at least one shard")
	}
	long, short := cur, next
	if len(next) > len(cur) {
		long, short = next, cur
	}
	for i, st := range short {
		if st == nil || long[i] == nil {
			return nil, fmt.Errorf("shard: store %d is nil", i)
		}
		if long[i] != st {
			return nil, fmt.Errorf("shard: store %d differs between epochs; %s", i, prefixRule)
		}
	}
	if len(long) == len(short) {
		return nil, errors.New("shard: migration must add or remove shards (same count given); " + prefixRule)
	}
	return append([]backend.Store(nil), long...), nil
}

var errMoverRunning = errors.New("shard: mover already running")

// RunMover copies every placement key whose owner changed between the
// two epochs from its old owner to its new one, confirms each key
// (switching its reads to the new ring), and finally commits the
// epoch: the stable record is persisted, stale copies are reaped, and
// the old ring is retired. It blocks until done; run it on a
// goroutine to keep serving while it works.
//
// RunMover honors ctx between key copies: a cancellation returns
// ErrCanceled with the migration still active and every byte still
// readable through the dual rings — exactly a crash cut — and calling
// RunMover again (in this process or after reopening the deployment)
// converges. It is safe with concurrent reads and writes through the
// same Store; copies are serialized per key against the mirror
// writes.
func (s *Store) RunMover(ctx context.Context) (RebalanceStats, error) {
	var st RebalanceStats
	t := s.topo.Load()
	mig := t.mig
	if mig == nil {
		return st, errors.New("shard: no migration in progress")
	}
	// Claimed under migMu so a resuming BeginMigration, which replaces
	// the hooks this goroutine reads unlocked, sees the mover or has
	// finished before it starts.
	s.migMu.Lock()
	claimed := mig.moverRunning.CompareAndSwap(false, true)
	s.migMu.Unlock()
	if !claimed {
		return st, errMoverRunning
	}
	defer mig.moverRunning.Store(false)

	names, err := unionNamespace(t.uniq)
	if err != nil {
		return st, err
	}
	// TotalKeys is discovered as the walk proceeds (each file's changed
	// keys are counted just before its copies) rather than by a
	// separate upfront Stat sweep over every store; a rerun restarts
	// the gauge from what is already confirmed.
	mig.totalKeys.Store(mig.movedKeys.Load())

	for _, name := range names {
		if err := backend.CtxErr(ctx); err != nil {
			return st, err
		}
		if err := s.moverFile(ctx, t, name, &st); err != nil {
			return st, fmt.Errorf("shard: moving %q: %w", name, err)
		}
	}
	if err := backend.CtxErr(ctx); err != nil {
		return st, err
	}
	if err := s.commitEpoch(ctx, t, &st); err != nil {
		return st, err
	}
	return st, nil
}

// unionNamespace lists every name present on any participating store
// — the RAW per-store namespaces, not the home-filtered List, so a
// rerun after a crash still reaches half-moved files and stale
// copies. The layout record is excluded.
func unionNamespace(uniq []uniqueStore) ([]string, error) {
	seen := make(map[string]bool)
	var names []string
	for _, u := range uniq {
		ns, err := u.store.List()
		if err != nil {
			return nil, err
		}
		for _, n := range ns {
			if layout.IsReserved(n) || seen[n] {
				continue
			}
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// recReplicas is the record form of a layout's replication factor: 0
// (v1 record bytes) for single-copy, the factor itself otherwise.
func recReplicas(l *layout.Layout) int {
	if r := l.Replicas(); r > 1 {
		return r
	}
	return 0
}

// storeSet maps a slot list to its set of physical stores.
func (t *topology) storeSet(slots []int) map[backend.Store]bool {
	out := make(map[backend.Store]bool, len(slots))
	for _, sl := range slots {
		out[t.stores[sl]] = true
	}
	return out
}

// keyRelocated reports whether key's owner set differs between the two
// epochs — by physical store, so carve aliases do not count as moves.
func (t *topology) keyRelocated(key string) bool {
	if !t.replicated() {
		return t.lay.Owner(key) != t.mig.prev.Owner(key)
	}
	cur := t.storeSet(t.lay.Owners(key))
	prev := t.storeSet(t.mig.prev.Owners(key))
	if len(cur) != len(prev) {
		return true
	}
	for st := range cur {
		if !prev[st] {
			return true
		}
	}
	return false
}

// keyRange is one placement key of a file with the byte range it
// covers; hi < 0 marks a whole-file key.
type keyRange struct {
	key    string
	lo, hi int64
}

// changedKeys lists the placement keys of a file whose owner set
// differs between the previous and current epochs.
func changedKeys(t *topology, name string, phys int64) []keyRange {
	stripe := t.lay.StripeBytes()
	if stripe <= 0 {
		if t.keyRelocated(name) {
			return []keyRange{{name, 0, -1}}
		}
		return nil
	}
	// An empty file has no stripes to copy; its existence under the
	// new epoch is the home-copy creation moverFile performs anyway.
	var keys []keyRange
	for lo := int64(0); lo < phys; lo += stripe {
		key := layout.StripeKey(name, lo/stripe)
		if t.keyRelocated(key) {
			keys = append(keys, keyRange{key, lo, min(lo+stripe, phys)})
		}
	}
	return keys
}

// copySizes stats name on every participating store once: the size of
// each copy found, and the longest of them — the file's global
// physical size (0 when no store holds it).
func copySizes(uniq []uniqueStore, name string) (sizes map[backend.Store]int64, phys int64, err error) {
	sizes = make(map[backend.Store]int64, len(uniq))
	for _, u := range uniq {
		sz, err := u.store.Stat(name)
		if errors.Is(err, backend.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		sizes[u.store] = sz
		phys = max(phys, sz)
	}
	return sizes, phys, nil
}

// heldBy reports whether a store behind one of slots has a copy in
// sizes.
func heldBy(sizes map[backend.Store]int64, stores []backend.Store, slots []int) bool {
	for _, sl := range slots {
		if _, ok := sizes[stores[sl]]; ok {
			return true
		}
	}
	return false
}

// copyKeyToOwners copies one key's range from the first previous-epoch
// owner holding the file to every current-epoch owner that is not
// itself a previous owner (those copies are authoritative already —
// the dual writes kept them fresh). Whole-file keys replace the
// destination copy outright. Returns the payload bytes copied.
func (t *topology) copyKeyToOwners(name string, k keyRange) (int64, error) {
	prevSlots := t.dedupSlots(t.mig.prev.Owners(k.key))
	prevSet := t.storeSet(prevSlots)
	var src backend.Store
	for _, sl := range prevSlots {
		has, err := storeHas(t.stores[sl], name)
		if err != nil {
			return 0, err
		}
		if has {
			src = t.stores[sl]
			break
		}
	}
	if src == nil {
		// No previous owner holds a copy: nothing to move (the file
		// exists only under the new epoch, or not at all).
		return 0, nil
	}
	var total int64
	for _, sl := range t.dedupSlots(t.lay.Owners(k.key)) {
		dst := t.stores[sl]
		if prevSet[dst] {
			continue
		}
		var n int64
		var err error
		if k.hi < 0 {
			n, err = copyNamed(src, name, dst, name)
		} else {
			n, err = copyRange(src, dst, name, k.lo, k.hi)
		}
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// moverFile relocates one file's changed keys old→new — the only code
// that copies a placement key between stores. It holds the file's
// migration lock throughout, excluding truncate/remove/rename (whose
// whole-file effects must not interleave with per-key copies); per-key
// it additionally takes the key lock, excluding the dual-writes to
// that key.
func (s *Store) moverFile(ctx context.Context, t *topology, name string, st *RebalanceStats) error {
	mig := t.mig
	fl := mig.fileLock(name)
	fl.Lock()
	defer fl.Unlock()

	st.Files++
	if mig.invalidate != nil {
		mig.invalidate(name)
		defer mig.invalidate(name)
	}

	// Existence and physical size are judged across BOTH epochs: after
	// an interrupted run the file's home copy may already sit on the new
	// home only, and its tail only on the new anchor store.
	sizes, phys, err := copySizes(t.uniq, name)
	if err != nil {
		return err
	}
	curHomes := t.dedupSlots(t.lay.Owners(t.lay.KeyOf(name, 0)))
	if !heldBy(sizes, t.stores, curHomes) && !heldBy(sizes, t.stores, mig.prev.Owners(mig.prev.KeyOf(name, 0))) {
		// Unreachable under either epoch: stale copies from an older
		// placement, left for the epoch commit's reapStale.
		return nil
	}

	// The new home owners define existence once the epoch commits;
	// create their copies first (OpenCreate does not truncate, so data a
	// home store already holds — e.g. mirrored writes — survives).
	for _, sl := range curHomes {
		if err := ensureExists(t.stores[sl], name); err != nil {
			return err
		}
	}
	keys := changedKeys(t, name, phys)
	for _, k := range keys {
		if !mig.confirmed(k.key) {
			mig.totalKeys.Add(1)
		}
	}

	moved := false
	for _, k := range keys {
		if mig.confirmed(k.key) {
			continue
		}
		// The cancellation point sits BETWEEN key copies: a canceled
		// run is cut at a copy boundary, the crash case the resume
		// contract already covers.
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		kl := mig.keyLock(k.key)
		kl.Lock()
		n, err := t.copyKeyToOwners(name, k)
		kl.Unlock()
		if err != nil {
			return err
		}
		mig.confirm(k.key)
		s.rec.Load().CountEvent(metrics.MoveCopy, 1)
		s.routeGen.Add(1)
		st.MovedStripes++
		st.MovedBytes += n
		mig.movedBytes.Add(n)
		moved = true
		if mig.onKeyMoved != nil {
			mig.onKeyMoved(k.key)
		}
	}
	// Anchor the global size: every owner of the final byte under the
	// new placement must reach exactly phys, even when the final stripe
	// is a hole with no bytes to copy. (extendTo never shrinks, so a
	// concurrent append that outgrew phys is safe.)
	if t.lay.StripeBytes() > 0 && phys > 0 {
		for _, sl := range t.dedupSlots(t.lay.Owners(t.lay.KeyOf(name, phys-1))) {
			if err := extendTo(t.stores[sl], name, phys); err != nil {
				return err
			}
		}
	}
	if moved {
		st.MovedFiles++
	}
	return nil
}

// commitEpoch atomically retires the old ring once every key is
// confirmed: the reaping record lands on the new epoch's stores
// first (from that point the new epoch is authoritative even after a
// crash — all data has been copied), then stale old-owner copies are
// removed, retiring stores give up their records, the stable record
// is written, and the in-memory topology drops to single-ring mode.
func (s *Store) commitEpoch(ctx context.Context, t *topology, st *RebalanceStats) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	mig := t.mig
	newLay := t.lay
	cur := t.curStores()
	curUniq := uniqueOf(cur)
	rec := layout.Record{
		Epoch:       newLay.Epoch(),
		State:       layout.StateReaping,
		Shards:      newLay.Shards(),
		Vnodes:      newLay.Vnodes(),
		StripeBytes: newLay.StripeBytes(),
		PrevShards:  mig.prev.Shards(),
		PrevVnodes:  mig.prev.Vnodes(),
		Replicas:    recReplicas(newLay),
	}
	for _, u := range curUniq {
		if err := layout.WriteRecord(ctx, u.store, rec); err != nil {
			return fmt.Errorf("shard: committing epoch %d: %w", newLay.Epoch(), err)
		}
	}
	if err := reapStale(ctx, t.stores, t.uniq, newLay, st); err != nil {
		return err
	}
	curSet := make(map[backend.Store]bool, len(curUniq))
	for _, u := range curUniq {
		curSet[u.store] = true
	}
	for _, u := range t.uniq {
		if !curSet[u.store] {
			if err := layout.RemoveRecord(ctx, u.store); err != nil {
				return err
			}
		}
	}
	rec.State = layout.StateStable
	rec.PrevShards, rec.PrevVnodes = 0, 0
	for _, u := range curUniq {
		if err := layout.WriteRecord(ctx, u.store, rec); err != nil {
			return err
		}
	}
	s.topo.Store(&topology{
		stores: append([]backend.Store(nil), cur...),
		uniq:   curUniq,
		lay:    newLay,
		stats:  append([]*shardCounters(nil), t.stats[:len(cur)]...),
		health: append([]*slotHealth(nil), t.health[:len(cur)]...),
	})
	s.routeGen.Add(1)
	s.rec.Load().CountEvent(metrics.EpochBump, 1)
	return nil
}

// reapStale removes per-file copies from stores that own nothing
// under lay, and every copy of a file none of lay's home owners holds
// (unreachable: a leftover of an older placement). It runs only once
// the epoch is authoritative — every live file then has its home copy.
// stores is the dense slot list lay's lookups index into.
func reapStale(ctx context.Context, stores []backend.Store, uniq []uniqueStore, lay *layout.Layout, st *RebalanceStats) error {
	names, err := unionNamespace(uniq)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := backend.CtxErr(ctx); err != nil {
			return err
		}
		sizes, phys, err := copySizes(uniq, name)
		if err != nil {
			return err
		}
		var owners map[backend.Store]bool
		if heldBy(sizes, stores, lay.Owners(lay.KeyOf(name, 0))) {
			owners = ownerStores(stores, lay, name, phys)
		}
		for _, u := range uniq {
			if owners[u.store] {
				continue
			}
			switch err := u.store.Remove(name); {
			case err == nil:
				st.RemovedCopies++
			case errors.Is(err, backend.ErrNotExist):
			default:
				return err
			}
		}
	}
	return nil
}

// ownerStores returns the set of stores owning at least one placement
// key of the file under lay — every replica owner, not just the
// primary, so reaping never strips a live replica copy. stores is the
// dense slot list lay's lookups index into.
func ownerStores(stores []backend.Store, lay *layout.Layout, name string, phys int64) map[backend.Store]bool {
	owners := make(map[backend.Store]bool)
	for _, sl := range lay.Owners(lay.KeyOf(name, 0)) {
		owners[stores[sl]] = true
	}
	if stripe := lay.StripeBytes(); stripe > 0 {
		nStripes := (phys + stripe - 1) / stripe
		for i := int64(0); i < nStripes; i++ {
			for _, sl := range lay.Owners(layout.StripeKey(name, i)) {
				owners[stores[sl]] = true
			}
		}
	}
	return owners
}
