package shard

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Per-slot health tracking: a consecutive-failure threshold opens a
// breaker that routes traffic away from a suspect shard, and periodic
// half-open probes discover recovery. It runs at every replication
// factor, single-copy included. Health state is advisory — a slot is
// always attempted when it is the last hope for a read or the only
// remaining member of a write group, which at R=1 every owner is — so
// the breaker can never turn a degraded deployment into a failed one.

const (
	// breakerThreshold is the number of CONSECUTIVE failures that
	// opens a slot's breaker. One flaky call must not exile a shard;
	// three in a row with no success in between is an outage signal.
	breakerThreshold = 3
	// breakerProbeEvery paces half-open probes: every Nth operation
	// that would have skipped an open breaker attempts the slot
	// instead, so a recovered shard closes its breaker within a bounded
	// number of requests and no clock is needed.
	breakerProbeEvery = 16
)

// slotHealth is one slot's breaker state. Pointers are shared across
// topology transitions (like the I/O counters), so health survives
// migrations.
type slotHealth struct {
	consec atomic.Int32 // consecutive failures since the last success
	open   atomic.Bool
	tick   atomic.Uint64 // half-open probe pacing counter
	fails  atomic.Int64
	oks    atomic.Int64
}

// allowed reports whether the slot should be attempted now: always
// while the breaker is closed, every breakerProbeEvery-th call while
// open (the half-open probe).
func (h *slotHealth) allowed() bool {
	if !h.open.Load() {
		return true
	}
	return h.tick.Add(1)%breakerProbeEvery == 0
}

// ok records a successful operation: the failure streak resets and an
// open breaker closes (a half-open probe succeeded).
func (h *slotHealth) ok() {
	h.oks.Add(1)
	h.consec.Store(0)
	h.open.Store(false)
}

// fail records a failed operation; opened reports the closed→open
// transition (so the caller counts the BreakerOpen event exactly once
// per outage).
func (h *slotHealth) fail() (opened bool) {
	h.fails.Add(1)
	if h.consec.Add(1) >= breakerThreshold {
		opened = h.open.CompareAndSwap(false, true)
	}
	return opened
}

// ShardHealth is a snapshot of one shard slot's failover health.
type ShardHealth struct {
	// Shard is the slot index in the store list.
	Shard int
	// Failures / Successes count health-relevant outcomes of
	// operations routed to the slot (context cancellations and plain
	// ErrNotExist probes are neither).
	Failures, Successes int64
	// ConsecutiveFailures is the current failure streak; it resets on
	// any success.
	ConsecutiveFailures int
	// BreakerOpen reports whether the slot is currently exiled to
	// half-open probing.
	BreakerOpen bool
}

// Health returns a snapshot of every shard slot's failover health.
// Entries with no failures and a closed breaker are the steady state
// of a healthy deployment, at every replication factor.
func (s *Store) Health() []ShardHealth {
	t := s.topo.Load()
	out := make([]ShardHealth, len(t.health))
	for i, h := range t.health {
		out[i] = ShardHealth{
			Shard:               i,
			Failures:            h.fails.Load(),
			Successes:           h.oks.Load(),
			ConsecutiveFailures: int(h.consec.Load()),
			BreakerOpen:         h.open.Load(),
		}
	}
	return out
}

// slotFailed records a health-relevant failure on a slot and counts
// the breaker transition if this failure opened it.
func (s *Store) slotFailed(t *topology, slot int) {
	if t.health[slot].fail() {
		s.breakerOpens.Add(1)
	}
}

// tolerate decides a failure on a store outside the group an operation
// needs one success from (a size or Stat sweep, a cut, a flush, a
// remove's sweep, a List): it records the failure on the slot's breaker
// and reports whether the operation may go on without the store — only
// when another copy answers for its keys (R >= 2), and never for a dead
// ctx or an unusable handle.
func (s *Store) tolerate(ctx context.Context, t *topology, slot int, err error) bool {
	if immediateErr(ctx, err) {
		return false
	}
	s.slotFailed(t, slot)
	return t.replicated()
}

// damageCap bounds the journal; a journal past the cap flips the
// overflow flag instead of growing without bound, and the scrubber
// falls back to a full compare (the journal is a repair hint and a
// tie-breaker, never the only path to convergence for write misses).
const damageCap = 1 << 16

// damageJournal records, in memory, the replica copies an operation
// could not reach: write misses by placement key, truncate-size and
// remove misses by file name. The scrubber consults it to pick verified
// sources and to resolve directions (a missed remove must not
// resurrect) and clears entries as it repairs. The journal dies with
// the process — after a crash the scrubber still converges on
// presence/primary-wins semantics, minus the remove/truncate
// tie-breakers.
type damageJournal struct {
	mu sync.Mutex
	// keys maps placement key → slots that missed a write of that key.
	keys map[string]map[int]bool
	// sizes maps name → slots whose copy may exceed the true size
	// (missed truncate).
	sizes map[string]map[int]bool
	// removes maps name → slots whose copy survived a remove.
	removes map[string]map[int]bool
	// overflow is set once any map hits damageCap; entries stop
	// accumulating and the scrubber treats every copy as suspect.
	overflow bool
	entries  int
}

func (j *damageJournal) note(m *map[string]map[int]bool, k string, slot int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.entries >= damageCap {
		j.overflow = true
		return
	}
	if *m == nil {
		*m = make(map[string]map[int]bool)
	}
	set := (*m)[k]
	if set == nil {
		set = make(map[int]bool, 1)
		(*m)[k] = set
	}
	if !set[slot] {
		set[slot] = true
		j.entries++
	}
}

func (j *damageJournal) get(m map[string]map[int]bool, k string) map[int]bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	set := m[k]
	if set == nil {
		return nil
	}
	out := make(map[int]bool, len(set))
	for s := range set {
		out[s] = true
	}
	return out
}

func (j *damageJournal) clear(m map[string]map[int]bool, k string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if set, ok := m[k]; ok {
		j.entries -= len(set)
		delete(m, k)
	}
}

// suspectAll reports whether the journal overflowed: entries were
// dropped, so the scrubber must treat every copy as suspect instead of
// trusting the journal's source hints.
func (j *damageJournal) suspectAll() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.overflow
}

// resetOverflow clears the overflow flag after a fully clean scrub
// pass: everything present was byte-compared, so the dropped entries
// no longer describe live damage.
func (j *damageJournal) resetOverflow() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.overflow = false
}

// clearName drops every journal entry derived from name — its remove
// and size entries (exact) and its per-key write entries (the name
// itself or any stripe key under it). Called when the scrubber has
// settled the whole file's fate. Stripe keys are name + "\x00" +
// stripe, so for pathological names that themselves contain a NUL this
// can also drop a sibling's hint — losing a hint is safe (the scrubber
// full-compares regardless).
func (j *damageJournal) clearName(name string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, m := range []map[string]map[int]bool{j.sizes, j.removes} {
		if set, ok := m[name]; ok {
			j.entries -= len(set)
			delete(m, name)
		}
	}
	prefix := name + "\x00"
	for k, set := range j.keys {
		if k == name || strings.HasPrefix(k, prefix) {
			j.entries -= len(set)
			delete(j.keys, k)
		}
	}
}

// staleNames returns candidate file names the journal references that
// are NOT in present (the namespace a scrub pass just walked): copies
// stranded on shards nothing vouches for anymore. Placement keys yield
// both the key and its pre-NUL prefix as candidates; scrubbing a name
// that never existed is a no-op.
func (j *damageJournal) staleNames(present map[string]bool) []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if !present[n] && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for k := range j.keys {
		add(k)
		if name, _, ok := strings.Cut(k, "\x00"); ok {
			add(name)
		}
	}
	for k := range j.sizes {
		add(k)
	}
	for k := range j.removes {
		add(k)
	}
	sort.Strings(out)
	return out
}

// noteMiss journals in m — the journal's keys (a write of placement
// key k), sizes (a truncate of file k) or removes (a remove of file k)
// — that the operation did not reach slot. Only where a miss can be
// tolerated: at R=1 the operation that missed has failed outright, and
// Scrub, the journal's one reader, does not run.
func (s *Store) noteMiss(t *topology, m *map[string]map[int]bool, k string, slot int) {
	if t.replicated() {
		s.damage.note(m, k, slot)
	}
}
