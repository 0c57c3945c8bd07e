package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/faultfs"
	"lamassu/internal/shard"
	slayout "lamassu/internal/shard/layout"
	"lamassu/internal/vfs"
)

// replicatedStores builds an R-way replicated shard store over n
// distinct in-memory stores, each behind a faultfs injector so tests
// can kill shards.
func replicatedStores(t *testing.T, n, r int, stripe int64) (*shard.Store, []*faultfs.Store, []*backend.MemStore) {
	t.Helper()
	stores := make([]backend.Store, n)
	faults := make([]*faultfs.Store, n)
	mems := make([]*backend.MemStore, n)
	for i := range stores {
		mems[i] = backend.NewMemStore()
		faults[i] = faultfs.New(mems[i])
		stores[i] = faults[i]
	}
	s, err := shard.New(stores, shard.Config{StripeBytes: stripe, Replicas: r})
	if err != nil {
		t.Fatal(err)
	}
	return s, faults, mems
}

// readStoreRange reads [lo, hi) of one physical store's copy directly,
// zero-filling past that copy's end (hole semantics).
func readStoreRange(t *testing.T, m backend.Store, name string, lo, hi int64) []byte {
	t.Helper()
	buf := make([]byte, hi-lo)
	f, err := m.Open(name, backend.OpenRead)
	if errors.Is(err, backend.ErrNotExist) {
		return buf
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if n := sz - lo; n > 0 {
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if err := backend.ReadFull(f, buf[:n], lo); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// verifyFullReplication inspects the physical stores directly: every
// owner's copy must hold the authoritative bytes of every range it
// owns, and the home owners must all hold the file. With strict set
// (fresh writes, or a committed migration whose reap ran) files may
// exist ONLY on their owner set; without it, copies stranded on
// ex-owners by a shrinking overwrite are tolerated — the documented
// scrub semantics — but must be capped to the file size so they can
// never contribute a stale byte.
func verifyFullReplication(t *testing.T, s *shard.Store, mems []*backend.MemStore, files map[string][]byte, strict bool) {
	t.Helper()
	lay := s.Layout()
	for name, data := range files {
		size := int64(len(data))
		type span struct{ lo, hi int64 }
		perSlot := make(map[int][]span)
		for _, sl := range lay.Owners(lay.KeyOf(name, 0)) {
			perSlot[sl] = nil // existence: the home owners always hold a copy
		}
		if stripe := lay.StripeBytes(); stripe <= 0 {
			for _, sl := range lay.Owners(lay.KeyOf(name, 0)) {
				perSlot[sl] = append(perSlot[sl], span{0, size})
			}
		} else {
			for lo := int64(0); lo < size; lo += stripe {
				hi := min(lo+stripe, size)
				for _, sl := range lay.Owners(lay.KeyOf(name, lo)) {
					perSlot[sl] = append(perSlot[sl], span{lo, hi})
				}
			}
		}
		for i, m := range mems {
			sz, err := m.Stat(name)
			_, owner := perSlot[i]
			switch {
			case err == nil && !owner && strict:
				t.Fatalf("%s: stray copy on non-owner shard %d", name, i)
			case err == nil && !owner && sz > size:
				t.Fatalf("%s: ex-owner shard %d holds an uncapped %d-byte copy (file is %d bytes)", name, i, sz, size)
			case errors.Is(err, backend.ErrNotExist) && owner:
				t.Fatalf("%s: owner shard %d holds no copy", name, i)
			case err != nil && !errors.Is(err, backend.ErrNotExist):
				t.Fatal(err)
			}
		}
		for sl, spans := range perSlot {
			for _, sp := range spans {
				if sp.hi <= sp.lo {
					continue
				}
				if got := readStoreRange(t, mems[sl], name, sp.lo, sp.hi); !bytes.Equal(got, data[sp.lo:sp.hi]) {
					t.Fatalf("%s: shard %d's copy of [%d,%d) diverges from the written bytes", name, sl, sp.lo, sp.hi)
				}
			}
		}
	}
}

func writeCorpus(t *testing.T, s backend.Store, n int, seed int64) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rep-%03d", i)
		data := make([]byte, rng.Intn(5000))
		rng.Read(data)
		files[name] = data
		if err := backend.WriteFile(s, name, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return files
}

// Every write fans out to all R owners, whole-file and striped, and the
// physical stores hold byte-identical owner copies — the direct
// inspection the durability claim rests on.
func TestReplicatedWriteFanout(t *testing.T) {
	for _, stripe := range []int64{0, 1024} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			s, _, mems := replicatedStores(t, 4, 2, stripe)
			if got := s.Replicas(); got != 2 {
				t.Fatalf("Replicas = %d, want 2", got)
			}
			files := writeCorpus(t, s, 24, 41)
			// An empty file still replicates its existence.
			files["empty"] = nil
			if err := backend.WriteFile(s, "empty", nil); err != nil {
				t.Fatal(err)
			}
			for name, want := range files {
				got, err := backend.ReadFile(s, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: round trip failed: %v", name, err)
				}
			}
			verifyFullReplication(t, s, mems, files, true)
			if rs := s.ReplicationStats(); rs.ReplicaWrites == 0 {
				t.Fatalf("ReplicationStats = %+v, want replica writes > 0", rs)
			}
		})
	}
}

// The acceptance scenario: with R=2 and one shard permanently down, a
// full write/read/remove/truncate workload completes with ZERO
// caller-visible errors and byte-identical readback; the same loss at
// R=1 is a visible failure. Afterwards Scrub restores full
// replication, verified by direct per-store inspection and by
// re-reading everything with each store killed in turn.
func TestReplicatedShardLossAndScrubRepair(t *testing.T) {
	for _, stripe := range []int64{0, 1024} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			s, faults, mems := replicatedStores(t, 3, 2, stripe)
			files := writeCorpus(t, s, 20, 7)

			const victim = 1
			faults[victim].ArmDownAll()

			// Serve reads: every byte must come back identical.
			for name, want := range files {
				got, err := backend.ReadFile(s, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: read with shard %d down: %v", name, victim, err)
				}
			}
			// Serve writes: overwrites, new files, a remove, a truncate.
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("rep-%03d", i)
				data := make([]byte, 700+rng.Intn(3000))
				rng.Read(data)
				files[name] = data
				if err := backend.WriteFile(s, name, data); err != nil {
					t.Fatalf("overwrite %s with shard down: %v", name, err)
				}
			}
			fresh := make([]byte, 2500)
			rng.Read(fresh)
			files["during-outage"] = fresh
			if err := backend.WriteFile(s, "during-outage", fresh); err != nil {
				t.Fatalf("create with shard down: %v", err)
			}
			if err := s.Remove("rep-010"); err != nil {
				t.Fatalf("remove with shard down: %v", err)
			}
			delete(files, "rep-010")
			h, err := s.Open("rep-011", backend.OpenWrite)
			if err != nil {
				t.Fatalf("open with shard down: %v", err)
			}
			if err := h.Truncate(100); err != nil {
				t.Fatalf("truncate with shard down: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			files["rep-011"] = files["rep-011"][:min(100, int64(len(files["rep-011"])))]
			if sz := int64(len(files["rep-011"])); sz < 100 {
				files["rep-011"] = append(files["rep-011"], make([]byte, 100-sz)...)
			}
			for name, want := range files {
				got, err := backend.ReadFile(s, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: readback during outage: %v", name, err)
				}
			}
			if rs := s.ReplicationStats(); rs.FailoverReads == 0 {
				t.Fatalf("ReplicationStats = %+v, want failover reads > 0", rs)
			}
			if hs := s.Health(); !hs[victim].BreakerOpen {
				t.Fatalf("Health[%d] = %+v, want breaker open after a sustained outage", victim, hs[victim])
			}

			// The shard comes back (with its stale pre-outage data) and a
			// scrub pass restores full replication.
			faults[victim].DisarmDown()
			st, err := s.Scrub(context.Background())
			if err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			if st.Repairs == 0 {
				t.Fatalf("ScrubStats = %+v, want repairs > 0", st)
			}
			if st.Unrepaired != 0 {
				t.Fatalf("ScrubStats = %+v, want nothing unrepaired with all shards live", st)
			}
			verifyFullReplication(t, s, mems, files, false)
			// The journaled remove was finished: no store still holds it.
			for i, m := range mems {
				if _, err := m.Stat("rep-010"); !errors.Is(err, backend.ErrNotExist) {
					t.Fatalf("removed file survives on shard %d: %v", i, err)
				}
			}
			// A second pass over a healthy deployment finds nothing to do.
			st2, err := s.Scrub(context.Background())
			if err != nil {
				t.Fatalf("second Scrub: %v", err)
			}
			if st2.Repairs != 0 || st2.RemovedCopies != 0 || st2.Truncated != 0 || st2.Unrepaired != 0 {
				t.Fatalf("second pass not idle: %+v", st2)
			}
			// Full replication means ANY single store can die and every
			// byte is still served.
			for k := range faults {
				faults[k].ArmDownAll()
				for name, want := range files {
					got, err := backend.ReadFile(s, name)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: read with shard %d down after scrub: %v", name, k, err)
					}
				}
				faults[k].DisarmDown()
			}
		})
	}

	// The R=1 control: the same loss without replication is a visible
	// failure — this is what the R-vs-capacity trade buys.
	t.Run("r1-control", func(t *testing.T) {
		s, faults, _ := replicatedStores(t, 3, 1, 0)
		files := writeCorpus(t, s, 20, 7)
		faults[1].ArmDownAll()
		sawErr := false
		for name := range files {
			if _, err := backend.ReadFile(s, name); err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatal("R=1 served every read with a shard permanently down")
		}
	})
}

// The health breaker's lifecycle: consecutive failures open it, the
// deployment keeps serving, and after the shard returns a half-open
// probe closes it without any explicit reset.
func TestBreakerOpensAndCloses(t *testing.T) {
	s, faults, _ := replicatedStores(t, 3, 2, 0)
	files := writeCorpus(t, s, 12, 3)

	const victim = 2
	faults[victim].ArmDownAll()
	for name := range files {
		if _, err := backend.ReadFile(s, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	hs := s.Health()
	if !hs[victim].BreakerOpen || hs[victim].Failures == 0 {
		t.Fatalf("Health[%d] = %+v, want open breaker with failures recorded", victim, hs[victim])
	}
	for i, h := range hs {
		if i != victim && h.BreakerOpen {
			t.Fatalf("Health[%d] = %+v: healthy slot's breaker opened", i, h)
		}
	}

	faults[victim].DisarmDown()
	// The breaker closes on its own via half-open probes: keep the
	// workload running and wait for a probe to land.
	closed := false
	for i := 0; i < 200 && !closed; i++ {
		for name := range files {
			if _, err := backend.ReadFile(s, name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		closed = !s.Health()[victim].BreakerOpen
	}
	if !closed {
		t.Fatalf("breaker never closed after recovery: %+v", s.Health()[victim])
	}
	if s.Health()[victim].Successes == 0 {
		t.Fatalf("Health[%d] = %+v, want successes after recovery", victim, s.Health()[victim])
	}
}

// Scrub's guard rails: it requires replication, refuses to overlap a
// migration, and refuses to run twice at once.
func TestScrubGuards(t *testing.T) {
	single, _ := newShardStore(t, 3, 0)
	if _, err := single.Scrub(context.Background()); err == nil {
		t.Fatal("Scrub succeeded on a single-copy store")
	}

	s, _, _ := replicatedStores(t, 3, 2, 0)
	writeCorpus(t, s, 6, 5)
	grown := append(append([]backend.Store{}, s.Shards()...), backend.NewMemStore())
	if err := s.BeginMigration(context.Background(), grown, shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(context.Background()); err == nil {
		t.Fatal("Scrub succeeded during a migration")
	}
	if _, err := s.RunMover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(context.Background()); err != nil {
		t.Fatalf("Scrub after the epoch committed: %v", err)
	}
}

// Online rebalance preserves the replica invariant: after a grow
// commits, every key holds R copies under the NEW ring (verified per
// store), the deployment survives any single shard loss, and a fresh
// R-configured open adopts the bumped epoch.
func TestReplicatedMigrationGrow(t *testing.T) {
	for _, stripe := range []int64{0, 1024} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			s, faults, mems := replicatedStores(t, 3, 2, stripe)
			files := writeCorpus(t, s, 24, 11)

			newMem := backend.NewMemStore()
			newFault := faultfs.New(newMem)
			grown := append(append([]backend.Store{}, s.Shards()...), newFault)
			prev := s.Layout()
			if err := s.BeginMigration(context.Background(), grown, shard.MigrateHooks{}); err != nil {
				t.Fatal(err)
			}
			// Live writes mid-migration: a relocated key is written to both
			// epochs' owner groups, and a slot sitting in both is written
			// ONCE. A replica write is counted where a write was issued —
			// one per non-primary member of the previous group, plus the
			// current group's non-primary members the previous group did
			// not already cover.
			cur := s.Layout()
			wantReplica, reused := int64(0), 0
			before := s.ReplicationStats().ReplicaWrites
			for name := range files {
				data := files[name]
				rand.New(rand.NewSource(int64(len(data)))).Read(data)
				span := int64(len(data))
				if stripe > 0 {
					span = stripe
				}
				for lo := int64(0); lo < int64(len(data)); lo += span {
					key := cur.KeyOf(name, lo)
					po, co := prev.Owners(key), cur.Owners(key)
					wantReplica += int64(len(po) - 1)
					moved := slices.ContainsFunc(co, func(c int) bool { return !slices.Contains(po, c) })
					for _, sl := range co[1:] {
						switch {
						case !slices.Contains(po, sl):
							wantReplica++
						case moved:
							reused++
						}
					}
				}
				h, err := s.Open(name, backend.OpenWrite)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.WriteAt(data, 0); err != nil {
					t.Fatalf("%s: write mid-migration: %v", name, err)
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if reused == 0 {
				t.Fatal("no written key has a replica slot in both epoch groups; widen the corpus")
			}
			if got := s.ReplicationStats().ReplicaWrites - before; got != wantReplica {
				t.Fatalf("%d replica writes mid-migration, want %d (one per write issued to a non-primary owner; %d reused outcomes must not count)",
					got, wantReplica, reused)
			}
			if _, err := s.RunMover(context.Background()); err != nil {
				t.Fatal(err)
			}
			if s.Migrating() {
				t.Fatal("migration still active after RunMover")
			}
			if got := s.Replicas(); got != 2 {
				t.Fatalf("Replicas after grow = %d, want 2", got)
			}
			mems = append(mems, newMem)
			faults = append(faults, newFault)
			for name, want := range files {
				got, err := backend.ReadFile(s, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: readback after grow: %v", name, err)
				}
			}
			verifyFullReplication(t, s, mems, files, true)
			for k := range faults {
				faults[k].ArmDownAll()
				for name, want := range files {
					got, err := backend.ReadFile(s, name)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: read with shard %d down after grow: %v", name, k, err)
					}
				}
				faults[k].DisarmDown()
			}

			// Reopen: the persisted record carries the factor and epoch.
			stores := make([]backend.Store, len(mems))
			for i := range mems {
				stores[i] = mems[i]
			}
			fresh, err := shard.New(stores, shard.Config{StripeBytes: stripe, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AdoptLayout(nil); err != nil {
				t.Fatalf("AdoptLayout: %v", err)
			}
			if got := fresh.Epoch(); got != 1 {
				t.Fatalf("adopted epoch = %d, want 1", got)
			}
			for name, want := range files {
				got, err := backend.ReadFile(fresh, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: readback through adopted store: %v", name, err)
				}
			}
		})
	}
}

// The replication factor is on-disk identity: v1 (pre-replication)
// records adopt as R=1 and stay byte-for-byte v1; opening a deployment
// with the wrong factor, or with fewer stores than its record needs,
// is a typed TopologyError — never a slot-index panic.
func TestAdoptReplicaTopology(t *testing.T) {
	// A single-copy deployment that rebalanced writes v1 record bytes.
	stores, mems := memStores(2)
	s, err := shard.New(stores, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, s, 8, 21)
	grown := append(append([]backend.Store{}, stores...), backend.NewMemStore())
	if err := s.BeginMigration(context.Background(), grown, shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunMover(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := backend.ReadFile(mems[0], slayout.RecordName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("lamassu-layout v1\n")) {
		t.Fatalf("single-copy record is not v1: %q", raw[:min(int64(len(raw)), 40)])
	}
	// Adopting it single-copy works; adopting it R=2 is a typed error.
	r1, err := shard.New(grown, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.AdoptLayout(nil); err != nil || r1.Epoch() != 1 {
		t.Fatalf("v1 record adopts as R=1 at epoch 1: epoch %d, %v", r1.Epoch(), err)
	}
	r2, err := shard.New(grown, shard.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var te *shard.TopologyError
	if err := r2.AdoptLayout(nil); !errors.As(err, &te) {
		t.Fatalf("adopting a v1 record R=2: %v, want TopologyError", err)
	} else if te.RecordReplicas != 1 || te.Replicas != 2 {
		t.Fatalf("TopologyError = %+v, want 1 vs 2", te)
	}

	// The reverse: an R=2 record refuses a single-copy open.
	repStores, _ := memStores(3)
	rec := slayout.Record{
		Epoch: 1, State: slayout.StateStable,
		Shards: 3, Vnodes: shard.DefaultVnodes, Replicas: 2,
	}
	for _, m := range repStores {
		if err := slayout.WriteRecord(nil, m, rec); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := shard.New(repStores, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	te = nil
	if err := rs.AdoptLayout(nil); !errors.As(err, &te) {
		t.Fatalf("adopting an R=2 record single-copy: %v, want TopologyError", err)
	} else if te.RecordReplicas != 2 || te.Replicas != 1 {
		t.Fatalf("TopologyError = %+v, want 2 vs 1", te)
	}

	// A replicated deployment that never migrated pins its factor at
	// first adoption: a stable epoch-0 v2 record lands on every store,
	// so a later single-copy open is the same typed error — not a
	// silent replication downgrade (there used to be no record at all
	// before the first migration, so nothing caught it).
	pinStores, pinMems := memStores(3)
	pin, err := shard.New(pinStores, shard.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pin.AdoptLayout(nil); err != nil {
		t.Fatal(err)
	}
	for i, m := range pinMems {
		raw, err := backend.ReadFile(m, slayout.RecordName)
		if err != nil {
			t.Fatalf("store %d: factor not pinned: %v", i, err)
		}
		if !bytes.HasPrefix(raw, []byte("lamassu-layout v2\n")) {
			t.Fatalf("store %d: pinned record is not v2: %q", i, raw[:min(int64(len(raw)), 40)])
		}
	}
	again, err := shard.New(pinStores, shard.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := again.AdoptLayout(nil); err != nil {
		t.Fatalf("re-adopting the pinned record at R=2: %v", err)
	}
	if got := again.Epoch(); got != 0 {
		t.Fatalf("pinned record adopted as epoch %d, want 0", got)
	}
	down, err := shard.New(pinStores, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	te = nil
	if err := down.AdoptLayout(nil); !errors.As(err, &te) {
		t.Fatalf("single-copy open of a pinned R=2 deployment: %v, want TopologyError", err)
	} else if te.RecordReplicas != 2 || te.Replicas != 1 {
		t.Fatalf("TopologyError = %+v, want 2 vs 1", te)
	}

	// Regression: a record needing more slots than were mounted is a
	// typed error naming both counts, not an out-of-range index.
	wide := slayout.Record{
		Epoch: 3, State: slayout.StateStable,
		Shards: 5, Vnodes: shard.DefaultVnodes, Replicas: 2,
	}
	fewStores, _ := memStores(3)
	for _, m := range fewStores {
		if err := slayout.WriteRecord(nil, m, wide); err != nil {
			t.Fatal(err)
		}
	}
	few, err := shard.New(fewStores, shard.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	te = nil
	if err := few.AdoptLayout(nil); !errors.As(err, &te) {
		t.Fatalf("adopting a 5-shard record over 3 stores: %v, want TopologyError", err)
	} else if te.RecordShards != 5 || te.Mounted != 3 {
		t.Fatalf("TopologyError = %+v, want 5 vs 3", te)
	}
}

// Config validation: the factor must fit the store list.
func TestReplicaConfigErrors(t *testing.T) {
	stores, _ := memStores(2)
	if _, err := shard.New(stores, shard.Config{Replicas: 3}); err == nil {
		t.Fatal("Replicas=3 over 2 stores succeeded")
	}
	if _, err := shard.New(stores, shard.Config{Replicas: -1}); err == nil {
		t.Fatal("Replicas=-1 succeeded")
	}
	// A replicated migration cannot shrink below the factor.
	s, _, _ := replicatedStores(t, 3, 2, 0)
	if err := s.BeginMigration(context.Background(), s.Shards()[:1], shard.MigrateHooks{}); err == nil {
		t.Fatal("shrink below the replication factor succeeded")
	}
}

// TestReplicaOutageSoak is the nightly kill-one-shard-forever soak
// (gated out of tier-1 by LAMASSU_SOAK): a full encryption engine over
// a replicated sharded store, a random shard killed permanently
// mid-workload, the workload carrying on with zero caller-visible
// errors, then repair-and-verify with direct readback.
func TestReplicaOutageSoak(t *testing.T) {
	if os.Getenv("LAMASSU_SOAK") == "" {
		t.Skip("set LAMASSU_SOAK=1 (nightly CI) to run the replica outage soak")
	}
	iters := 20
	if v := os.Getenv("LAMASSU_SOAK_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			iters = n
		}
	}
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(7000 + iter)))
		shards := 3 + rng.Intn(2)
		ss, faults, mems := replicatedStores(t, shards, 2, 1024*int64(1+rng.Intn(3)))
		lfs, err := core.New(ss, core.Config{Inner: testKey(1), Outer: testKey(2), Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		writeOne := func(i int) {
			name := fmt.Sprintf("soak-%03d", i%12)
			data := make([]byte, 200+rng.Intn(9000))
			rng.Read(data)
			files[name] = data
			if err := vfs.WriteAll(lfs, name, data); err != nil {
				t.Fatalf("iter %d: write %s: %v", iter, name, err)
			}
		}
		for i := 0; i < 12; i++ {
			writeOne(i)
		}
		victim := rng.Intn(shards)
		faults[victim].ArmDownAll()
		for i := 0; i < 24; i++ {
			writeOne(i)
			name := fmt.Sprintf("soak-%03d", rng.Intn(12))
			got, err := vfs.ReadAll(lfs, name)
			if err != nil || !bytes.Equal(got, files[name]) {
				t.Fatalf("iter %d: read %s with shard %d down: %v", iter, name, victim, err)
			}
		}
		faults[victim].DisarmDown()
		if _, err := ss.Scrub(context.Background()); err != nil {
			t.Fatalf("iter %d: scrub: %v", iter, err)
		}
		_ = mems
		for k := range faults {
			faults[k].ArmDownAll()
			for name, want := range files {
				got, err := vfs.ReadAll(lfs, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("iter %d: read %s with shard %d down after scrub: %v", iter, name, k, err)
				}
			}
			faults[k].DisarmDown()
		}
	}
}
