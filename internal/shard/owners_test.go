package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/core"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	"lamassu/internal/simclock"
	"lamassu/internal/vfs"
)

// parkWrites parks the nth WriteAt each leaf sees at offset off from
// now on (nth 0: every one; any offset when off < 0) and passes the
// rest. Parked, the test sees which writes are in flight TOGETHER — "the
// owners were issued at once" told from "one after another" by count
// instead of by time — and decides each one's fate, which is how a
// crash cut lands on an exact subset of a group's owner writes.
func parkWrites(off int64, nth int) faultfs.Policy {
	seen := make(map[int]int)
	return faultfs.When(func(ev *faultfs.Event) bool {
		if ev.Op != faultfs.OpWrite || off >= 0 && ev.Off != off {
			return false
		}
		seen[ev.Leaf]++
		return nth == 0 || seen[ev.Leaf] == nth
	}, faultfs.Park)
}

// gatedStores builds an R-way replicated store over n memory leaves
// behind one scheduler.
func gatedStores(t *testing.T, n, r int, stripe int64) (*shard.Store, *faultfs.Scheduler, []*backend.MemStore) {
	t.Helper()
	sched := faultfs.NewScheduler(faultfs.Policy{})
	stores := make([]backend.Store, n)
	mems := make([]*backend.MemStore, n)
	for i := range stores {
		mems[i] = backend.NewMemStore()
		stores[i] = sched.Leaf(i, mems[i])
	}
	s, err := shard.New(stores, shard.Config{StripeBytes: stripe, Replicas: r})
	if err != nil {
		t.Fatal(err)
	}
	return s, sched, mems
}

// TestReplicatedOwnersParkTogether: one WriteAt on a replicated store
// puts BOTH owners' leaf writes in flight before either returns — one
// round trip for R copies — and joining them changes none of the
// accounting: one replica write counted, a failing owner journaled (and
// its breaker charged) while the write still succeeds through the other,
// a canceled ctx reported as ErrCanceled with no owner blamed for it.
func TestReplicatedOwnersParkTogether(t *testing.T) {
	s, sched, mems := gatedStores(t, 3, 2, 0)
	if err := backend.WriteFile(s, "k", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	owners := s.Layout().Owners(s.Layout().KeyOf("k", 0))
	h, err := s.Open("k", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// write issues payload with every leaf write of it parked and returns
	// the parked owners in owner order plus the channel its result
	// arrives on.
	write := func(ctx context.Context, payload []byte) ([]*faultfs.Event, chan error) {
		t.Helper()
		sched.SetPolicy(parkWrites(-1, 0))
		done := make(chan error, 1)
		go func() {
			n, err := backend.WriteAtCtx(ctx, h, payload, 0)
			if err == nil && n != len(payload) {
				err = fmt.Errorf("wrote %d of %d bytes", n, len(payload))
			}
			done <- err
		}()
		ops := sched.Await(t, len(owners))
		sched.SetPolicy(faultfs.Policy{})
		byOwner := make([]*faultfs.Event, len(owners))
		for _, op := range ops {
			for i, sl := range owners {
				if op.Leaf == sl {
					byOwner[i] = op
				}
			}
		}
		for i, op := range byOwner {
			if op == nil {
				t.Fatalf("owner %d (leaf %d) has no write in flight; parked: %+v", i, owners[i], ops)
			}
		}
		return byOwner, done
	}
	copies := func(want []byte) {
		t.Helper()
		for i, sl := range owners {
			if got := readStoreRange(t, mems[sl], "k", 0, int64(len(want))); !bytes.Equal(got, want) {
				t.Fatalf("owner %d holds %q, want %q", i, got, want)
			}
		}
	}
	failures := func() (n int64) {
		for _, sh := range s.Health() {
			n += sh.Failures
		}
		return n
	}

	// Both owners in flight together; one replica write counted.
	before := s.ReplicationStats().ReplicaWrites
	ops, done := write(nil, []byte("together"))
	faultfs.Release(ops...)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	copies([]byte("together"))
	if got := s.ReplicationStats().ReplicaWrites - before; got != 1 {
		t.Fatalf("%d replica writes for one R=2 write, want 1", got)
	}

	// The PRIMARY fails: the write succeeds on the other owner, the
	// failure is charged to the primary's slot, and it is journaled —
	// Scrub with no journal entry would take the stale primary as its
	// source and undo the write instead of repairing the primary.
	ops, done = write(nil, []byte("one-down"))
	ops[0].Fail(errors.New("injected: owner 0 unreachable"))
	ops[1].Release()
	if err := <-done; err != nil {
		t.Fatalf("write with one owner failing: %v", err)
	}
	if got := s.Health()[owners[0]].Failures; got != 1 {
		t.Fatalf("failing owner's slot has %d failures, want 1", got)
	}
	st, err := s.Scrub(context.Background())
	if err != nil || st.Repairs != 1 || st.Unrepaired != 0 {
		t.Fatalf("Scrub after a journaled miss: %+v, %v; want exactly one repair", st, err)
	}
	copies([]byte("one-down"))

	// A canceled caller: both parked writes come back canceled, the call
	// reports ErrCanceled, and no slot is charged a failure for it.
	charged := failures()
	ctx, cancel := context.WithCancel(context.Background())
	ops, done = write(ctx, []byte("canceled"))
	cancel()
	for _, op := range ops {
		op.Fail(backend.CtxErr(ctx))
	}
	if err := <-done; !errors.Is(err, backend.ErrCanceled) {
		t.Fatalf("canceled write returned %v, want ErrCanceled", err)
	}
	if got := failures(); got != charged {
		t.Fatalf("a canceled write charged %d slot failures", got-charged)
	}
	copies([]byte("one-down"))
}

// TestReplicatedOwnersQueueDepth: QueueDepth gauges the leaf calls in
// flight per slot, so while both owners of one R=2 WriteAt are parked
// each owner's slot reads 1 and the other slot 0, and every slot reads
// 0 once the write returns.
func TestReplicatedOwnersQueueDepth(t *testing.T) {
	s, sched, _ := gatedStores(t, 3, 2, 0)
	if err := backend.WriteFile(s, "k", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	owners := s.Layout().Owners(s.Layout().KeyOf("k", 0))
	h, err := s.Open("k", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	depths := func() []int64 {
		var out []int64
		for _, st := range s.Stats() {
			out = append(out, st.QueueDepth)
		}
		return out
	}

	sched.SetPolicy(parkWrites(-1, 0))
	done := make(chan error, 1)
	go func() {
		_, err := h.WriteAt([]byte("parked"), 0)
		done <- err
	}()
	ops := sched.Await(t, len(owners))
	sched.SetPolicy(faultfs.Policy{})
	want := make([]int64, 3)
	for _, sl := range owners {
		want[sl] = 1
	}
	if got := depths(); !slices.Equal(got, want) {
		t.Errorf("queue depths with owners %v parked: %v, want %v", owners, got, want)
	}
	faultfs.Release(ops...)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := depths(); !slices.Equal(got, make([]int64, 3)) {
		t.Fatalf("queue depths after the write returned: %v, want all 0", got)
	}
}

var (
	errLoSlot = errors.New("injected: lower slot's flush")
	errHiSlot = errors.New("injected: higher slot's flush")
)

// slowComplete holds every Complete for a millisecond, so barriers on
// one object started together overlap unless something orders them.
type slowComplete struct{ *objstore.Memserver }

func (s slowComplete) Complete(ctx context.Context, key, id string, size int64) error {
	time.Sleep(time.Millisecond)
	return s.Memserver.Complete(ctx, key, id, size)
}

// TestSyncFlushesShardsTogether: a barrier flushes every shard handle
// the file touched in ONE round — four handles, four flushes in flight —
// and reports the lowest slot's error whichever failed first in time.
// Carved slots are the case that made this need a fix below it: four
// slots over one object store are four handles on one staged state, and
// flushed together they must still Complete its session exactly once.
func TestSyncFlushesShardsTogether(t *testing.T) {
	const shards, stripe = 4, 1024
	payload := make([]byte, 16*stripe) // enough stripes to land on every shard
	rand.New(rand.NewSource(5)).Read(payload)

	t.Run("one-round", func(t *testing.T) {
		s, sched, _ := gatedStores(t, shards, 1, stripe)
		h, err := s.Open("f", backend.OpenCreate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		sched.SetPolicy(faultfs.When(func(ev *faultfs.Event) bool { return ev.Op == faultfs.OpSync }, faultfs.Park))
		sync := func(fates map[int]error, order []int) error {
			t.Helper()
			done := make(chan error, 1)
			go func() { done <- h.Sync() }()
			byLeaf := make(map[int]*faultfs.Event, shards)
			for _, op := range sched.Await(t, shards) {
				byLeaf[op.Leaf] = op
			}
			if len(byLeaf) != shards {
				t.Fatalf("flushes parked on %d distinct shards, want %d", len(byLeaf), shards)
			}
			for _, leaf := range order {
				byLeaf[leaf].Fail(fates[leaf])
			}
			return <-done
		}
		if err := sync(nil, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		for _, st := range s.Stats() {
			if st.Syncs != 1 {
				t.Fatalf("shard %d counted %d syncs after one barrier, want 1", st.Shard, st.Syncs)
			}
		}
		// Slot 3 fails first in time, slot 1 last: slot 1's error is the
		// barrier's, and the two flushes that worked are still counted.
		err = sync(map[int]error{1: errLoSlot, 3: errHiSlot}, []int{3, 0, 2, 1})
		if !errors.Is(err, errLoSlot) {
			t.Fatalf("barrier reported %v, want the lowest failing slot's error", err)
		}
		for _, st := range s.Stats() {
			if want := int64(1 + (1 - st.Shard%2)); st.Syncs != want {
				t.Fatalf("shard %d counted %d syncs, want %d", st.Shard, st.Syncs, want)
			}
		}
		sched.SetPolicy(faultfs.Policy{})
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("carved-completes-once", func(t *testing.T) {
		srv := objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual())
		obj := objstore.New(slowComplete{srv})
		s, err := shard.New([]backend.Store{obj, obj, obj, obj}, shard.Config{StripeBytes: stripe})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Open("f", backend.OpenCreate)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			rand.New(rand.NewSource(int64(round))).Read(payload)
			if _, err := h.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
			before := srv.Stats().Completes
			if err := h.Sync(); err != nil {
				t.Fatalf("barrier %d: %v", round, err)
			}
			if st := srv.Stats(); st.Completes-before != 1 || st.OpenUploads != 0 {
				t.Fatalf("barrier %d: %d Completes, %d sessions left open; want 1 and 0",
					round, st.Completes-before, st.OpenUploads)
			}
			if got, _ := srv.Object("f"); !bytes.Equal(got, payload) {
				t.Fatalf("barrier %d returned but the object does not hold the write", round)
			}
		}
		// Close is a barrier too: the staged tail commits once.
		if _, err := h.WriteAt([]byte("tail"), 0); err != nil {
			t.Fatal(err)
		}
		before := srv.Stats().Completes
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Completes-before != 1 || st.OpenUploads != 0 {
			t.Fatalf("close: %d Completes, %d sessions left open; want 1 and 0", st.Completes-before, st.OpenUploads)
		}
	})
}

// TestReplicatedOwnerSubsetCut is the safety argument for writing a
// key's owners together (see writeRangeReplicated). One after another,
// owners gave "owner 0 has it whenever owner 1 does" at a crash; together
// they give each owner an arbitrary subset. So: park both owner writes of
// one backend operation of a core commit — a phase-2 data extent, the
// phase-1 metadata write, the phase-3 metadata write — let exactly a
// subset of them land, cut everything else (a cancel is a crash cut, and
// the scheduler's Cut refuses whatever the dying engine still issues),
// throw the shard.Store away with its journal and breakers, and reboot
// over the same leaves. Recovery then has to hold through the whole
// store AND through each replica alone: Recover and a clean Check, a
// Scrub that leaves nothing unrepaired, and with each leaf killed in
// turn the same bytes, every block a value the workload wrote.
func TestReplicatedOwnerSubsetCut(t *testing.T) {
	geo, err := layout.NewGeometry(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	const leaves, bs = 3, 512
	nBlocks := 2 * geo.KeysPerSegment()
	cfg := core.Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Parallelism: 1, IOWindow: 1}
	rng := rand.New(rand.NewSource(17))
	initial := make([]byte, nBlocks*bs)
	rng.Read(initial)
	// The commit under test overwrites blocks 1 and 2 of segment 0:
	// transient keys out (phase 1), one data extent (phase 2), stable
	// keys in (phase 3).
	update := make([]byte, 2*bs)
	rng.Read(update)
	legit := func(b int, got []byte) bool {
		if bytes.Equal(got, initial[b*bs:(b+1)*bs]) {
			return true
		}
		return (b == 1 || b == 2) && bytes.Equal(got, update[(b-1)*bs:b*bs])
	}
	targets := []struct {
		name string
		off  int64
		nth  int // which write at off, counted per leaf from the arming
	}{
		{"data-extent", geo.DataBlockOffset(1), 1},
		{"phase1-meta", geo.MetaBlockOffset(0), 1},
		{"phase3-meta", geo.MetaBlockOffset(0), 2},
	}
	for _, target := range targets {
		for subset := 0; subset < 4; subset++ {
			lands := [2]bool{subset&1 != 0, subset&2 != 0}
			t.Run(fmt.Sprintf("%s/owner0=%v,owner1=%v", target.name, lands[0], lands[1]), func(t *testing.T) {
				s, sched, mems := gatedStores(t, leaves, 2, geo.SegmentPhysBytes())
				lfs, err := core.New(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := vfs.WriteAll(lfs, "f", initial); err != nil {
					t.Fatal(err)
				}
				owners := s.Layout().Owners(s.Layout().KeyOf("f", target.off))

				sched.SetPolicy(parkWrites(target.off, target.nth))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan error, 1)
				go func() {
					fw, err := lfs.OpenRWCtx(ctx, "f")
					if err != nil {
						done <- err
						return
					}
					_, err = fw.WriteAtCtx(ctx, update, bs)
					if err == nil {
						err = fw.SyncCtx(ctx)
					}
					_ = fw.Close() // a dead process closes nothing; errors expected
					done <- err
				}()
				ops := sched.Await(t, 2)
				// The cut: the chosen owners' writes were on the wire and
				// land, everything else dies with the process.
				cancel()
				sched.Cut()
				for _, op := range ops {
					switch op.Leaf {
					case owners[0], owners[1]:
					default:
						t.Fatalf("leaf %d parked a write of a key owned by %v", op.Leaf, owners)
					}
					if lands[0] && op.Leaf == owners[0] || lands[1] && op.Leaf == owners[1] {
						op.Release()
					} else {
						op.Fail(backend.CtxErr(ctx))
					}
				}
				if err := <-done; !errors.Is(err, backend.ErrCanceled) {
					t.Fatalf("cut commit returned %v, want ErrCanceled", err)
				}

				// The cut landed where it was aimed: the two owners' copies
				// of the segment differ exactly when one write landed and
				// the other did not.
				seg := geo.SegmentPhysBytes()
				diverged := !bytes.Equal(readStoreRange(t, mems[owners[0]], "f", 0, seg),
					readStoreRange(t, mems[owners[1]], "f", 0, seg))
				if diverged != (lands[0] != lands[1]) {
					t.Fatalf("owners' copies diverged = %v after landing %v", diverged, lands)
				}

				// Reboot: a fresh shard.Store (no journal, closed breakers)
				// over the same leaves, each now behind a kill switch.
				stores := make([]backend.Store, leaves)
				faults := make([]*faultfs.Store, leaves)
				for i, m := range mems {
					faults[i] = faultfs.New(m)
					stores[i] = faults[i]
				}
				rs, err := shard.New(stores, shard.Config{StripeBytes: geo.SegmentPhysBytes(), Replicas: 2})
				if err != nil {
					t.Fatal(err)
				}
				rfs, err := core.New(rs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rfs.Recover("f"); err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if rep, err := rfs.Check("f"); err != nil || !rep.Clean() {
					t.Fatalf("Check after Recover: %+v, %v", rep, err)
				}
				if st, err := rs.Scrub(context.Background()); err != nil || st.Unrepaired != 0 {
					t.Fatalf("Scrub: %+v, %v", st, err)
				}
				var peer []byte
				for k := range faults {
					faults[k].ArmDownAll()
					// A fresh engine per survivor: nothing cached while the
					// other replica was alive may answer for this one.
					sfs, err := core.New(rs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := vfs.ReadAll(sfs, "f")
					if err != nil || len(got) != len(initial) {
						t.Fatalf("leaf %d down: read %d bytes, %v", k, len(got), err)
					}
					for b := 0; b < nBlocks; b++ {
						if !legit(b, got[b*bs:(b+1)*bs]) {
							t.Fatalf("leaf %d down: block %d holds a value the workload never produced", k, b)
						}
					}
					if peer != nil && !bytes.Equal(got, peer) {
						t.Fatalf("leaf %d down: the survivors serve different bytes than with leaf %d down", k, k-1)
					}
					peer = got
					faults[k].DisarmDown()
				}
			})
		}
	}
}
