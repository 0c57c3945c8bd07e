package shard_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
	"lamassu/internal/shard"
	shardlayout "lamassu/internal/shard/layout"
)

var errLeafDown = errors.New("injected: leaf down")

// sizeRig is a striped store over four scheduled leaves holding one sparse
// file: 100 bytes of stripe 0 (the home group) and 100 bytes of a far
// stripe chosen so that one leaf outside the home group holds a stripe
// (far), one holds nothing (empty), and shrinking the store to three
// leaves relocates the far stripe onto the empty one.
type sizeRig struct {
	s      *shard.Store
	sched  *faultfs.Scheduler
	seen   []faultfs.Event // the leaf calls since reset
	mems   []*backend.MemStore
	home   []int // owners of stripe 0; home[0] is the slot Open takes eagerly
	far    int   // a leaf outside home that owns the far stripe
	empty  int   // a leaf that holds no piece of the file
	farOff int64
	size   int64
}

const (
	sizeStripe = 1024
	sizeName   = "f"
)

func newSizeRig(t *testing.T, replicas int) *sizeRig {
	t.Helper()
	r := &sizeRig{sched: faultfs.NewScheduler(faultfs.Policy{})}
	stores := make([]backend.Store, 4)
	for i := range stores {
		mem := backend.NewMemStore()
		r.mems, stores[i] = append(r.mems, mem), r.sched.Leaf(i, mem)
	}
	s, err := shard.New(stores, shard.Config{StripeBytes: sizeStripe, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	cur := s.Layout()
	next, err := shardlayout.New(1, 3, cur.Vnodes(), sizeStripe)
	if err != nil {
		t.Fatal(err)
	}
	next = next.WithReplicas(replicas)
	r.home = cur.Owners(cur.KeyOf(sizeName, 0))
	r.far, r.empty = -1, -1
	for j := int64(1); j < 512 && r.empty < 0; j++ {
		key := cur.KeyOf(sizeName, j*sizeStripe)
		owners := cur.Owners(key)
		holders := append(slices.Clone(r.home), owners...)
		far := slices.IndexFunc(owners, func(sl int) bool { return !slices.Contains(r.home, sl) })
		if far < 0 {
			continue
		}
		for _, sl := range next.Owners(key) {
			if !slices.Contains(holders, sl) && !slices.Contains(next.Owners(next.KeyOf(sizeName, 0)), sl) {
				r.far, r.empty, r.farOff = owners[far], sl, j*sizeStripe
				break
			}
		}
	}
	if r.empty < 0 {
		t.Fatal("no stripe of this name fits the rig; pick another name")
	}
	r.size = r.farOff + 100
	w, err := s.Open(sizeName, backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, r.farOff} {
		if _, err := w.WriteAt(make([]byte, 100), off); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mems[r.empty].Stat(sizeName); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("leaf %d was to hold nothing: Stat = %v", r.empty, err)
	}
	return r
}

// open opens the file through a fresh handle and zeroes the counters.
func (r *sizeRig) open(t *testing.T) backend.File {
	t.Helper()
	h, err := r.s.Open(sizeName, backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	r.reset()
	return h
}

func (r *sizeRig) reset() {
	r.sched.Take()
	r.seen = nil
}

// calls returns how many calls of kind op each leaf has seen since reset.
func (r *sizeRig) calls(op faultfs.Op) []int {
	r.seen = append(r.seen, r.sched.Take()...)
	return faultfs.CountByLeaf(r.seen, len(r.mems), op)
}

// probes returns the Stat and Open calls every leaf has seen since reset.
func (r *sizeRig) probes() (stats, opens []int) {
	return r.calls(faultfs.OpStat), r.calls(faultfs.OpOpen)
}

// isProbe reports a Stat or an Open: the by-name calls that cost a round
// trip on an object store.
func isProbe(ev *faultfs.Event) bool { return ev.Op == faultfs.OpStat || ev.Op == faultfs.OpOpen }

// down fails every probe of leaf.
func down(leaf int) faultfs.Policy {
	return faultfs.When(func(ev *faultfs.Event) bool { return ev.Leaf == leaf && isProbe(ev) }, faultfs.Fail(errLeafDown))
}

// stripeOn returns the offset of the first stripe past the far one that
// leaf owns.
func (r *sizeRig) stripeOn(leaf int) int64 {
	lay := r.s.Layout()
	for off := r.farOff + sizeStripe; ; off += sizeStripe {
		if slices.Contains(lay.Owners(lay.KeyOf(sizeName, off)), leaf) {
			return off
		}
	}
}

// rest lists the leaves outside the home group.
func (r *sizeRig) rest() []int {
	var out []int
	for i := range r.mems {
		if !slices.Contains(r.home, i) {
			out = append(out, i)
		}
	}
	return out
}

// round runs op with every probe parked and checks that the probes arrive
// in the given rounds: rounds[i] lists the leaves whose probes must all be
// in flight together before any of round i is let go.
func (r *sizeRig) round(t *testing.T, op func() error, rounds ...[]int) {
	t.Helper()
	r.sched.SetPolicy(faultfs.When(isProbe, faultfs.Park))
	done := make(chan error, 1)
	go func() { done <- op() }()
	for i, want := range rounds {
		ops := r.sched.Await(t, len(want))
		var got []int
		for _, p := range ops {
			got = append(got, p.Leaf)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("round %d probed leaves %v, want %v", i, got, want)
		}
		if i == len(rounds)-1 {
			r.sched.SetPolicy(faultfs.Policy{})
		}
		faultfs.Release(ops...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func wantSize(t *testing.T, h backend.File, want int64) {
	t.Helper()
	if got, err := h.Size(); err != nil || got != want {
		t.Fatalf("Size() = %d, %v; want %d", got, err, want)
	}
}

// TestSizeAsksEachStoreOnce pins by count that "does this store hold a
// piece of this file, and how long is it" is answered through the handle
// map: the first Size() through a handle probes every store outside the
// home group once, all of them in one round; after that Size() and a
// growing Truncate ask no leaf anything by name — no Stat, no Open — until
// the routing generation moves, and the by-name Store.Stat, which has no
// handle to remember in, costs two rounds however many leaves there are.
func TestSizeAsksEachStoreOnce(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		name := fmt.Sprintf("R%d", replicas)

		t.Run(name+"/first-touch-one-round-then-local", func(t *testing.T) {
			r := newSizeRig(t, replicas)
			h := r.open(t)
			// The eager open took home[0]; the home group's other owners
			// are consulted first, one by one, then everyone else at once.
			var rounds [][]int
			for _, sl := range r.home[1:] {
				rounds = append(rounds, []int{sl})
			}
			rounds = append(rounds, r.rest())
			r.round(t, func() error { _, err := h.Size(); return err }, rounds...)
			wantSize(t, h, r.size)
			stats, opens := r.probes()
			for i := range r.mems {
				wantOpens := 1
				if i == r.home[0] {
					wantOpens = 0
				}
				if stats[i] != 0 || opens[i] != wantOpens {
					t.Errorf("leaf %d after the first Size(): %d Stat, %d Open; want 0 and %d", i, stats[i], opens[i], wantOpens)
				}
			}

			// Ten sizes and ten growing cuts inside the far stripe: nothing
			// is asked by name, and a cut touches only the anchor group.
			r.reset()
			size := r.size
			anchors := r.s.Layout().Owners(r.s.Layout().KeyOf(sizeName, r.farOff))
			for i := 0; i < 10; i++ {
				wantSize(t, h, size)
				size++
				if err := h.Truncate(size); err != nil {
					t.Fatal(err)
				}
			}
			wantSize(t, h, size)
			stats, opens = r.probes()
			truncs := r.calls(faultfs.OpTruncate)
			for i := range r.mems {
				wantTrunc := 0
				if slices.Contains(anchors, i) {
					wantTrunc = 10
				}
				if stats[i] != 0 || opens[i] != 0 || truncs[i] != wantTrunc {
					t.Errorf("leaf %d over ten Size() and ten growing Truncate: %d Stat, %d Open, %d Truncate; want 0, 0 and %d",
						i, stats[i], opens[i], truncs[i], wantTrunc)
				}
			}

			// A stripe this handle creates on the leaf that probed empty
			// clears the mark: one create-open there, and the next Size()
			// counts it.
			off := r.stripeOn(r.empty)
			r.reset()
			if _, err := h.WriteAt([]byte("tail"), off); err != nil {
				t.Fatal(err)
			}
			wantSize(t, h, off+4)
			if got := r.calls(faultfs.OpOpen)[r.empty]; got != 1 {
				t.Errorf("creating the stripe on the empty leaf opened it %d times, want 1", got)
			}
			if got, err := r.mems[r.empty].Stat(sizeName); err != nil || got != off+4 {
				t.Errorf("the empty leaf's new stripe: Stat = %d, %v; want %d", got, err, off+4)
			}
		})

		t.Run(name+"/reprobe-after-routegen", func(t *testing.T) {
			r := newSizeRig(t, replicas)
			h := r.open(t)
			wantSize(t, h, r.size) // probes r.empty and remembers it holds nothing
			ctx := context.Background()
			if err := r.s.BeginMigration(ctx, r.s.Shards()[:3], shard.MigrateHooks{}); err != nil {
				t.Fatal(err)
			}
			if _, err := r.s.RunMover(ctx); err != nil {
				t.Fatal(err)
			}
			if got, err := r.mems[r.empty].Stat(sizeName); err != nil || got != r.size {
				t.Fatalf("the mover was to relocate the far stripe onto leaf %d: Stat = %d, %v", r.empty, got, err)
			}
			r.reset()
			wantSize(t, h, r.size)
			if got := r.calls(faultfs.OpOpen)[r.empty]; got != 1 {
				t.Errorf("the Size() after the migration opened leaf %d %d times, want the one re-probe", r.empty, got)
			}
			r.reset()
			wantSize(t, h, r.size)
			if stats, opens := r.probes(); slices.Max(stats) != 0 || slices.Max(opens) != 0 {
				t.Errorf("a settled Size() after the migration: Stat %v, Open %v; want none", stats, opens)
			}
		})

		t.Run(name+"/fresh-handle-shrink", func(t *testing.T) {
			r := newSizeRig(t, replicas)
			h := r.open(t)
			const cut = 50
			if err := h.Truncate(cut); err != nil {
				t.Fatal(err)
			}
			if stats, _ := r.probes(); slices.Max(stats) != 0 {
				t.Errorf("a shrink through a fresh handle asked by name: Stat %v", stats)
			}
			for i, m := range r.mems {
				if got, err := m.Stat(sizeName); err == nil && got > cut {
					t.Errorf("leaf %d still holds %d bytes after Truncate(%d)", i, got, cut)
				}
			}
			if got, err := r.s.Stat(sizeName); err != nil || got != cut {
				t.Fatalf("Stat after the shrink = %d, %v; want %d", got, err, cut)
			}
		})

		t.Run(name+"/by-name-two-rounds", func(t *testing.T) {
			r := newSizeRig(t, replicas)
			r.reset()
			home := slices.Sorted(slices.Values(r.home))
			var got int64
			r.round(t, func() (err error) { got, err = r.s.Stat(sizeName); return err }, home, r.rest())
			if got != r.size {
				t.Fatalf("Stat = %d, want %d", got, r.size)
			}
			if stats, opens := r.probes(); slices.Min(stats) != 1 || slices.Max(stats) != 1 || slices.Max(opens) != 0 {
				t.Errorf("one by-name Stat: Stat %v, Open %v; want one Stat per leaf and no Open", stats, opens)
			}
		})
	}

	// A scrub repair puts a copy where the handle probed none, as the
	// mover does, and moves the routing generation as the mover does: a
	// write misses the empty leaf while it is down (so its mark stays),
	// Scrub re-creates the stripe there, and a shrink through the same
	// handle must cap that copy too.
	t.Run("R2/reprobe-after-scrub-repair", func(t *testing.T) {
		r := newSizeRig(t, 2)
		h := r.open(t)
		wantSize(t, h, r.size)
		off := r.stripeOn(r.empty)
		r.sched.SetPolicy(down(r.empty))
		if _, err := h.WriteAt([]byte("tail"), off); err != nil {
			t.Fatal(err)
		}
		r.sched.SetPolicy(faultfs.Policy{})
		if st, err := r.s.Scrub(context.Background()); err != nil || st.Repairs == 0 || st.Unrepaired != 0 {
			t.Fatalf("Scrub after the missed write: %+v, %v", st, err)
		}
		if got, err := r.mems[r.empty].Stat(sizeName); err != nil || got != off+4 {
			t.Fatalf("Scrub was to re-create the stripe on leaf %d: Stat = %d, %v", r.empty, got, err)
		}
		if err := h.Truncate(r.size); err != nil {
			t.Fatal(err)
		}
		if got, err := r.mems[r.empty].Stat(sizeName); err != nil || got > r.size {
			t.Errorf("the repaired copy after Truncate(%d): Stat = %d, %v", r.size, got, err)
		}
		if got, err := r.s.Stat(sizeName); err != nil || got != r.size {
			t.Errorf("Stat after the shrink = %d, %v; want %d", got, err, r.size)
		}
	})

	// With one leaf down the replicated Size() still answers from the
	// survivors — every stripe has another owner — and charges that slot
	// one failure per call: an error is not remembered, so the leaf is
	// asked again each time, as it was by name.
	t.Run("R2/one-leaf-down", func(t *testing.T) {
		r := newSizeRig(t, 2)
		h := r.open(t)
		r.sched.SetPolicy(down(r.far))
		for call := int64(1); call <= 3; call++ {
			wantSize(t, h, r.size)
			if got := r.s.Health()[r.far].Failures; got != call {
				t.Fatalf("after %d Size() calls the down leaf's slot has %d failures", call, got)
			}
			if got := r.calls(faultfs.OpOpen)[r.far]; int64(got) != call {
				t.Fatalf("after %d Size() calls the down leaf was opened %d times", call, got)
			}
		}
		if stats, _ := r.probes(); slices.Max(stats) != 0 {
			t.Errorf("Size() with a leaf down asked by name: Stat %v", stats)
		}
	})
}

// A stable whole-file cut pins the home group and nothing else: one
// leaf truncate per owner and no probe of any other store, so at R=1 a
// cut is one leaf call.
func TestWholeFileTruncateTouchesOnlyOwners(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			sched := faultfs.NewScheduler(faultfs.Policy{})
			stores := make([]backend.Store, 4)
			for i := range stores {
				stores[i] = sched.Leaf(i, backend.NewMemStore())
			}
			s, err := shard.New(stores, shard.Config{Replicas: r})
			if err != nil {
				t.Fatal(err)
			}
			if err := backend.WriteFile(s, sizeName, make([]byte, 5000)); err != nil {
				t.Fatal(err)
			}
			h, err := s.Open(sizeName, backend.OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			sched.Take()
			if err := h.Truncate(100); err != nil {
				t.Fatal(err)
			}
			evs := sched.Take()
			truncs, probes := faultfs.Count(evs, faultfs.OpTruncate), faultfs.Count(evs, faultfs.OpStat, faultfs.OpOpen)
			// The eager open holds one owner; the others open for the cut.
			if truncs != r || probes != r-1 {
				t.Errorf("Truncate at R=%d: %d leaf truncates, %d probes; want %d and %d", r, truncs, probes, r, r-1)
			}
			wantSize(t, h, 100)
		})
	}
}
