package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	placement "lamassu/internal/shard/layout"
	"lamassu/internal/vfs"
)

// rawDump snapshots every store's raw namespace, layout records
// excluded (they are online-rebalance bookkeeping, not data layout).
func rawDump(t *testing.T, stores []backend.Store) []map[string][]byte {
	t.Helper()
	out := make([]map[string][]byte, len(stores))
	for i, s := range stores {
		names, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = map[string][]byte{}
		for _, n := range names {
			if placement.IsReserved(n) {
				continue
			}
			data, err := backend.ReadFile(s, n)
			if err != nil {
				t.Fatal(err)
			}
			out[i][n] = data
		}
	}
	return out
}

// rawClone copies each store's complete raw content into a fresh
// MemStore, building byte-identical starting points for A/B runs.
func rawClone(t *testing.T, stores []backend.Store) []backend.Store {
	t.Helper()
	out := make([]backend.Store, len(stores))
	for i, s := range stores {
		dst := backend.NewMemStore()
		names, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			data, err := backend.ReadFile(s, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := backend.WriteFile(dst, n, data); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = dst
	}
	return out
}

// compareDumps asserts two deployments hold byte-identical data files
// slot by slot.
func compareDumps(t *testing.T, label string, got, want []map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots vs %d", label, len(got), len(want))
	}
	for i := range want {
		for n, wantData := range want[i] {
			gotData, ok := got[i][n]
			if !ok {
				t.Fatalf("%s: slot %d missing %q", label, i, n)
			}
			if !bytes.Equal(gotData, wantData) {
				t.Fatalf("%s: slot %d file %q diverges (%d vs %d bytes)", label, i, n, len(gotData), len(wantData))
			}
		}
		for n := range got[i] {
			if _, ok := want[i][n]; !ok {
				t.Fatalf("%s: slot %d holds unexpected %q", label, i, n)
			}
		}
	}
}

// Growing 2 -> 3 shards ONLINE converges to the pinned relocation
// layout (RelocationGolden: the bytes the retired offline pass produced
// for the same fixture) and passes the placement oracle, for both
// whole-file and striped placement, and the deployment reopens at the
// committed epoch. (The name keeps its "MatchesOffline": the golden IS
// the offline pass's output.)
func TestOnlineRebalanceGrowMatchesOffline(t *testing.T) {
	for _, stripe := range []int64{0, 4096} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			row := relocationRow{from: 2, to: 3, replicas: 1, stripe: stripe}
			onAll, cfg, raw := row.build(t)
			onStores := onAll[:2]
			on, err := shard.New(onStores, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := on.BeginMigration(ctx, onAll, shard.MigrateHooks{}); err != nil {
				t.Fatal(err)
			}
			if !on.Migrating() {
				t.Fatal("BeginMigration did not enter dual-ring mode")
			}
			stats, err := on.RunMover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.MovedStripes == 0 {
				t.Fatal("growth moved nothing; the new shard would stay empty")
			}
			if on.Migrating() {
				t.Fatal("migration still active after RunMover")
			}
			if on.Epoch() != 1 {
				t.Fatalf("Epoch = %d after commit, want 1", on.Epoch())
			}

			row.assertRelocated(t, "online", onAll, on, raw)
			verifyRaw(t, on, raw)

			// Reopening with the new topology adopts the committed epoch.
			fresh, err := shard.New(onAll, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AdoptLayout(nil); err != nil {
				t.Fatal(err)
			}
			if fresh.Epoch() != 1 || fresh.Migrating() {
				t.Fatalf("reopen: epoch %d migrating %v", fresh.Epoch(), fresh.Migrating())
			}
			verifyRaw(t, fresh, raw)

			// Reopening with a stale topology is rejected.
			stale, err := shard.New(onStores, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := stale.AdoptLayout(nil); err == nil {
				t.Fatal("adopting a 3-shard deployment with 2 stores succeeded")
			}
		})
	}
}

// A mount keeps serving correct reads AND absorbing writes at every
// copy boundary of the mover: the gated hooks pause the mover after
// each confirmed key while the test reads every file back and
// overwrites live ranges, comparing against an in-memory model
// throughout. Dual-ring bookkeeping must show real fallback traffic.
func TestOnlineRebalanceServesDuringMigration(t *testing.T) {
	cfg := shard.Config{StripeBytes: 4096}
	base, _ := memStores(2)
	ss, err := shard.New(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, ss, 52)
	fs, err := core.New(ss, core.Config{Inner: testKey(1), Outer: testKey(2)})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range contents {
		names = append(names, n)
	}

	checkAll := func(when string) {
		t.Helper()
		for _, n := range names {
			got, err := vfs.ReadAll(fs, n)
			if err != nil {
				t.Fatalf("%s: read %s: %v", when, n, err)
			}
			if !bytes.Equal(got, contents[n]) {
				t.Fatalf("%s: %s diverged from the model", when, n)
			}
		}
	}
	rng := rand.New(rand.NewSource(97))
	mutate := func() {
		t.Helper()
		// Overwrite a live 4 KiB-aligned range of a non-empty file (no
		// grows: the workload must not change any file's size while the
		// mover holds its file lock).
		for tries := 0; tries < 20; tries++ {
			n := names[rng.Intn(len(names))]
			if len(contents[n]) < 4096 {
				continue
			}
			off := int64(rng.Intn(len(contents[n])/4096)) * 4096
			blk := make([]byte, 4096)
			rng.Read(blk)
			end := min(int(off)+len(blk), len(contents[n]))
			f, err := fs.OpenRW(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(blk[:end-int(off)], off); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			copy(contents[n][off:end], blk)
			return
		}
	}

	step := make(chan struct{})
	resume := make(chan struct{})
	hooks := shard.MigrateHooks{OnKeyMoved: func(string) { step <- struct{}{}; <-resume }}
	grown := append(append([]backend.Store(nil), base...), backend.NewMemStore())
	if err := ss.BeginMigration(context.Background(), grown, hooks); err != nil {
		t.Fatal(err)
	}
	checkAll("pre-mover dual-ring")
	mutate()
	checkAll("after dual-ring write")

	moverDone := make(chan error, 1)
	go func() {
		_, err := ss.RunMover(context.Background())
		moverDone <- err
	}()
	boundaries := 0
loop:
	for {
		select {
		case <-step:
			boundaries++
			checkAll(fmt.Sprintf("boundary %d", boundaries))
			mutate()
			checkAll(fmt.Sprintf("boundary %d after write", boundaries))
			resume <- struct{}{}
		case err := <-moverDone:
			if err != nil {
				t.Fatalf("mover: %v", err)
			}
			break loop
		}
	}
	if boundaries == 0 {
		t.Fatal("mover confirmed no keys; the sweep tested nothing")
	}
	checkAll("after commit")
	if ss.Epoch() != 1 || ss.Migrating() {
		t.Fatalf("epoch %d migrating %v after commit", ss.Epoch(), ss.Migrating())
	}
	st := ss.MigrationStatus()
	if st.Active {
		t.Fatal("status still active after commit")
	}
	verify(t, ss, contents)
}

// The acceptance crash sweep: kill the mover at EVERY copy boundary
// (simulated process death — the in-memory confirmation set is
// discarded), then reopen the deployment on either epoch:
//
//   - with the OLD store list, it serves the previous epoch, complete;
//   - with the full list, it resumes dual-ring mode mid-migration,
//     serves everything, and rerunning the mover converges to the
//     pinned relocation layout (RelocationGolden) and the placement
//     oracle, whichever boundary it was killed at.
func TestMoverCrashSweepEitherEpoch(t *testing.T) {
	row := relocationRow{from: 2, to: 3, replicas: 1, stripe: 4096}
	built, cfg, raw := row.build(t)
	base := built[:2]

	// Count the copy boundaries with a dry full run.
	dryStores := rawClone(t, base)
	dry, _ := shard.New(dryStores, cfg)
	total := 0
	dryAll := append(append([]backend.Store(nil), dryStores...), backend.NewMemStore())
	if err := dry.BeginMigration(context.Background(), dryAll,
		shard.MigrateHooks{OnKeyMoved: func(string) { total++ }}); err != nil {
		t.Fatal(err)
	}
	if _, err := dry.RunMover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total < 3 {
		t.Fatalf("only %d copy boundaries; widen the workload", total)
	}

	stride := 1
	if testing.Short() {
		stride = 3
	}
	for k := 1; k <= total; k += stride {
		stores := rawClone(t, base)
		all := append(append([]backend.Store(nil), stores...), backend.NewMemStore())
		ss, err := shard.New(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		hooks := shard.MigrateHooks{OnKeyMoved: func(string) {
			if n++; n == k {
				cancel()
			}
		}}
		if err := ss.BeginMigration(ctx, all, hooks); err != nil {
			t.Fatalf("k=%d: begin: %v", k, err)
		}
		if _, err := ss.RunMover(ctx); !errors.Is(err, backend.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: mover returned %v, want ErrCanceled wrapping context.Canceled", k, err)
		}
		cancel()

		// Reopen on the OLD epoch: the 2 original stores serve epoch 0,
		// complete (dual-writes and deferred reaping kept them whole).
		oldView, err := shard.New(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := oldView.AdoptLayout(nil); err != nil {
			t.Fatalf("k=%d: reopen old epoch: %v", k, err)
		}
		if oldView.Epoch() != 0 || oldView.Migrating() {
			t.Fatalf("k=%d: old view epoch %d migrating %v", k, oldView.Epoch(), oldView.Migrating())
		}
		verifyRaw(t, oldView, raw)

		// Reopen on the NEW epoch (full list): dual-ring mode resumes,
		// everything is readable mid-migration, and the rerun converges.
		resumed, err := shard.New(all, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.AdoptLayout(nil); err != nil {
			t.Fatalf("k=%d: reopen union: %v", k, err)
		}
		if !resumed.Migrating() {
			t.Fatalf("k=%d: union reopen did not resume the migration", k)
		}
		if st := resumed.MigrationStatus(); st.Epoch != 0 || st.TargetEpoch != 1 {
			t.Fatalf("k=%d: resumed status %+v", k, st)
		}
		verifyRaw(t, resumed, raw)
		if _, err := resumed.RunMover(context.Background()); err != nil {
			t.Fatalf("k=%d: resumed mover: %v", k, err)
		}
		if resumed.Epoch() != 1 || resumed.Migrating() {
			t.Fatalf("k=%d: post-resume epoch %d migrating %v", k, resumed.Epoch(), resumed.Migrating())
		}
		verifyRaw(t, resumed, raw)
		row.assertRelocated(t, fmt.Sprintf("k=%d final layout", k), all, resumed, raw)
	}
}

// readerKey marks the ctx of the open TestOpenRoutedBeforeReap parks.
type readerKey struct{}

// TestOpenRoutedBeforeReap is the mid-migration open race, made
// deterministic: a reader's open routes to the previous epoch's owner of
// an unconfirmed key and parks there on the scheduler; the mover then
// confirms the key, commits the epoch and reaps that owner's copy; only
// then does the open reach the leaf. The copy it was routed to is gone,
// and routeGen has moved across the miss, so the open routes once more
// — to the new owner — instead of reporting a file that every epoch
// holds as missing.
func TestOpenRoutedBeforeReap(t *testing.T) {
	const stripe = 1 << 20 // every file is one key
	sched := faultfs.NewScheduler(faultfs.Policy{})
	mems := make([]*backend.MemStore, 3)
	leaves := make([]backend.Store, 3)
	for i := range leaves {
		mems[i] = backend.NewMemStore()
		leaves[i] = sched.Leaf(i, mems[i])
	}
	s, err := shard.New(leaves[:2], shard.Config{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, s, 61)
	prev := s.Layout()
	ctx := context.Background()
	if err := s.BeginMigration(ctx, leaves, shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	// A file that moves to the new store: the mover copies it there and
	// reaps the old home's copy.
	cur := s.Layout()
	name, from := "", -1
	for _, n := range slices.Sorted(maps.Keys(contents)) {
		if cur.Owner(cur.KeyOf(n, 0)) == 2 {
			name, from = n, prev.Owner(prev.KeyOf(n, 0))
			break
		}
	}
	if name == "" {
		t.Fatal("no file's home moves to the new store; populate another seed")
	}

	sched.SetPolicy(faultfs.When(func(ev *faultfs.Event) bool {
		return ev.Op == faultfs.OpOpen && ev.Ctx != nil && ev.Ctx.Value(readerKey{}) != nil
	}, faultfs.Park))
	type opened struct {
		f   backend.File
		err error
	}
	done := make(chan opened, 1)
	go func() {
		f, err := s.OpenCtx(context.WithValue(ctx, readerKey{}, true), name, backend.OpenRead)
		done <- opened{f, err}
	}()
	ev := sched.Await(t, 1)[0]
	if ev.Leaf != from {
		t.Fatalf("the reader's open parked on leaf %d, want the previous home %d", ev.Leaf, from)
	}
	if _, err := s.RunMover(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Migrating() {
		t.Fatal("the epoch did not commit")
	}
	if _, err := mems[from].Stat(name); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("the previous home still holds %s after the reap: %v", name, err)
	}
	sched.SetPolicy(faultfs.Policy{})
	ev.Release()
	r := <-done
	if r.err != nil {
		t.Fatalf("open routed before the reap: %v", r.err)
	}
	defer r.f.Close()
	verify(t, s, contents)
}

// Rebalance — begin, run the mover, wait — honors ctx between key
// copies: a canceled pass returns ErrCanceled cut at a copy boundary
// with the migration persisted, and the rerun converges to the verified
// layout, on the same Store objects (a retry in-process) and on fresh
// ones (a new process: the migrating record plus the old store list
// adopts the previous epoch and starts the migration over).
func TestOfflineRebalanceCtxCancelConverges(t *testing.T) {
	for _, rerun := range []string{"same objects", "fresh objects"} {
		t.Run(rerun, func(t *testing.T) {
			cfg := shard.Config{StripeBytes: 4096}
			base, _ := memStores(2)
			old, err := shard.New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			contents := populate(t, old, 54)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Growth moves keys only onto the new shard, so counting its
			// writes interrupts the pass partway deterministically (the
			// first write is the migrating record, the second a copy).
			sched := faultfs.NewScheduler(faultfs.CancelAfter(faultfs.OpWrite, 2, cancel))
			all := append(append([]backend.Store(nil), base...), sched.Leaf(0, backend.NewMemStore()))
			grown, err := shard.New(all, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = shard.RebalanceCtx(ctx, old, grown)
			if !errors.Is(err, backend.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled rebalance returned %v", err)
			}
			if n := faultfs.Count(sched.Take(), faultfs.OpWrite); n < 2 {
				t.Fatalf("pass stopped after %d writes, before the trigger", n)
			}
			if st := old.MigrationStatus(); !st.Active || st.MovedKeys == 0 {
				t.Fatalf("cancellation did not cut a running migration: %+v", st)
			}

			if rerun == "fresh objects" {
				if old, err = shard.New(base, cfg); err != nil {
					t.Fatal(err)
				}
				if grown, err = shard.New(all, cfg); err != nil {
					t.Fatal(err)
				}
			}
			// Rerun with a live context: converges, then a settled pass
			// is a no-op.
			if _, err := shard.RebalanceCtx(context.Background(), old, grown); err != nil {
				t.Fatal(err)
			}
			verify(t, grown, contents)
			st, err := shard.RebalanceCtx(context.Background(), grown, grown)
			if err != nil {
				t.Fatal(err)
			}
			if st.MovedStripes != 0 {
				t.Fatalf("settled pass moved %d stripes", st.MovedStripes)
			}
			verify(t, grown, contents)
		})
	}
}

// A second BeginMigration while the mover runs would replace the hooks
// the mover reads unlocked; it is refused instead (under -race this
// test is the proof: the resume below used to write what the parked
// mover goroutine reads).
func TestBeginMigrationWhileMoverRuns(t *testing.T) {
	base, _ := memStores(2)
	ss, err := shard.New(base, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, ss, 57)
	grown := append(append([]backend.Store(nil), base...), backend.NewMemStore())
	parked, release := make(chan struct{}), make(chan struct{})
	first := true
	hooks := shard.MigrateHooks{OnKeyMoved: func(string) {
		if first {
			first = false
			close(parked)
			<-release
		}
	}}
	ctx := context.Background()
	if err := ss.BeginMigration(ctx, grown, hooks); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ss.RunMover(ctx)
		done <- err
	}()
	<-parked
	if err := ss.BeginMigration(ctx, grown, shard.MigrateHooks{}); err == nil || !strings.Contains(err.Error(), "mover already running") {
		t.Errorf("BeginMigration under a running mover returned %v", err)
	}
	other, err := shard.New(grown, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.RebalanceCtx(ctx, ss, other); err == nil {
		t.Error("Rebalance over a store whose mover is running succeeded")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the mover gone the same call is the documented no-op.
	if st, err := shard.RebalanceCtx(ctx, ss, other); err != nil || st != (shard.RebalanceStats{}) {
		t.Fatalf("settled rebalance: %+v, %v", st, err)
	}
}

// Resuming a migration re-arms its hooks while the data path keeps
// serving dual-ring reads. The events those reads count go through the
// store's recorder, so the resume shares no field with them (under
// -race this test is the proof: the resume used to plain-write the
// migration's recorder, which every fallback read loaded).
func TestBeginMigrationResumeWhileReadsFallBack(t *testing.T) {
	base, _ := memStores(2)
	ss, err := shard.New(base, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, ss, 58)
	grown := append(append([]backend.Store(nil), base...), backend.NewMemStore())
	ctx := context.Background()
	if err := ss.BeginMigration(ctx, grown, shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	// No mover runs: every relocated key stays unconfirmed, so reads of
	// it fall back to the previous owner for the whole test.
	fs, err := core.New(ss, core.Config{Inner: testKey(1), Outer: testKey(2)})
	if err != nil {
		t.Fatal(err)
	}
	stop, firstPass := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; ; pass++ {
			for name, want := range contents {
				got, err := vfs.ReadAll(fs, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("mid-migration read of %s: %d bytes, %v", name, len(got), err)
					return
				}
			}
			if pass == 0 {
				close(firstPass)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-firstPass
	for i := 0; i < 50; i++ {
		if err := ss.BeginMigration(ctx, grown, shard.MigrateHooks{}); err != nil {
			t.Errorf("resume %d: %v", i, err)
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if ss.MigrationStatus().FallbackReads == 0 {
		t.Fatal("no read fell back; the resume raced nothing")
	}
}

// The sweep above kills the mover with the data untouched; this one
// additionally WRITES after each kill boundary, while some keys are
// already confirmed. Those writes route to the new owners but must
// keep mirroring to the old ones (regression: mirroring used to stop
// at confirmation): after the simulated crash every confirmation is
// forgotten, so reads on either epoch fall back to the old copies —
// which therefore must contain the post-boundary writes — and the
// resumed mover re-copies from them without clobbering fresh data.
func TestMoverCrashSweepWithWrites(t *testing.T) {
	cfg := shard.Config{StripeBytes: 4096}
	base, _ := memStores(2)
	orig, err := shard.New(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, orig, 56)

	// Count copy boundaries with a dry run over a clone.
	dryStores := rawClone(t, base)
	dry, _ := shard.New(dryStores, cfg)
	total := 0
	dryAll := append(append([]backend.Store(nil), dryStores...), backend.NewMemStore())
	if err := dry.BeginMigration(context.Background(), dryAll,
		shard.MigrateHooks{OnKeyMoved: func(string) { total++ }}); err != nil {
		t.Fatal(err)
	}
	if _, err := dry.RunMover(context.Background()); err != nil {
		t.Fatal(err)
	}

	stride := 1
	if testing.Short() {
		stride = 3
	}
	writeTargets := []string{"file-09", "file-11", "file-07"}
	for k := 1; k <= total; k += stride {
		iterContents := make(map[string][]byte, len(contents))
		for n, d := range contents {
			iterContents[n] = append([]byte(nil), d...)
		}
		stores := rawClone(t, base)
		all := append(append([]backend.Store(nil), stores...), backend.NewMemStore())
		ss, err := shard.New(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		if err := ss.BeginMigration(ctx, all, shard.MigrateHooks{OnKeyMoved: func(string) {
			if n++; n == k {
				cancel()
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.RunMover(ctx); !errors.Is(err, backend.ErrCanceled) {
			t.Fatalf("k=%d: mover returned %v", k, err)
		}
		cancel()

		wfs, err := core.New(ss, core.Config{Inner: testKey(1), Outer: testKey(2)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(600 + k)))
		for _, name := range writeTargets {
			blk := make([]byte, 4096)
			rng.Read(blk)
			f, err := wfs.OpenRW(name)
			if err != nil {
				t.Fatal(err)
			}
			off := int64(rng.Intn(len(iterContents[name])/4096)) * 4096
			if _, err := f.WriteAt(blk, off); err != nil {
				t.Fatalf("k=%d: post-boundary write: %v", k, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			end := min(int(off)+4096, len(iterContents[name]))
			copy(iterContents[name][off:end], blk[:end-int(off)])
		}

		// Crash: drop ss (confirmations lost). Either-epoch reopen must
		// see the post-boundary writes.
		oldView, err := shard.New(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := oldView.AdoptLayout(nil); err != nil {
			t.Fatalf("k=%d: reopen old epoch: %v", k, err)
		}
		verify(t, oldView, iterContents)

		resumed, err := shard.New(all, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.AdoptLayout(nil); err != nil {
			t.Fatalf("k=%d: reopen union: %v", k, err)
		}
		verify(t, resumed, iterContents)
		if _, err := resumed.RunMover(context.Background()); err != nil {
			t.Fatalf("k=%d: resumed mover: %v", k, err)
		}
		verify(t, resumed, iterContents)
		if resumed.Epoch() != 1 {
			t.Fatalf("k=%d: epoch %d after resume", k, resumed.Epoch())
		}
	}
}

// Rename and Remove keep working mid-migration (regression: Rename
// used to re-acquire the file's non-reentrant migration lock through
// Remove and deadlock), and the renamed file survives the completed
// migration.
func TestRenameRemoveDuringMigration(t *testing.T) {
	for _, stripe := range []int64{0, 4096} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			cfg := shard.Config{StripeBytes: stripe}
			base, _ := memStores(2)
			ss, err := shard.New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			contents := populate(t, ss, 55)
			grown := append(append([]backend.Store(nil), base...), backend.NewMemStore())
			if err := ss.BeginMigration(context.Background(), grown, shard.MigrateHooks{}); err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() {
				var err error
				if err = ss.Rename("file-05", "renamed-05"); err == nil {
					err = ss.Remove("file-03")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("rename/remove deadlocked during migration")
			}
			contents["renamed-05"] = contents["file-05"]
			delete(contents, "file-05")
			delete(contents, "file-03")

			if _, err := ss.RunMover(context.Background()); err != nil {
				t.Fatal(err)
			}
			verify(t, ss, contents)
		})
	}
}

// The layout record's name is reserved at the sharded-store surface:
// invisible to reads and List, rejected for creation.
func TestRecordNameReserved(t *testing.T) {
	s, _ := newShardStore(t, 2, 0)
	if _, err := s.Open(placement.RecordName, backend.OpenRead); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Open(record, read) = %v", err)
	}
	if _, err := s.Open(placement.RecordName, backend.OpenCreate); err == nil {
		t.Fatal("creating the record name succeeded")
	}
	if err := s.Rename("x", placement.RecordName); err == nil {
		t.Fatal("renaming onto the record name succeeded")
	}
	if _, err := s.Stat(placement.RecordName); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Stat(record) = %v", err)
	}
	// Begin a migration so records exist, then List must hide them.
	grown := append(s.Shards(), backend.NewMemStore())
	if err := s.BeginMigration(context.Background(), grown, shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == placement.RecordName {
			t.Fatal("List leaked the layout record")
		}
	}
}

// FuzzDualRingConsistency drives a migrating sharded LamassuFS and an
// UNSHARDED model through identical operation sequences — writes,
// truncates, reads — across every migration phase (pre-migration,
// dual-ring with nothing confirmed, mid-migration after a canceled
// mover, and post-commit) and asserts the contents never diverge. Each
// input runs at both replication factors, growing 2 → 3 stores: the
// one owner-group data path with groups of one and of two.
func FuzzDualRingConsistency(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2))
	f.Add(int64(42), uint8(30), uint8(5))
	f.Add(int64(-7), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nOps, cancelAfter uint8) {
		for _, replicas := range []int{1, 2} {
			dualRingConsistency(t, replicas, seed, nOps, cancelAfter)
		}
	})
}

func dualRingConsistency(t *testing.T, replicas int, seed int64, nOps, cancelAfter uint8) {
	geo, err := layout.NewGeometry(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo}
	base, _ := memStores(2)
	ss, err := shard.New(base, shard.Config{StripeBytes: 1024, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.New(ss, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(backend.NewMemStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c"}
	apply := func(fs vfs.FS, opSeed int64) {
		t.Helper()
		r := rand.New(rand.NewSource(opSeed))
		name := names[r.Intn(len(names))]
		switch r.Intn(4) {
		case 0, 1: // write a random range
			off := int64(r.Intn(6000))
			buf := make([]byte, 1+r.Intn(2000))
			r.Read(buf)
			f, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		case 2: // truncate
			f, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(int64(r.Intn(8000))); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		case 3: // remove
			_ = fs.Remove(name)
		}
	}
	compare := func(phase string) {
		t.Helper()
		for _, n := range names {
			want, werr := vfs.ReadAll(model, n)
			got, gerr := vfs.ReadAll(sharded, n)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("R=%d %s: %s: model err %v, sharded err %v", replicas, phase, n, werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("R=%d %s: %s diverged (%d vs %d bytes)", replicas, phase, n, len(got), len(want))
			}
		}
	}

	ops := int(nOps%40) + 5
	phase := func(label string, count int) {
		for i := 0; i < count; i++ {
			opSeed := rng.Int63()
			apply(model, opSeed)
			apply(sharded, opSeed)
		}
		compare(label)
	}

	phase("pre-migration", ops/2+1)

	grown := append(append([]backend.Store(nil), base...), backend.NewMemStore())
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	limit := int(cancelAfter%6) + 1
	hooks := shard.MigrateHooks{OnKeyMoved: func(string) {
		if n++; n == limit {
			cancel()
		}
	}}
	if err := ss.BeginMigration(context.Background(), grown, hooks); err != nil {
		t.Fatal(err)
	}
	phase("dual-ring unconfirmed", ops/2+1)

	if _, err := ss.RunMover(ctx); err != nil && !errors.Is(err, backend.ErrCanceled) {
		t.Fatal(err)
	}
	cancel()
	phase("mid-migration", ops/2+1)

	if ss.Migrating() {
		if _, err := ss.RunMover(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	phase("post-commit", ops/2+1)
	if ss.Migrating() {
		t.Fatalf("R=%d: migration still active at the end", replicas)
	}
}

// TestFaultSoakRandomized is the nightly randomized per-shard crash
// soak (gated out of tier-1 by LAMASSU_SOAK): long random schedules
// of one-shard crashes during overwrite workloads, before AND during
// an online rebalance, each followed by recovery, a clean audit, and
// per-block atomicity checks, then a mover rerun that must converge
// and commit the epoch.
func TestFaultSoakRandomized(t *testing.T) {
	if os.Getenv("LAMASSU_SOAK") == "" {
		t.Skip("set LAMASSU_SOAK=1 (nightly CI) to run the randomized fault soak")
	}
	iters := 20
	if v := os.Getenv("LAMASSU_SOAK_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			iters = n
		}
	}
	geo, err := layout.NewGeometry(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		nBlocks = 48
		bs      = 512
	)
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(1000 + iter)))
		shards := 2 + rng.Intn(3)
		stripe := int64(bs) * int64(1+rng.Intn(4)) * 2
		cfg := core.Config{Inner: testKey(1), Outer: testKey(2), Geometry: geo, Parallelism: 4}

		stores := make([]backend.Store, shards)
		faults := make([]*faultfs.Store, shards)
		for i := range stores {
			faults[i] = faultfs.New(backend.NewMemStore())
			stores[i] = faults[i]
		}
		ss, err := shard.New(stores, shard.Config{StripeBytes: stripe})
		if err != nil {
			t.Fatal(err)
		}
		lfs, err := core.New(ss, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteAll(lfs, "f", make([]byte, nBlocks*bs)); err != nil {
			t.Fatal(err)
		}
		legit := make([]map[string]bool, nBlocks)
		zero := string(make([]byte, bs))
		for i := range legit {
			legit[i] = map[string]bool{zero: true}
		}

		crashPhase := func(label string, seed int64) {
			t.Helper()
			victim := rng.Intn(shards)
			faults[victim].Arm(faultfs.ModeCrashAfter, int64(1+rng.Intn(40)), 0)
			fw, err := lfs.OpenRW("f")
			if err != nil {
				t.Fatalf("iter %d %s: open: %v", iter, label, err)
			}
			r2 := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				b := r2.Intn(nBlocks)
				blk := make([]byte, bs)
				r2.Read(blk)
				legit[b][string(blk)] = true
				if _, err := fw.WriteAt(blk, int64(b*bs)); err != nil {
					break
				}
			}
			_ = fw.Sync()
			_ = fw.Close()
			for _, fs := range faults {
				fs.Disarm()
			}
			if _, err := lfs.Recover("f"); err != nil {
				t.Fatalf("iter %d %s: recover: %v", iter, label, err)
			}
			rep, err := lfs.Check("f")
			if err != nil || !rep.Clean() {
				t.Fatalf("iter %d %s: audit %+v %v", iter, label, rep, err)
			}
			got, err := vfs.ReadAll(lfs, "f")
			if err != nil || len(got) != nBlocks*bs {
				t.Fatalf("iter %d %s: read %d bytes, %v", iter, label, len(got), err)
			}
			for b := 0; b < nBlocks; b++ {
				if !legit[b][string(got[b*bs:(b+1)*bs])] {
					t.Fatalf("iter %d %s: block %d holds an illegitimate value", iter, label, b)
				}
			}
		}

		crashPhase("pre-migration", rng.Int63())

		// Online rebalance with a randomly interrupted mover.
		extra := faultfs.New(backend.NewMemStore())
		grown := append(append([]backend.Store(nil), stores...), extra)
		ctx, cancel := context.WithCancel(context.Background())
		limit := 1 + rng.Intn(6)
		n := 0
		hooks := shard.MigrateHooks{OnKeyMoved: func(string) {
			if n++; n == limit {
				cancel()
			}
		}}
		if err := ss.BeginMigration(context.Background(), grown, hooks); err != nil {
			t.Fatalf("iter %d: begin: %v", iter, err)
		}
		if _, err := ss.RunMover(ctx); err != nil && !errors.Is(err, backend.ErrCanceled) {
			t.Fatalf("iter %d: mover: %v", iter, err)
		}
		cancel()

		crashPhase("mid-migration", rng.Int63())

		if ss.Migrating() {
			if _, err := ss.RunMover(context.Background()); err != nil {
				t.Fatalf("iter %d: mover rerun: %v", iter, err)
			}
		}
		if ss.Migrating() || ss.Epoch() != 1 {
			t.Fatalf("iter %d: epoch %d migrating %v", iter, ss.Epoch(), ss.Migrating())
		}
		crashPhase("post-commit", rng.Int63())
	}
}
