package lamassu

// API-level tests of the WithRetry fault-tolerance layer: a flaky
// store behind a retry-enabled mount is invisible to the caller, the
// taxonomy surfaces through lamassu.IsRetryable, cancellation is
// never retried away, and a cut retry loop recovers through the
// standard crash-cut path.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
)

func testKeysT(t *testing.T) KeyPair {
	t.Helper()
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestWithRetryAbsorbsTransientFaults(t *testing.T) {
	keys := testKeysT(t)
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(fs, keys,
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}),
		WithLatencyCollection(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	data := bytes.Repeat([]byte("retry me "), 4096)
	fs.ArmTransient(faultfs.OpWrite, 3)
	fs.ArmTransient(faultfs.OpRead, 2)
	fs.ArmTransient(faultfs.OpOpen, 2)

	f, err := m.Create("doc")
	if err != nil {
		t.Fatalf("Create through transient faults: %v", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt through transient faults: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync through transient faults: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt through transient faults: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readback mismatch through retry layer")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if fs.TransientInjected() == 0 {
		t.Fatal("no transient fault was injected; the test proved nothing")
	}
	st := m.EngineStats()
	if st.RetryAttempts == 0 {
		t.Fatalf("EngineStats.RetryAttempts = 0 after %d injected faults", fs.TransientInjected())
	}
	if st.RetriesExhausted != 0 {
		t.Fatalf("EngineStats.RetriesExhausted = %d, want 0", st.RetriesExhausted)
	}
}

// TestWithRetryCountsWithoutLatencyCollection: the retry counters come
// from the attempt wrappers, not the latency recorder, so they are live
// on a mount without WithLatencyCollection; a retry-only mount reports
// no hedged-read stores.
func TestWithRetryCountsWithoutLatencyCollection(t *testing.T) {
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(fs, testKeysT(t), WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fs.ArmTransient(faultfs.OpOpen, 2)
	f, err := m.Create("doc")
	if err != nil {
		t.Fatalf("Create through transient faults: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := m.EngineStats(); st.RetryAttempts == 0 || st.RetriesExhausted != 0 {
		t.Fatalf("EngineStats retries = %d, exhausted = %d after %d injected faults; want >0, 0",
			st.RetryAttempts, st.RetriesExhausted, fs.TransientInjected())
	}
	if hs := m.HedgedReadStats(); hs != nil {
		t.Fatalf("retry-only mount reports hedged-read stores: %+v", hs)
	}
}

func TestWithoutRetryTransientFaultSurfaces(t *testing.T) {
	keys := testKeysT(t)
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(fs, keys) // no WithRetry
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	f, err := m.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	fs.ArmTransient(faultfs.OpWrite, 1)
	_, werr := f.WriteAt([]byte("payload2"), 0)
	err = werr
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		t.Fatal("transient fault vanished without a retry layer")
	}
	if !errors.Is(err, faultfs.ErrTransient) {
		t.Fatalf("surfaced error %v does not wrap the injected fault", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("IsRetryable = false for a transient backend fault: %v", err)
	}
	fs.DisarmTransient()
}

func TestRetryNeverMasksFatalErrors(t *testing.T) {
	keys := testKeysT(t)
	m, err := New(NewMemStorage(), keys, WithRetry(RetryPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open(missing) through retry mount: %v, want ErrNotExist", err)
	} else if IsRetryable(err) {
		t.Fatal("ErrNotExist became retryable")
	}
	// Integrity failures are fatal, never retryable (the conformance
	// sweep's "integrity" row lives at this level: the integrity layer
	// wraps the FS, not the Store).
	if IsRetryable(ErrIntegrity) {
		t.Fatal("ErrIntegrity classifies retryable")
	}
	if IsRetryable(ErrCanceled) {
		t.Fatal("ErrCanceled classifies retryable")
	}
	if !IsRetryable(ErrRetryable) {
		t.Fatal("the ErrRetryable mark itself must classify retryable")
	}
}

// TestCanceledRetryLoopRecoversViaCrashCut pins the acceptance
// criterion: a cancellation landing while the retry loop is backing
// off surfaces IsCanceled (not retried away, not misclassified), and
// the interrupted commit is repaired by the standard crash-cut
// recovery, converging once the fault schedule clears.
func TestCanceledRetryLoopRecoversViaCrashCut(t *testing.T) {
	keys := testKeysT(t)
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(fs, keys, WithRetry(RetryPolicy{
		MaxAttempts: 1 << 20, // effectively unbounded: only ctx can stop the loop
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A committed baseline the recovery must preserve.
	f, err := m.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xAB}, 8192)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Every write now fails transiently; the retry loop spins in
	// backoff until the deadline cuts it.
	fs.ArmTransient(faultfs.OpWrite, 1<<30)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	update := bytes.Repeat([]byte{0xCD}, 4096)
	_, werr := f.WriteAtCtx(ctx, update, 0)
	serr := f.SyncCtx(ctx)
	err = werr
	if err == nil {
		err = serr
	}
	if err == nil {
		t.Fatal("write+sync succeeded while every backend write fails")
	}
	if !IsCanceled(err) {
		t.Fatalf("cut retry loop: %v, want IsCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut retry loop: %v, want context.DeadlineExceeded in chain", err)
	}

	// Outage over: the canceled commit is a crash cut; recovery (run
	// explicitly here) repairs it and the retried operation converges.
	fs.DisarmTransient()
	if _, err := m.Recover("doc"); err != nil {
		t.Fatalf("Recover after canceled retry loop: %v", err)
	}
	if _, err := f.WriteAt(update, 0); err != nil {
		t.Fatalf("re-issued write after recovery: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	want := append(append([]byte{}, update...), base[4096:]...)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content did not converge after crash-cut recovery")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWithRetryShardedMount: the retry wrapper sits on each LEAF of a
// sharded deployment (beneath the shard router), so sharded mounts
// absorb transient faults identically and the carve-mode identity
// invariants hold.
func TestWithRetryShardedMount(t *testing.T) {
	keys := testKeysT(t)
	fs := faultfs.New(backend.NewMemStore())
	m, err := New(carve(t, fs, 4), keys,
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}),
		WithLatencyCollection(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	fs.ArmTransient(faultfs.OpWrite, 4)
	fs.ArmTransient(faultfs.OpRead, 2)
	data := bytes.Repeat([]byte("sharded retry "), 2048)
	f, err := m.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("sharded write through faults: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sharded sync through faults: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("sharded read through faults: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sharded readback mismatch")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if m.EngineStats().RetryAttempts == 0 {
		t.Fatal("sharded mount recorded no retry attempts")
	}
}
