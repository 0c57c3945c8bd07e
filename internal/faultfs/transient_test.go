package faultfs

import (
	"context"
	"errors"
	"testing"
	"time"

	"lamassu/internal/backend"
)

func TestTransientFailNThenSucceed(t *testing.T) {
	s := New(backend.NewMemStore())
	if err := backend.WriteFile(s, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("f", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s.ArmTransient(OpRead, 2)
	buf := make([]byte, 4)
	for i := 0; i < 2; i++ {
		_, err := f.ReadAt(buf, 0)
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("read %d: err = %v, want ErrTransient", i+1, err)
		}
		if !backend.IsRetryable(err) {
			t.Fatalf("read %d: injected fault not marked retryable: %v", i+1, err)
		}
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after schedule drained: %v", err)
	}
	if string(buf) != "data" {
		t.Fatalf("readback %q", buf)
	}
	if got := s.TransientInjected(); got != 2 {
		t.Fatalf("TransientInjected = %d, want 2", got)
	}
	if got := s.TransientPending(); got != 0 {
		t.Fatalf("TransientPending = %d, want 0", got)
	}
}

func TestTransientPerKeyBeforePerOp(t *testing.T) {
	s := New(backend.NewMemStore())
	if err := backend.WriteFile(s, "a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFile(s, "b", []byte("B")); err != nil {
		t.Fatal(err)
	}

	s.ArmTransientKey("a", OpStat, 1)
	s.ArmTransient(OpStat, 1)

	// "a" consumes its per-key slot, leaving the per-op slot intact.
	if _, err := s.Stat("a"); !errors.Is(err, ErrTransient) {
		t.Fatalf("Stat a: %v, want ErrTransient (per-key)", err)
	}
	if got := s.TransientPending(); got != 1 {
		t.Fatalf("pending after per-key hit = %d, want 1 (per-op untouched)", got)
	}
	// "b" has no per-key schedule; it draws from the per-op pool.
	if _, err := s.Stat("b"); !errors.Is(err, ErrTransient) {
		t.Fatalf("Stat b: %v, want ErrTransient (per-op)", err)
	}
	// Both drained.
	if _, err := s.Stat("a"); err != nil {
		t.Fatalf("Stat a after drain: %v", err)
	}
	if _, err := s.Stat("b"); err != nil {
		t.Fatalf("Stat b after drain: %v", err)
	}
}

func TestTransientCoversEveryOp(t *testing.T) {
	s := New(backend.NewMemStore())
	if err := backend.WriteFile(s, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("f", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	try := map[Op]func() error{
		OpOpen: func() error { g, err := s.Open("f", backend.OpenRead); closeIf(g, err); return err },
		OpRead: func() error { _, err := f.ReadAt(make([]byte, 1), 0); return err },
		OpWrite: func() error {
			_, err := f.WriteAt([]byte("y"), 0)
			return err
		},
		OpSync:     func() error { return f.Sync() },
		OpTruncate: func() error { return f.Truncate(1) },
		OpRemove:   func() error { return s.Remove("f") },
		OpRename:   func() error { return s.Rename("f", "g") },
		OpList:     func() error { _, err := s.List(); return err },
		OpStat:     func() error { _, err := s.Stat("f"); return err },
	}
	for _, op := range AllOps() {
		fn, ok := try[op]
		if !ok {
			t.Fatalf("no probe for op %v", op)
		}
		s.ArmTransient(op, 1)
		if err := fn(); !errors.Is(err, ErrTransient) {
			t.Errorf("%v: err = %v, want ErrTransient", op, err)
		}
		// Drained: the same probe now succeeds (Remove/Rename mutate, so
		// re-create the file for later probes).
		if err := fn(); err != nil {
			t.Errorf("%v after drain: %v", op, err)
		}
		switch op {
		case OpRemove:
			if err := backend.WriteFile(s, "f", []byte("x")); err != nil {
				t.Fatal(err)
			}
		case OpRename:
			if err := s.Rename("g", "f"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func closeIf(f backend.File, err error) {
	if err == nil {
		f.Close()
	}
}

// TestTransientDoesNotConsumeCrashSlot pins the schedule-independence
// contract: a transiently failed write must not tick the crash
// countdown, so crash sweeps enumerate identical crash points with a
// transient schedule armed.
func TestTransientDoesNotConsumeCrashSlot(t *testing.T) {
	inner := backend.NewMemStore()
	s := New(inner)
	f, err := s.Open("f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s.Arm(ModeCrashBefore, 2, 0) // crash on the 2nd write that reaches the countdown
	s.ArmTransient(OpWrite, 1)   // but the 1st issued write fails transiently

	if _, err := f.WriteAt([]byte("a"), 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("write 1: %v, want ErrTransient", err)
	}
	// The transient failure did not consume a crash slot: the next two
	// writes are crash slots 1 and 2.
	if _, err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("write 2 (crash slot 1): %v", err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write 3 (crash slot 2): %v, want ErrCrashed", err)
	}
	// And the transient write never counted as a WriteAt either.
	if got := s.WriteCount(); got != 2 {
		t.Fatalf("WriteCount = %d, want 2", got)
	}
}

func TestTransientDisarm(t *testing.T) {
	s := New(backend.NewMemStore())
	s.ArmTransient(OpList, 5)
	s.ArmTransientKey("k", OpStat, 5)
	s.DisarmTransient()
	if got := s.TransientPending(); got != 0 {
		t.Fatalf("pending after disarm = %d", got)
	}
	if _, err := s.List(); err != nil {
		t.Fatalf("List after disarm: %v", err)
	}
}

// TestTransientUnderRetryStore is the integration the mode exists
// for: a retry-wrapped faultfs absorbs a finite transient schedule
// with zero caller-visible errors, and a canceled backoff surfaces
// ErrCanceled.
func TestTransientUnderRetryStore(t *testing.T) {
	fs := New(backend.NewMemStore())
	rs := backend.NewAttemptStore(fs, backend.AttemptPolicy{
		Retry: &backend.RetryPolicy{MaxAttempts: 4},
		Sleep: func(ctx context.Context, d time.Duration) error { return backend.CtxErr(ctx) },
	})

	fs.ArmTransient(OpOpen, 2)
	fs.ArmTransient(OpWrite, 3)
	fs.ArmTransient(OpRead, 2)
	if err := backend.WriteFile(rs, "f", []byte("payload")); err != nil {
		t.Fatalf("WriteFile through transient schedule: %v", err)
	}
	got, err := backend.ReadFile(rs, "f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile through transient schedule: %q %v", got, err)
	}
	if fs.TransientInjected() == 0 {
		t.Fatal("schedule never fired")
	}
	if st := rs.Stats(); st.Retries == 0 || st.Exhausted != 0 {
		t.Fatalf("Stats = %+v, want >0 retries, 0 exhausted", st)
	}

	// A schedule longer than the retry budget surfaces the retryable
	// error to the caller.
	fs.ArmTransient(OpStat, 100)
	if _, err := rs.Stat("f"); !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted stat: %v, want ErrTransient in chain", err)
	}
	fs.DisarmTransient()

	// Cancellation landing during the backoff cuts the loop with
	// ErrCanceled instead of retrying the cancellation away.
	ctx, cancel := context.WithCancel(context.Background())
	fs.ArmTransient(OpRemove, 100)
	rs2 := backend.NewAttemptStore(fs, backend.AttemptPolicy{
		Retry: &backend.RetryPolicy{MaxAttempts: 10},
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return backend.CtxErr(ctx)
		},
	})
	if err := rs2.RemoveCtx(ctx, "f"); !errors.Is(err, backend.ErrCanceled) {
		t.Fatalf("canceled remove: %v, want ErrCanceled", err)
	}
	fs.DisarmTransient()
}
