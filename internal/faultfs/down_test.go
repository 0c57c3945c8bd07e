package faultfs

import (
	"context"
	"errors"
	"testing"
	"time"

	"lamassu/internal/backend"
)

func TestDownFailsUntilDisarm(t *testing.T) {
	s := New(backend.NewMemStore())
	if err := backend.WriteFile(s, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("f", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s.ArmDown(OpRead)
	buf := make([]byte, 4)
	// Unlike a transient schedule, an outage never drains.
	for i := 0; i < 5; i++ {
		_, err := f.ReadAt(buf, 0)
		if !errors.Is(err, ErrDown) {
			t.Fatalf("read %d: err = %v, want ErrDown", i+1, err)
		}
		if backend.IsRetryable(err) {
			t.Fatalf("read %d: outage marked retryable: %v", i+1, err)
		}
	}
	if !s.Down() {
		t.Fatal("Down() = false with an outage armed")
	}
	if got := s.DownInjected(); got != 5 {
		t.Fatalf("DownInjected = %d, want 5", got)
	}
	// Other ops are unaffected by a per-op outage.
	if _, err := s.Stat("f"); err != nil {
		t.Fatalf("Stat during read outage: %v", err)
	}
	s.DisarmDown()
	if s.Down() {
		t.Fatal("Down() = true after disarm")
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
	if string(buf) != "data" {
		t.Fatalf("readback %q (data survived the outage?)", buf)
	}
}

func TestDownAllCoversEveryOp(t *testing.T) {
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
	s.ArmDownAll()
	for _, op := range AllOps() {
		fn, ok := try[op]
		if !ok {
			t.Fatalf("no probe for op %v", op)
		}
		if err := fn(); !errors.Is(err, ErrDown) {
			t.Errorf("%v: err = %v, want ErrDown", op, err)
		}
	}
	// Size is gated as a stat against the dead shard.
	if _, err := f.Size(); !errors.Is(err, ErrDown) {
		t.Errorf("Size: err = %v, want ErrDown", err)
	}
	s.DisarmDown()
	for _, op := range AllOps() {
		if err := try[op](); err != nil {
			t.Errorf("%v after disarm: %v", op, err)
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
	if _, err := f.Size(); err != nil {
		t.Errorf("Size after disarm: %v", err)
	}
}

// TestDownBeforeTransientAndCrash pins the precedence contract: an
// outage rejects the call before any transient schedule is consumed
// and before the crash countdown ticks, so neither schedule advances
// while the store is down.
func TestDownBeforeTransientAndCrash(t *testing.T) {
	s := New(backend.NewMemStore())
	f, err := s.Open("f", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s.Arm(ModeCrashBefore, 1, 0)
	s.ArmTransient(OpWrite, 1)
	s.ArmDown(OpWrite)

	if _, err := f.WriteAt([]byte("a"), 0); !errors.Is(err, ErrDown) {
		t.Fatalf("write while down: %v, want ErrDown", err)
	}
	if got := s.TransientPending(); got != 1 {
		t.Fatalf("TransientPending = %d, want 1 (down must not consume it)", got)
	}
	if got := s.WriteCount(); got != 0 {
		t.Fatalf("WriteCount = %d, want 0 (down must not tick the crash countdown)", got)
	}

	s.DisarmDown()
	// With the outage lifted the armed schedules fire in their usual
	// order: transient first, then the crash slot.
	if _, err := f.WriteAt([]byte("a"), 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("write after disarm: %v, want ErrTransient", err)
	}
	if _, err := f.WriteAt([]byte("a"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crash slot: %v, want ErrCrashed", err)
	}
}

// TestDownNotAbsorbedByRetryStore is the integration the mode exists
// for: a retry-wrapped store must surface the outage immediately — it
// is fatal, not a 503 — so the replication layer above sees the
// failure on the first attempt and fails over.
func TestDownNotAbsorbedByRetryStore(t *testing.T) {
	fs := New(backend.NewMemStore())
	if err := backend.WriteFile(fs, "f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rs := backend.NewAttemptStore(fs, backend.AttemptPolicy{
		Retry: &backend.RetryPolicy{MaxAttempts: 10},
		Sleep: func(ctx context.Context, d time.Duration) error { return backend.CtxErr(ctx) },
	})

	fs.ArmDownAll()
	if _, err := rs.Stat("f"); !errors.Is(err, ErrDown) {
		t.Fatalf("stat through retry store: %v, want ErrDown", err)
	}
	if got := fs.DownInjected(); got != 1 {
		t.Fatalf("DownInjected = %d, want 1 (retry store must not re-issue a fatal error)", got)
	}
	if st := rs.Stats(); st.Retries != 0 {
		t.Fatalf("Stats = %+v, want 0 retries", st)
	}
	fs.DisarmDown()
	got, err := backend.ReadFile(rs, "f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile after repair: %q %v", got, err)
	}
}
