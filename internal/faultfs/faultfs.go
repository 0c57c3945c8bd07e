// Package faultfs wraps a backend.Store with crash and corruption
// injection: a live cut at one chosen write of a running workload
// (paper §2.4), transient faults (transient.go) and permanent outages
// (down.go). Its Scheduler (scheduler.go) is the one controllable store
// of the interleaving tests: every leaf operation is an event that a
// policy passes, parks or fails, a test waits for "n events parked" by
// count and releases or fails each one, and Rounds counts a workload's
// critical path in rounds of round trips. A test that asks which
// operations are in flight together, or cancels at the n-th one, writes
// a policy, not a wrapper store.
//
// Fault model: Arm(mode, n, frac) triggers at the n-th subsequent
// WriteAt.
//
//   - ModeCrashAfter: the n-th write completes and then the store
//     "loses power" — every later mutation returns ErrCrashed and
//     changes nothing.
//   - ModeCrashBefore: the n-th write itself is dropped (power lost
//     mid-request, before the block reached the platter), consistent
//     with the paper's assumption that the underlying storage provides
//     whole-block write atomicity.
//   - ModeTorn: the n-th write is partially applied — the first frac
//     of it reaches disk. The paper explicitly does NOT defend against
//     torn sub-block writes (§2.4); the tests use this mode to document
//     that boundary: Lamassu *detects* the mangled block via its
//     integrity check but cannot repair it.
//
// Core's §2.4 sweeps do not arm a cut: they record a workload's
// mutations once and rebuild every prefix on a fresh store
// (sweepCrashStates in internal/core). Arm is for what a Scheduler's
// Cut does not model — a torn write and a crash at the n-th write of a
// store that then "reboots" with recovery allowed to open it — so the
// callers that still arm it are the ones that watch the engine at the
// moment a write fails or tears:
//
//   - ModeCrashBefore as "this write fails": core's
//     TestWriteBehindErrorSurfaces and TestCommitRetryAfterPartialRunFailure;
//   - ModeTorn: core's TestTornDataWriteDetectedNotRepaired,
//     TestCrashMidRunWrite and TestCrashMidRunWriteTornBlockDetected;
//   - ModeCrashAfter mid parallel commit on a running mount: core's
//     TestCrashMidParallelCommit;
//   - ModeCrashAfter on the shards under a running deployment: the shard
//     sweeps (TestCrashOneShardMidParallelCommit,
//     TestCrashAllShardsMidParallelCommit, TestFaultSoakRandomized);
//   - ModeCrashAfter 1, a crash between phase 1 and phase 2 that the
//     same mount then reads, writes or rotates through: core's
//     TestReadThroughMidUpdateSegment,
//     TestWriteToMidUpdateSegmentRecoversFirst and
//     TestRekeyRefusesMidUpdateFile, and examples/crash-recovery.
package faultfs

import (
	"context"
	"errors"
	"sync"

	"lamassu/internal/backend"
)

// ErrCrashed is returned by every mutation after the simulated crash
// point has been reached.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Mode selects what happens at the trigger point.
type Mode int

const (
	// ModeNone performs no injection.
	ModeNone Mode = iota
	// ModeCrashAfter applies the trigger write, then crashes.
	ModeCrashAfter
	// ModeCrashBefore drops the trigger write and crashes.
	ModeCrashBefore
	// ModeTorn applies a prefix of the trigger write, then crashes.
	ModeTorn
)

// Store wraps an inner store with fault injection. The zero trigger
// configuration injects nothing.
type Store struct {
	inner backend.Store

	mu         sync.Mutex
	mode       Mode
	countdown  int64 // writes remaining before trigger
	tornFrac   float64
	crashed    bool
	writeCount int64

	// Transient schedules (see transient.go).
	transientOps   map[Op]int
	transientKeys  map[string]map[Op]int
	transientCount int64

	// Permanent outages (see down.go).
	downOps   map[Op]bool
	downAll   bool
	downCount int64
}

// New returns a pass-through wrapper around inner.
func New(inner backend.Store) *Store {
	return &Store{inner: inner, mode: ModeNone}
}

// Arm configures the next fault: after n-1 further writes succeed, the
// n-th write triggers the configured mode (n is 1-based). tornFrac is
// only used by ModeTorn.
func (s *Store) Arm(mode Mode, n int64, tornFrac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = mode
	s.countdown = n
	s.tornFrac = tornFrac
	s.crashed = false
}

// Disarm clears any pending fault and the crashed state.
func (s *Store) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = ModeNone
	s.crashed = false
	s.countdown = 0
}

// Crashed reports whether the simulated crash has occurred.
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// WriteCount returns the total number of WriteAt calls observed since
// creation (including dropped ones). Tests use it to enumerate crash
// points.
func (s *Store) WriteCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeCount
}

// ResetWriteCount zeroes the write counter.
func (s *Store) ResetWriteCount() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeCount = 0
}

// decide is called once per WriteAt with the payload length; it
// returns how many bytes of the write to apply and whether the write
// should report a crash error.
func (s *Store) decide(n int) (apply int, failNow bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeCount++
	if s.crashed {
		return 0, true
	}
	if s.mode == ModeNone {
		return n, false
	}
	s.countdown--
	if s.countdown > 0 {
		return n, false
	}
	// Trigger.
	s.crashed = true
	switch s.mode {
	case ModeCrashAfter:
		return n, false // this write lands; everything later fails
	case ModeCrashBefore:
		return 0, true
	case ModeTorn:
		apply = int(float64(n) * s.tornFrac)
		if apply >= n {
			apply = n - 1
		}
		if apply < 0 {
			apply = 0
		}
		return apply, true
	default:
		return n, false
	}
}

func (s *Store) mutationAllowed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// Open implements backend.Store.
func (s *Store) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.OpenCtx(nil, name, flag)
}

// Remove implements backend.Store.
func (s *Store) Remove(name string) error { return s.RemoveCtx(nil, name) }

// Rename implements backend.Store. Transient schedules key renames by
// the old name.
func (s *Store) Rename(oldName, newName string) error {
	if err := s.inject(OpRename, oldName); err != nil {
		return err
	}
	if err := s.mutationAllowed(); err != nil {
		return err
	}
	return s.inner.Rename(oldName, newName)
}

// List implements backend.Store.
func (s *Store) List() ([]string, error) {
	if err := s.inject(OpList, ""); err != nil {
		return nil, err
	}
	return s.inner.List()
}

// Stat implements backend.Store.
func (s *Store) Stat(name string) (int64, error) {
	if err := s.inject(OpStat, name); err != nil {
		return 0, err
	}
	return s.inner.Stat(name)
}

// OpenCtx implements backend.StoreCtx, forwarding ctx to the inner
// store so cancellation reaches through the fault-injection layer;
// the plain Open delegates here with a nil (never-canceled) context.
func (s *Store) OpenCtx(ctx context.Context, name string, flag backend.OpenFlag) (backend.File, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := s.inject(OpOpen, name); err != nil {
		return nil, err
	}
	if flag != backend.OpenRead {
		if err := s.mutationAllowed(); err != nil && flag == backend.OpenCreate {
			// Creating a file is a mutation; opening existing RW is
			// allowed so recovery can run on the "rebooted" store.
			if _, statErr := s.inner.Stat(name); statErr != nil {
				return nil, err
			}
		}
	}
	f, err := backend.OpenCtx(ctx, s.inner, name, flag)
	if err != nil {
		return nil, err
	}
	return &file{store: s, inner: f, name: name}, nil
}

// RemoveCtx implements backend.StoreCtx.
func (s *Store) RemoveCtx(ctx context.Context, name string) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	if err := s.inject(OpRemove, name); err != nil {
		return err
	}
	if err := s.mutationAllowed(); err != nil {
		return err
	}
	return backend.RemoveCtx(ctx, s.inner, name)
}

// ListCtx implements backend.StoreCtx.
func (s *Store) ListCtx(ctx context.Context) ([]string, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := s.inject(OpList, ""); err != nil {
		return nil, err
	}
	return backend.ListCtx(ctx, s.inner)
}

// StatCtx implements backend.StoreCtx.
func (s *Store) StatCtx(ctx context.Context, name string) (int64, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := s.inject(OpStat, name); err != nil {
		return 0, err
	}
	return backend.StatCtx(ctx, s.inner, name)
}

type file struct {
	store *Store
	inner backend.File
	name  string
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.store.inject(OpRead, f.name); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

// WriteAt injects any scheduled transient fault BEFORE the crash
// countdown ticks: a transiently failed write never reached the
// store, so it must not consume a crash-schedule slot — the §2.4
// sweeps enumerate identical crash points with or without a transient
// schedule armed.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err := f.store.inject(OpWrite, f.name); err != nil {
		return 0, err
	}
	apply, fail := f.store.decide(len(p))
	if apply > 0 {
		if _, err := f.inner.WriteAt(p[:apply], off); err != nil {
			return 0, err
		}
	}
	if fail {
		return apply, ErrCrashed
	}
	return len(p), nil
}

// ReadAtCtx implements backend.FileCtx.
func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := f.store.inject(OpRead, f.name); err != nil {
		return 0, err
	}
	return backend.ReadAtCtx(ctx, f.inner, p, off)
}

// WriteAtCtx implements backend.FileCtx. The cancellation check and
// the transient injection both run BEFORE the fault-injection
// countdown ticks: a canceled or transiently failed write was never
// issued, so it must not consume a crash-schedule slot.
func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := f.store.inject(OpWrite, f.name); err != nil {
		return 0, err
	}
	apply, fail := f.store.decide(len(p))
	if apply > 0 {
		if _, err := backend.WriteAtCtx(ctx, f.inner, p[:apply], off); err != nil {
			return 0, err
		}
	}
	if fail {
		return apply, ErrCrashed
	}
	return len(p), nil
}

// TruncateCtx implements backend.FileCtx.
func (f *file) TruncateCtx(ctx context.Context, size int64) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	if err := f.store.inject(OpTruncate, f.name); err != nil {
		return err
	}
	if err := f.store.mutationAllowed(); err != nil {
		return err
	}
	return backend.TruncateCtx(ctx, f.inner, size)
}

// SyncCtx implements backend.FileCtx.
func (f *file) SyncCtx(ctx context.Context) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	if err := f.store.inject(OpSync, f.name); err != nil {
		return err
	}
	if err := f.store.mutationAllowed(); err != nil {
		return err
	}
	return backend.SyncCtx(ctx, f.inner)
}

func (f *file) Truncate(size int64) error {
	if err := f.store.inject(OpTruncate, f.name); err != nil {
		return err
	}
	if err := f.store.mutationAllowed(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Size is gated by the outage injector only (as OpStat): size probes
// against a dead shard must fail like everything else, but transient
// schedules keep their historical Stat-only scope.
func (f *file) Size() (int64, error) {
	if err := f.store.down(OpStat, f.name); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

func (f *file) Sync() error {
	if err := f.store.inject(OpSync, f.name); err != nil {
		return err
	}
	if err := f.store.mutationAllowed(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *file) Close() error { return f.inner.Close() }
