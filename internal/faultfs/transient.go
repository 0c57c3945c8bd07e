package faultfs

// Transient-fault injection: fail an operation N times, then let it
// succeed. Where the crash modes model power loss (everything after
// the trigger is dead), transient faults model a flaky medium — the
// NFS server that drops a request, the object store that returns 503
// — and exist to drive backend.AttemptStore: every injected error is
// marked backend.Retryable, so a retry-wrapped store absorbs the
// schedule while an unwrapped store surfaces it.
//
// Transient schedules are independent of the crash schedule: an
// injected transient failure happens BEFORE the write reaches the
// crash countdown and does not consume a crash-schedule slot, so the
// §2.4 sweeps enumerate the same crash points with or without a
// transient schedule armed.

import (
	"errors"
	"fmt"

	"lamassu/internal/backend"
)

// ErrTransient is the base error of every injected transient fault.
// Injected errors are additionally marked backend.Retryable, so both
// errors.Is(err, ErrTransient) and backend.IsRetryable(err) hold.
var ErrTransient = errors.New("faultfs: injected transient fault")

// Op identifies the store/file operation a transient schedule targets.
type Op int

const (
	// OpOpen targets Store.Open / OpenCtx.
	OpOpen Op = iota
	// OpRead targets File.ReadAt / ReadAtCtx.
	OpRead
	// OpWrite targets File.WriteAt / WriteAtCtx.
	OpWrite
	// OpSync targets File.Sync / SyncCtx.
	OpSync
	// OpTruncate targets File.Truncate / TruncateCtx.
	OpTruncate
	// OpRemove targets Store.Remove / RemoveCtx.
	OpRemove
	// OpRename targets Store.Rename (keyed by the old name).
	OpRename
	// OpList targets Store.List / ListCtx.
	OpList
	// OpStat targets Store.Stat / StatCtx.
	OpStat
	numOps
)

// String returns the operation label used in injected error text.
func (op Op) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	case OpList:
		return "list"
	case OpStat:
		return "stat"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// AllOps lists every injectable operation type.
func AllOps() []Op {
	ops := make([]Op, 0, numOps)
	for op := Op(0); op < numOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

// ArmTransient schedules the next n invocations of op (on any key) to
// fail with a retryable ErrTransient before succeeding again. It
// accumulates with any schedule already armed for op.
func (s *Store) ArmTransient(op Op, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.transientOps == nil {
		s.transientOps = make(map[Op]int)
	}
	s.transientOps[op] += n
}

// ArmTransientKey schedules the next n invocations of op against the
// named object to fail before succeeding again. Per-key schedules are
// consulted before the per-op schedule and do not consume it.
func (s *Store) ArmTransientKey(name string, op Op, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.transientKeys == nil {
		s.transientKeys = make(map[string]map[Op]int)
	}
	m := s.transientKeys[name]
	if m == nil {
		m = make(map[Op]int)
		s.transientKeys[name] = m
	}
	m[op] += n
}

// DisarmTransient clears every pending transient schedule (the
// injected-fault counter is preserved).
func (s *Store) DisarmTransient() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transientOps = nil
	s.transientKeys = nil
}

// TransientInjected returns the number of transient faults injected
// since creation.
func (s *Store) TransientInjected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transientCount
}

// TransientPending reports how many injections remain armed across
// all schedules.
func (s *Store) TransientPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.transientOps {
		n += c
	}
	for _, m := range s.transientKeys {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// transient consumes one scheduled injection for (op, name) if armed,
// returning the retryable fault to surface, or nil to proceed.
func (s *Store) transient(op Op, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.transientKeys[name]; m[op] > 0 {
		m[op]--
		s.transientCount++
		return backend.Retryable(fmt.Errorf("%w: %s %q", ErrTransient, op, name))
	}
	if s.transientOps[op] > 0 {
		s.transientOps[op]--
		s.transientCount++
		return backend.Retryable(fmt.Errorf("%w: %s", ErrTransient, op))
	}
	return nil
}
