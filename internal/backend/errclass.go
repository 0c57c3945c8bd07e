// Typed backend-error taxonomy.
//
// Every layer above the Store seam used to treat a flaky WriteAt the
// same as a corrupted segment: any error aborted the commit. Real
// remote backends (object stores, NFS filers, SSH links) fail in two
// very different ways, and recovery can exploit the difference:
//
//   - RETRYABLE: the operation failed transiently (timeout, connection
//     reset, resource contention) and re-issuing the IDENTICAL request
//     may succeed. Because every backend operation in this repository
//     is idempotent — a WriteAt re-issues the same bytes at the same
//     offset — a retry is indistinguishable from the §2.4
//     crash-cut-then-resume path, so retrying beneath the engine never
//     weakens the commit protocol.
//   - FATAL: the operation failed for a reason repetition cannot fix —
//     the file does not exist, the handle is closed, the data failed
//     an integrity check, or the caller canceled the context. Fatal
//     errors must surface immediately; cancellation in particular must
//     NOT be retried away, because a canceled commit is contractually a
//     crash cut that the recovery protocol repairs.
//
// Classification is carried as error-chain marks: Retryable(err) and
// Fatal(err) wrap err so that errors.Is(err, ErrRetryable) (resp.
// ErrFatal) holds WITHOUT disturbing the rest of the chain —
// errors.Is against the original sentinel and errors.As both keep
// working. Wrapper stores (shard, nfssim, faultfs, namecrypt,
// integrity, AttemptStore) preserve marks automatically because they
// wrap with %w; Classify is the single decision point consumed by
// AttemptStore and surfaced to callers as lamassu.IsRetryable.
package backend

import (
	"context"
	"errors"
	"fmt"
	"syscall"
)

// Class is the retry classification of a backend error.
type Class int

const (
	// ClassNone is the classification of a nil error.
	ClassNone Class = iota
	// ClassRetryable marks a transient failure: re-issuing the
	// identical operation may succeed.
	ClassRetryable
	// ClassFatal marks a failure repetition cannot fix; it must
	// surface to the caller (or to crash recovery) immediately.
	ClassFatal
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassRetryable:
		return "retryable"
	case ClassFatal:
		return "fatal"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Sentinels carried as error-chain marks by Retryable and Fatal.
// errors.Is(err, ErrRetryable) reports an explicitly marked transient
// error; Classify folds the marks together with the structural rules.
var (
	// ErrRetryable marks a transient backend failure.
	ErrRetryable = errors.New("backend: retryable error")
	// ErrFatal marks a backend failure retries cannot fix.
	ErrFatal = errors.New("backend: fatal error")
)

// classifiedError attaches a classification mark to an error chain.
type classifiedError struct {
	mark error // ErrRetryable or ErrFatal
	err  error
}

// Error implements error, without repeating the mark's text: the
// classification is metadata, not message.
func (e *classifiedError) Error() string { return e.err.Error() }

// Unwrap exposes both the mark and the original chain to errors.Is/As.
func (e *classifiedError) Unwrap() []error { return []error{e.mark, e.err} }

// Retryable marks err as transient. A nil err stays nil; an err
// already marked (either way) is returned unchanged, so wrappers can
// re-mark defensively without stacking.
func Retryable(err error) error {
	if err == nil || errors.Is(err, ErrRetryable) || errors.Is(err, ErrFatal) {
		return err
	}
	return &classifiedError{mark: ErrRetryable, err: err}
}

// Fatal marks err as non-retryable, with the same nil and
// already-marked behavior as Retryable.
func Fatal(err error) error {
	if err == nil || errors.Is(err, ErrRetryable) || errors.Is(err, ErrFatal) {
		return err
	}
	return &classifiedError{mark: ErrFatal, err: err}
}

// transientErrnos are OS error numbers that report transient
// resource or connectivity trouble — the failures a bounded retry at
// the store boundary is designed to absorb.
var transientErrnos = []syscall.Errno{
	syscall.EAGAIN,
	syscall.EINTR,
	syscall.EBUSY,
	syscall.ENOBUFS,
	syscall.ENOMEM,
	syscall.ETIMEDOUT,
	syscall.ECONNRESET,
	syscall.ECONNABORTED,
	syscall.ECONNREFUSED,
	syscall.ENETUNREACH,
	syscall.ENETRESET,
	syscall.EHOSTUNREACH,
	syscall.EPIPE,
	syscall.ESTALE, // NFS: stale handle after server restart
}

// Classify maps err onto the taxonomy. Explicit marks win; then the
// structural rules:
//
//   - Context cancellation and deadline expiry (ErrCanceled,
//     context.Canceled, context.DeadlineExceeded) are FATAL: a
//     canceled operation is a crash cut, owned by recovery, and must
//     never be retried away.
//   - The namespace/handle sentinels (ErrNotExist, ErrClosed,
//     ErrReadOnly) are FATAL.
//   - Transient OS errnos (EAGAIN, EINTR, ETIMEDOUT, ECONNRESET, the
//     NFS ESTALE family, ...) are RETRYABLE.
//   - Everything else — including corruption and integrity failures
//     from higher layers — is FATAL: never retry what you do not
//     understand, and an unrecognized error must reach the caller.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	switch {
	case errors.Is(err, ErrFatal):
		return ClassFatal
	case errors.Is(err, ErrRetryable):
		return ClassRetryable
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ClassFatal
	case errors.Is(err, ErrNotExist), errors.Is(err, ErrClosed), errors.Is(err, ErrReadOnly):
		return ClassFatal
	}
	for _, errno := range transientErrnos {
		if errors.Is(err, errno) {
			return ClassRetryable
		}
	}
	return ClassFatal
}

// IsRetryable reports whether err classifies as transient.
func IsRetryable(err error) bool { return Classify(err) == ClassRetryable }

// IsFatal reports whether err classifies as non-retryable (a nil
// error is neither).
func IsFatal(err error) bool { return Classify(err) == ClassFatal }
