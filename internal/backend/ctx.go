// Context-aware extensions of the Store/File seam.
//
// The v2 API threads a context.Context from the public surface down to
// every backend call. The base Store and File interfaces stay small
// (and every pre-v2 implementation stays valid): context support is an
// OPTIONAL capability, declared by implementing StoreCtx / FileCtx, and
// consumed through the package-level helpers below, which fall back to
// a cancellation check followed by the plain call — the same layering
// database/sql uses for its *Context methods.
//
// Two properties every implementation and helper preserve:
//
//   - A nil (or Background) context is free: the helpers reduce to the
//     plain call, so context-oblivious callers keep their exact
//     pre-v2 behavior.
//   - Cancellation is only observed BETWEEN backend operations, never
//     inside one: an individual WriteAt either happens entirely or is
//     never issued, which is what keeps a canceled multiphase commit
//     indistinguishable from a crash cut at a write boundary — the
//     recovery protocol (§2.4) already handles exactly those states.
package backend

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled reports an operation abandoned because its context was
// canceled or its deadline expired. Errors returned for that reason
// wrap BOTH this sentinel and the context's own error, so
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
// (or context.DeadlineExceeded) both hold. It is re-exported as the
// public lamassu.ErrCanceled.
var ErrCanceled = errors.New("lamassu: operation canceled")

// CtxErr returns nil when ctx is nil or still live, and otherwise an
// error wrapping ErrCanceled and ctx.Err(). Every helper in this file
// calls it before touching the backend; engine loops call it between
// blocks, runs and segments.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// FileCtx is the optional context-aware extension of File. Wrapper
// backends (shard, nfssim, faultfs) implement it so a context entering
// the top of a stack reaches the store at the bottom; leaf stores may
// rely on the helpers' fallback instead.
type FileCtx interface {
	File
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	TruncateCtx(ctx context.Context, size int64) error
	SyncCtx(ctx context.Context) error
}

// StoreCtx is the optional context-aware extension of Store.
type StoreCtx interface {
	Store
	OpenCtx(ctx context.Context, name string, flag OpenFlag) (File, error)
	RemoveCtx(ctx context.Context, name string) error
	ListCtx(ctx context.Context) ([]string, error)
	StatCtx(ctx context.Context, name string) (int64, error)
}

// OpenCtx opens name through s, honoring ctx when s supports it.
func OpenCtx(ctx context.Context, s Store, name string, flag OpenFlag) (File, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if cs, ok := s.(StoreCtx); ok {
		return cs.OpenCtx(ctx, name, flag)
	}
	return s.Open(name, flag)
}

// RemoveCtx removes name through s, honoring ctx when s supports it.
func RemoveCtx(ctx context.Context, s Store, name string) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if cs, ok := s.(StoreCtx); ok {
		return cs.RemoveCtx(ctx, name)
	}
	return s.Remove(name)
}

// ListCtx lists s, honoring ctx when s supports it.
func ListCtx(ctx context.Context, s Store) ([]string, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if cs, ok := s.(StoreCtx); ok {
		return cs.ListCtx(ctx)
	}
	return s.List()
}

// StatCtx stats name through s, honoring ctx when s supports it.
func StatCtx(ctx context.Context, s Store, name string) (int64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if cs, ok := s.(StoreCtx); ok {
		return cs.StatCtx(ctx, name)
	}
	return s.Stat(name)
}

// ReadAtCtx reads from f, honoring ctx when f supports it.
func ReadAtCtx(ctx context.Context, f File, p []byte, off int64) (int, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if cf, ok := f.(FileCtx); ok {
		return cf.ReadAtCtx(ctx, p, off)
	}
	return f.ReadAt(p, off)
}

// WriteAtCtx writes to f, honoring ctx when f supports it.
func WriteAtCtx(ctx context.Context, f File, p []byte, off int64) (int, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if cf, ok := f.(FileCtx); ok {
		return cf.WriteAtCtx(ctx, p, off)
	}
	return f.WriteAt(p, off)
}

// TruncateCtx resizes f, honoring ctx when f supports it.
func TruncateCtx(ctx context.Context, f File, size int64) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if cf, ok := f.(FileCtx); ok {
		return cf.TruncateCtx(ctx, size)
	}
	return f.Truncate(size)
}

// SyncCtx flushes f, honoring ctx when f supports it.
func SyncCtx(ctx context.Context, f File) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if cf, ok := f.(FileCtx); ok {
		return cf.SyncCtx(ctx)
	}
	return f.Sync()
}

// ReadFullCtx is ReadFull with a cancellation check before the read.
// Both paths share ReadFull's short-read rule (fullReadErr), so a
// store that returns partial progress with an error — an AttemptStore
// surfacing an exhausted retryable failure mid-read, say — is judged
// identically with and without a context.
func ReadFullCtx(ctx context.Context, f File, p []byte, off int64) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	if cf, ok := f.(FileCtx); ok {
		n, err := cf.ReadAtCtx(ctx, p, off)
		return fullReadErr(n, len(p), err)
	}
	return ReadFull(f, p, off)
}
