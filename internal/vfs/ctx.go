// Context plumbing and std-lib interop shared by every vfs.FS
// implementation (LamassuFS, EncFS, PlainFS, the per-file-CE and
// integrity layers).
package vfs

import (
	"context"
	"errors"
	"io"
	"sync"

	"lamassu/internal/backend"
)

// ErrCanceled reports an operation abandoned because its context was
// canceled or its deadline expired; it is the backend sentinel,
// re-exported so every layer returns the same value. Errors wrap both
// it and the context's own error (errors.Is-clean against
// context.Canceled / context.DeadlineExceeded).
var ErrCanceled = backend.ErrCanceled

// ErrClosed reports an operation on a closed handle; one sentinel for
// every layer, re-exported at the top as lamassu.ErrClosed.
var ErrClosed = backend.ErrClosed

// Canceled returns nil when ctx is nil or live, and otherwise an error
// wrapping ErrCanceled and ctx.Err(). Pass-through file systems use it
// as the entry check of their *Ctx methods.
func Canceled(ctx context.Context) error { return backend.CtxErr(ctx) }

// Positional is the positional-I/O subset Cursor adapts.
type Positional interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
}

// Cursor layers the stateful io.Reader / io.Writer / io.Seeker methods
// over a positional file, giving every File io.ReadWriteSeeker
// conformance (and with it io.Copy, bufio, etc.) for free. A File
// implementation embeds a Cursor and binds it to itself at
// construction; the positional methods stay the primary interface and
// remain independent of the cursor.
//
// The cursor position is its own lock domain: concurrent Read/Write
// calls are serialized against each other (each consumes a distinct
// range, like POSIX file-description offsets) but never against the
// positional methods.
type Cursor struct {
	mu  sync.Mutex
	pos int64
	f   Positional
}

// BindCursor attaches the cursor to the file it is embedded in. Call
// once, before the handle is shared.
func (c *Cursor) BindCursor(f Positional) { c.f = f }

// Read implements io.Reader at the cursor position.
func (c *Cursor) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.f.ReadAt(p, c.pos)
	c.pos += int64(n)
	return n, err
}

// Write implements io.Writer at the cursor position.
func (c *Cursor) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.f.WriteAt(p, c.pos)
	c.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (c *Cursor) Seek(offset int64, whence int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = c.pos
	case io.SeekEnd:
		size, err := c.f.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, errInvalidWhence
	}
	if base+offset < 0 {
		return 0, errNegativeSeek
	}
	c.pos = base + offset
	return c.pos, nil
}

var (
	errInvalidWhence = errors.New("vfs: invalid seek whence")
	errNegativeSeek  = errors.New("vfs: negative seek position")
)

// WriteAllCtx is WriteAll with a context carried through every layer —
// including the deferred close: once ctx is canceled, no further
// backend work happens on its behalf, and no "canceled" data is
// silently committed by the handle teardown.
func WriteAllCtx(ctx context.Context, fs FS, name string, data []byte) error {
	f, err := fs.CreateCtx(ctx, name)
	if err != nil {
		return err
	}
	defer func() { _ = f.CloseCtx(ctx) }()
	if err := f.Truncate(0); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := f.WriteAtCtx(ctx, data, 0); err != nil {
			return err
		}
	}
	return f.SyncCtx(ctx)
}

// ReadAllCtx is ReadAll with a context carried through every layer.
func ReadAllCtx(ctx context.Context, fs FS, name string) ([]byte, error) {
	f, err := fs.OpenCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sz)
	if sz == 0 {
		return buf, nil
	}
	n, err := f.ReadAtCtx(ctx, buf, 0)
	if int64(n) == sz && (err == nil || err == io.EOF) {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}
