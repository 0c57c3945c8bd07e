// Package vfs defines the file-system interface exported by each of
// the three systems the paper evaluates — LamassuFS, EncFS and
// PlainFS — and shared helpers for block-granular I/O.
//
// In the paper's prototype this seam is Linux FUSE: applications issue
// POSIX file I/O, the kernel forwards it to the user-space shim, and
// the shim rewrites it onto a backing store (Figure 4). Here the FUSE
// transport is replaced by direct calls through vfs.FS; the shim logic
// below the seam is unchanged, and all three file systems sit behind
// the same interface so comparisons remain apples-to-apples (the
// paper ran even its plain baseline through FUSE for the same reason).
package vfs

import (
	"context"
	"errors"
	"io"
)

// ErrNotExist mirrors backend.ErrNotExist at the VFS level.
var ErrNotExist = errors.New("vfs: file does not exist")

// File is an open handle exposing synchronous positional I/O, the
// subset of POSIX semantics the paper's workloads use (FIO with 4 KiB
// sync I/O, file copies).
//
// Since API v2 a File is also an io.ReadWriteSeeker (every
// implementation embeds a Cursor bound to its positional methods, so
// handles plug straight into io.Copy and friends) and carries
// context-aware variants of the operations that touch the backing
// store. The *Ctx methods observe cancellation only between block and
// run boundaries — never inside a backend write — so an interrupted
// multiphase commit is exactly a crash cut the §2.4 recovery protocol
// repairs. Passing a nil context (or calling the plain methods, which
// are equivalent) preserves the pre-v2 behavior byte for byte.
//
// Writes follow the write-back contract POSIX already has. A write may
// return before the backend writes of a commit it triggers have landed,
// as LamassuFS does on every mount whose I/O window has more than one
// slot. The error of such a commit surfaces at the handle's next
// WriteAt, Sync, Truncate or Close: WriteAt keeps returning it, and the
// first Sync, Truncate or Close reports it and clears it. Only Sync,
// Truncate and Close are barriers; a caller that must know every byte
// landed calls one and checks its error.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.ReaderAt
	io.WriterAt
	// ReadAtCtx is ReadAt honoring ctx between blocks/runs.
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	// WriteAtCtx is WriteAt honoring ctx between blocks/runs; a write
	// canceled mid-commit returns ErrCanceled and leaves the file
	// recoverable.
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	// Truncate sets the logical file size.
	Truncate(size int64) error
	// TruncateCtx is Truncate honoring ctx between the block and
	// segment operations a resize performs (a sub-block cut re-commits
	// the boundary segment); a canceled cut is crash-equivalent and
	// must be retried — or recovered — before the size is trustworthy.
	TruncateCtx(ctx context.Context, size int64) error
	// Size returns the logical file size (excluding any encryption
	// metadata the implementation embeds downstream).
	Size() (int64, error)
	// Sync flushes all buffered state (including any pending
	// multiphase commits) to the backing store.
	Sync() error
	// SyncCtx is Sync honoring ctx between the segment commits it
	// flushes.
	SyncCtx(ctx context.Context) error
	// Close flushes and releases the handle. Every operation on a
	// closed handle returns ErrClosed.
	Close() error
	// CloseCtx is Close honoring ctx. It ALWAYS releases the handle;
	// under a canceled context it skips the flush of still-staged data
	// (crash-equivalent: the on-disk state remains recoverable) instead
	// of performing un-cancellable backend work.
	CloseCtx(ctx context.Context) error
}

// FS is a flat-namespace file system. The *Ctx variants thread the
// context to the backing store (and, for LamassuFS, through the size
// load the open performs); a nil context selects the plain behavior.
type FS interface {
	// Create opens name read-write, creating it if absent.
	Create(name string) (File, error)
	// CreateCtx is Create honoring ctx.
	CreateCtx(ctx context.Context, name string) (File, error)
	// Open opens an existing file read-only.
	Open(name string) (File, error)
	// OpenCtx is Open honoring ctx.
	OpenCtx(ctx context.Context, name string) (File, error)
	// OpenRW opens an existing file read-write.
	OpenRW(name string) (File, error)
	// OpenRWCtx is OpenRW honoring ctx.
	OpenRWCtx(ctx context.Context, name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// RemoveCtx is Remove honoring ctx.
	RemoveCtx(ctx context.Context, name string) error
	// Stat returns the logical size of a file.
	Stat(name string) (int64, error)
	// StatCtx is Stat honoring ctx.
	StatCtx(ctx context.Context, name string) (int64, error)
	// List returns all file names, sorted.
	List() ([]string, error)
	// ListCtx is List honoring ctx.
	ListCtx(ctx context.Context) ([]string, error)
}

// Span describes the intersection of a byte range with one block: the
// caller's request [Off, Off+Len) covers bytes [Start, Start+Len) of
// block Index.
type Span struct {
	// Index is the zero-based block index.
	Index int64
	// Start is the first byte within the block.
	Start int
	// Len is the number of bytes within the block.
	Len int
	// BufOff is the offset of this span within the caller's buffer.
	BufOff int
}

// Full reports whether the span covers the entire block.
func (s Span) Full(blockSize int) bool { return s.Start == 0 && s.Len == blockSize }

// Spans splits the byte range [off, off+n) into per-block spans for
// the given block size. All block-granular file systems use this to
// turn arbitrary requests into whole-block operations (Lamassu's
// "base unit for any read or write is a full block", §2.3).
func Spans(off int64, n, blockSize int) []Span {
	if n <= 0 {
		return nil
	}
	bs := int64(blockSize)
	first := off / bs
	last := (off + int64(n) - 1) / bs
	out := make([]Span, 0, last-first+1)
	bufOff := 0
	for b := first; b <= last; b++ {
		start := 0
		if b == first {
			start = int(off - b*bs)
		}
		length := blockSize - start
		if remaining := n - bufOff; length > remaining {
			length = remaining
		}
		out = append(out, Span{Index: b, Start: start, Len: length, BufOff: bufOff})
		bufOff += length
	}
	return out
}

// WriteAll writes data at offset 0, truncating first — a helper used
// by copy tools and tests.
func WriteAll(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
	}
	return f.Sync()
}

// ReadAll reads the full logical content of a file.
func ReadAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
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
	n, err := f.ReadAt(buf, 0)
	if int64(n) == sz && (err == nil || errors.Is(err, io.EOF)) {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}

// Copy streams a file from src to dst in chunkSize pieces, the way the
// paper's storage-efficiency experiments copy data files onto each
// volume (§4.1). It returns the number of bytes copied.
func Copy(dst FS, dstName string, src FS, srcName string, chunkSize int) (int64, error) {
	if chunkSize <= 0 {
		chunkSize = 1 << 20
	}
	in, err := src.Open(srcName)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := dst.Create(dstName)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	if err := out.Truncate(0); err != nil {
		return 0, err
	}
	size, err := in.Size()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, chunkSize)
	var off int64
	for off < size {
		n := chunkSize
		if int64(n) > size-off {
			n = int(size - off)
		}
		if _, err := in.ReadAt(buf[:n], off); err != nil && !errors.Is(err, io.EOF) {
			return off, err
		}
		if _, err := out.WriteAt(buf[:n], off); err != nil {
			return off, err
		}
		off += int64(n)
	}
	return off, out.Sync()
}
