// Package integrity implements the whole-file integrity layer the
// paper sketches in §2.5: Lamassu's own checks authenticate each
// metadata block (AES-GCM) and each data block (convergent hash), but
// a malicious storage system could still roll a whole segment — or a
// whole file — back to a previous self-consistent state without
// detection. "To provide integrity checking at the level of a
// complete file, Lamassu would need to store data outside of the
// primary storage system... Lamassu's stackable design makes it
// possible to add an integrity layer on top."
//
// This package is that layer: a vfs.FS wrapper that maintains, in a
// TrustStore kept OFF the untrusted storage (in memory, in a local
// file, or co-located with the key server), an HMAC-SHA256 over each
// file's full logical content plus a monotonically increasing
// version. Opening a file verifies its content against the recorded
// MAC, so a rollback to any previous state — however internally
// consistent — is detected. The cost is a full-file read on open and
// a full-file MAC on close, which is why the paper left it as an
// optional layer rather than the default.
package integrity

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"lamassu/internal/cryptoutil"
	"lamassu/internal/vfs"
)

// ErrRollback reports content that does not match the trust store —
// tampering or a rollback by the storage system.
var ErrRollback = errors.New("integrity: file does not match trusted state")

// ErrUntracked reports a file present on storage but absent from the
// trust store (possibly planted by the storage system).
var ErrUntracked = errors.New("integrity: file has no trusted record")

// Record is one file's trusted state.
type Record struct {
	// MAC is HMAC-SHA256(key, version ‖ logical content).
	MAC [sha256.Size]byte
	// Version increments on every update; binding it into the MAC
	// prevents replaying an older (MAC, content) pair.
	Version uint64
	// Size is the logical size, checked before reading content.
	Size int64
}

// TrustStore persists Records somewhere the storage system cannot
// write — the paper suggests an on-premises store or the key server.
type TrustStore interface {
	// Get returns the record for name, or ok=false.
	Get(name string) (Record, bool, error)
	// Put stores (replaces) the record for name.
	Put(name string, rec Record) error
	// Delete removes the record for name.
	Delete(name string) error
	// Names lists all tracked files.
	Names() ([]string, error)
}

// MemTrustStore is an in-memory TrustStore (e.g. held by the
// application, or replicated via the key-server channel).
type MemTrustStore struct {
	mu   sync.Mutex
	recs map[string]Record
}

// NewMemTrustStore returns an empty in-memory trust store.
func NewMemTrustStore() *MemTrustStore {
	return &MemTrustStore{recs: make(map[string]Record)}
}

// Get implements TrustStore.
func (m *MemTrustStore) Get(name string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[name]
	return r, ok, nil
}

// Put implements TrustStore.
func (m *MemTrustStore) Put(name string, rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[name] = rec
	return nil
}

// Delete implements TrustStore.
func (m *MemTrustStore) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recs, name)
	return nil
}

// Names implements TrustStore.
func (m *MemTrustStore) Names() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.recs))
	for n := range m.recs {
		out = append(out, n)
	}
	return out, nil
}

// FS wraps an inner vfs.FS (typically LamassuFS) with whole-file
// rollback detection.
type FS struct {
	inner vfs.FS
	trust TrustStore
	key   cryptoutil.Key
}

// New returns the integrity layer over inner, recording trusted state
// in trust under macKey.
func New(inner vfs.FS, trust TrustStore, macKey cryptoutil.Key) (*FS, error) {
	if macKey.IsZero() {
		return nil, errors.New("integrity: MAC key must be set")
	}
	return &FS{inner: inner, trust: trust, key: macKey}, nil
}

// mac computes HMAC-SHA256(key, version ‖ content-of-f).
func (x *FS) mac(f vfs.File, version uint64) ([sha256.Size]byte, int64, error) {
	var out [sha256.Size]byte
	h := hmac.New(sha256.New, x.key[:])
	var vbuf [8]byte
	binary.LittleEndian.PutUint64(vbuf[:], version)
	h.Write(vbuf[:])
	size, err := f.Size()
	if err != nil {
		return out, 0, err
	}
	buf := make([]byte, 1<<20)
	var off int64
	for off < size {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil && !errors.Is(err, io.EOF) {
			return out, 0, err
		}
		h.Write(buf[:n])
		off += n
	}
	copy(out[:], h.Sum(nil))
	return out, size, nil
}

// verify checks an open file against its trust record.
func (x *FS) verify(name string, f vfs.File) (Record, error) {
	rec, ok, err := x.trust.Get(name)
	if err != nil {
		return Record{}, err
	}
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrUntracked, name)
	}
	size, err := f.Size()
	if err != nil {
		return Record{}, err
	}
	if size != rec.Size {
		return Record{}, fmt.Errorf("%w: %q size %d, trusted %d", ErrRollback, name, size, rec.Size)
	}
	mac, _, err := x.mac(f, rec.Version)
	if err != nil {
		return Record{}, err
	}
	if !hmac.Equal(mac[:], rec.MAC[:]) {
		return Record{}, fmt.Errorf("%w: %q", ErrRollback, name)
	}
	return rec, nil
}

// commit records a file's current state as trusted, bumping the
// version.
func (x *FS) commit(name string, f vfs.File, prevVersion uint64) error {
	version := prevVersion + 1
	mac, size, err := x.mac(f, version)
	if err != nil {
		return err
	}
	return x.trust.Put(name, Record{MAC: mac, Version: version, Size: size})
}

// Create implements vfs.FS.
func (x *FS) Create(name string) (vfs.File, error) { return x.CreateCtx(nil, name) }

// CreateCtx implements vfs.FS, forwarding ctx to the inner layer (the
// verification read itself is not interruptible: a handle is either
// fully verified or not returned).
func (x *FS) CreateCtx(ctx context.Context, name string) (vfs.File, error) {
	inner, err := x.inner.CreateCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	rec, ok, err := x.trust.Get(name)
	if err != nil {
		inner.Close()
		return nil, err
	}
	if ok {
		// Re-opening an existing tracked file read-write: verify it
		// first.
		if _, err := x.verify(name, inner); err != nil {
			inner.Close()
			return nil, err
		}
	}
	return newFile(x, name, inner, true, rec.Version), nil
}

// Open implements vfs.FS: the file is verified against the trust
// store before the handle is returned.
func (x *FS) Open(name string) (vfs.File, error) { return x.OpenCtx(nil, name) }

// OpenCtx implements vfs.FS.
func (x *FS) OpenCtx(ctx context.Context, name string) (vfs.File, error) {
	inner, err := x.inner.OpenCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	rec, err := x.verify(name, inner)
	if err != nil {
		inner.Close()
		return nil, err
	}
	return newFile(x, name, inner, false, rec.Version), nil
}

// OpenRW implements vfs.FS.
func (x *FS) OpenRW(name string) (vfs.File, error) { return x.OpenRWCtx(nil, name) }

// OpenRWCtx implements vfs.FS.
func (x *FS) OpenRWCtx(ctx context.Context, name string) (vfs.File, error) {
	inner, err := x.inner.OpenRWCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	rec, err := x.verify(name, inner)
	if err != nil {
		inner.Close()
		return nil, err
	}
	return newFile(x, name, inner, true, rec.Version), nil
}

// Remove implements vfs.FS.
func (x *FS) Remove(name string) error { return x.RemoveCtx(nil, name) }

// RemoveCtx implements vfs.FS.
func (x *FS) RemoveCtx(ctx context.Context, name string) error {
	if err := x.inner.RemoveCtx(ctx, name); err != nil {
		return err
	}
	return x.trust.Delete(name)
}

// Stat implements vfs.FS.
func (x *FS) Stat(name string) (int64, error) { return x.inner.Stat(name) }

// StatCtx implements vfs.FS.
func (x *FS) StatCtx(ctx context.Context, name string) (int64, error) {
	return x.inner.StatCtx(ctx, name)
}

// List implements vfs.FS.
func (x *FS) List() ([]string, error) { return x.inner.List() }

// ListCtx implements vfs.FS.
func (x *FS) ListCtx(ctx context.Context) ([]string, error) { return x.inner.ListCtx(ctx) }

// VerifyAll audits every tracked file, returning the names that fail.
func (x *FS) VerifyAll() (bad []string, err error) {
	names, err := x.trust.Names()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		f, err := x.inner.Open(n)
		if err != nil {
			bad = append(bad, n)
			continue
		}
		if _, err := x.verify(n, f); err != nil {
			bad = append(bad, n)
		}
		f.Close()
	}
	return bad, nil
}

// file is a verified handle; writes mark it dirty and Close/Sync
// refresh the trust record.
type file struct {
	vfs.Cursor

	fs       *FS
	name     string
	inner    vfs.File
	writable bool
	version  uint64

	mu     sync.Mutex
	dirty  bool
	closed bool
}

func newFile(fs *FS, name string, inner vfs.File, writable bool, version uint64) *file {
	f := &file{fs: fs, name: name, inner: inner, writable: writable, version: version}
	f.BindCursor(f)
	return f
}

func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *file) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return f.inner.ReadAtCtx(ctx, p, off)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
	return f.inner.WriteAt(p, off)
}

func (f *file) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
	return f.inner.WriteAtCtx(ctx, p, off)
}

func (f *file) Truncate(size int64) error {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
	return f.inner.Truncate(size)
}

func (f *file) TruncateCtx(ctx context.Context, size int64) error {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
	return f.inner.TruncateCtx(ctx, size)
}

func (f *file) Size() (int64, error) { return f.inner.Size() }

func (f *file) Sync() error { return f.SyncCtx(nil) }

func (f *file) SyncCtx(ctx context.Context) error {
	if err := f.inner.SyncCtx(ctx); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dirty && f.writable {
		if err := f.fs.commit(f.name, f.inner, f.version); err != nil {
			return err
		}
		f.version++
		f.dirty = false
	}
	return nil
}

func (f *file) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return vfs.ErrClosed
	}
	f.closed = true
	dirty := f.dirty && f.writable
	f.mu.Unlock()
	if dirty {
		if err := f.inner.Sync(); err != nil {
			f.inner.Close()
			return err
		}
		if err := f.fs.commit(f.name, f.inner, f.version); err != nil {
			f.inner.Close()
			return err
		}
	}
	return f.inner.Close()
}

// CloseCtx implements vfs.File: the handle is ALWAYS released, but a
// canceled context skips the close-time MAC commit of still-dirty
// state (crash-equivalent; the trust record keeps its last committed
// version).
func (f *file) CloseCtx(ctx context.Context) error {
	if err := vfs.Canceled(ctx); err != nil {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return vfs.ErrClosed
		}
		f.closed = true
		f.mu.Unlock()
		if cerr := f.inner.CloseCtx(ctx); cerr != nil {
			return cerr
		}
		return err
	}
	return f.Close()
}
