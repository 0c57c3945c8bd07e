package lamassu

// Tests for the API v2 surface: context plumbing through the public
// API, the typed error sentinels (ErrClosed, ErrCanceled, PathError),
// std-lib conformance (io interfaces, io/fs view), and the functional
// options constructor.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"testing/fstest"

	"lamassu/internal/backend"
)

// Compile-time std-lib conformance of the public interfaces.
var (
	_ io.Reader          = File(nil)
	_ io.Writer          = File(nil)
	_ io.Seeker          = File(nil)
	_ io.ReaderAt        = File(nil)
	_ io.WriterAt        = File(nil)
	_ io.Closer          = File(nil)
	_ io.ReadWriteSeeker = File(nil)
	_ io.ReadWriteCloser = File(nil)
)

func testMount(t *testing.T, opts ...Option) *Mount {
	t.Helper()
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(NewMemStorage(), keys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFunctionalOptions: each option New is given configures the
// mount.
func TestFunctionalOptions(t *testing.T) {
	m := testMount(t,
		WithBlockSize(512),
		WithReservedSlots(4),
		WithParallelism(1),
		WithCache(64),
		WithLatencyCollection(),
	)
	if !strings.Contains(m.String(), "block=512B, R=4") {
		t.Fatalf("options not applied: %s", m)
	}
	if err := m.WriteFile("x", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if m.EngineStats().BackendIOs == 0 {
		t.Fatal("WithLatencyCollection not applied")
	}
}

// TestErrClosedFile: every operation on a closed File returns
// ErrClosed.
func TestErrClosedFile(t *testing.T) {
	m := testMount(t)
	f, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after close: %v", err)
	}
	if _, err := f.WriteAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt after close: %v", err)
	}
	if _, err := f.Size(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Size after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Truncate after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := f.ReadAtCtx(context.Background(), buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAtCtx after close: %v", err)
	}
	if !IsClosed(f.Sync()) {
		t.Fatal("IsClosed helper")
	}
}

// TestErrClosedMount: operations on a closed Mount return ErrClosed,
// wrapped in a PathError for named operations.
func TestErrClosedMount(t *testing.T) {
	m := testMount(t)
	if err := m.WriteFile("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := m.Open("f"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after close: %v", err)
	}
	var pe *PathError
	if _, err := m.Create("g"); !errors.As(err, &pe) || pe.Op != "create" || pe.Path != "g" {
		t.Fatalf("Create after close: %v", err)
	}
	if _, err := m.List(); !errors.Is(err, ErrClosed) {
		t.Fatalf("List after close: %v", err)
	}
	if err := m.Remove("f"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Remove after close: %v", err)
	}
	if _, err := m.ReadFileCtx(context.Background(), "f"); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFileCtx after close: %v", err)
	}
}

// TestPathError: named Mount operations wrap failures in *PathError
// carrying op and name, errors.Is/As-clean down to the sentinel.
func TestPathError(t *testing.T) {
	m := testMount(t)
	_, err := m.Open("missing")
	var pe *PathError
	if !errors.As(err, &pe) {
		t.Fatalf("Open error %T does not As to *PathError", err)
	}
	if pe.Op != "open" || pe.Path != "missing" {
		t.Fatalf("PathError fields: %+v", pe)
	}
	if !errors.Is(err, ErrNotExist) || !IsNotExist(err) {
		t.Fatalf("PathError does not unwrap to ErrNotExist: %v", err)
	}
	if !strings.Contains(err.Error(), "open missing:") {
		t.Fatalf("PathError message: %v", err)
	}
}

// TestMountFSView: the io/fs view passes the std-lib conformance
// harness, including the synthesized directory tree.
func TestMountFSView(t *testing.T) {
	m := testMount(t)
	files := map[string]string{
		"hello.txt":      "hello, deduplicating world",
		"dir/a.bin":      strings.Repeat("A", 9000),
		"dir/sub/b.txt":  "nested",
		"dir2/empty.txt": "",
	}
	for name, content := range files {
		if err := m.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	fsys := m.FS()
	if err := fstest.TestFS(fsys, "hello.txt", "dir/a.bin", "dir/sub/b.txt", "dir2/empty.txt"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(fsys, "dir/a.bin")
	if err != nil || string(got) != files["dir/a.bin"] {
		t.Fatalf("fs.ReadFile: %v", err)
	}
	if _, err := fsys.Open("dir/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	var perr *fs.PathError
	if _, err := fsys.Open("../escape"); !errors.As(err, &perr) || !errors.Is(err, fs.ErrInvalid) {
		t.Fatalf("invalid path: %v", err)
	}
}

// TestReadSeekerCopy: a File is an io.ReadWriteSeeker; io.Copy round
// trips content through the cursor API.
func TestReadSeekerCopy(t *testing.T) {
	m := testMount(t)
	want := make([]byte, 3*4096+123)
	for i := range want {
		want[i] = byte(i * 31)
	}

	dst, err := m.Create("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(dst, bytes.NewReader(want)); err != nil || n != int64(len(want)) {
		t.Fatalf("io.Copy in: %d, %v", n, err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := m.Open("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Seek around before the copy to exercise the cursor.
	if pos, err := src.Seek(100, io.SeekStart); err != nil || pos != 100 {
		t.Fatalf("Seek: %d, %v", pos, err)
	}
	if pos, err := src.Seek(-100, io.SeekCurrent); err != nil || pos != 0 {
		t.Fatalf("Seek back: %d, %v", pos, err)
	}
	if pos, err := src.Seek(0, io.SeekEnd); err != nil || pos != int64(len(want)) {
		t.Fatalf("SeekEnd: %d, %v", pos, err)
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n, err := io.Copy(&out, src); err != nil || n != int64(len(want)) {
		t.Fatalf("io.Copy out: %d, %v", n, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("round trip diverged")
	}
}

// cancelAfterStore is a public-API cancellation fixture: a Storage
// wrapper canceling a context after N context-aware backend writes.
type cancelAfterStore struct {
	inner backend.Store

	mu     sync.Mutex
	count  int64
	at     int64
	cancel context.CancelFunc
}

func (s *cancelAfterStore) arm(at int64, cancel context.CancelFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count, s.at, s.cancel = 0, at, cancel
}

func (s *cancelAfterStore) wrote() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	if s.at > 0 && s.count == s.at && s.cancel != nil {
		s.cancel()
	}
}

func (s *cancelAfterStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.inner.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &cancelAfterFile{inner: f, store: s}, nil
}

func (s *cancelAfterStore) Remove(name string) error        { return s.inner.Remove(name) }
func (s *cancelAfterStore) Rename(o, n string) error        { return s.inner.Rename(o, n) }
func (s *cancelAfterStore) List() ([]string, error)         { return s.inner.List() }
func (s *cancelAfterStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

type cancelAfterFile struct {
	inner backend.File
	store *cancelAfterStore
}

func (f *cancelAfterFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *cancelAfterFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(p, off)
	f.store.wrote()
	return n, err
}
func (f *cancelAfterFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *cancelAfterFile) Size() (int64, error)      { return f.inner.Size() }
func (f *cancelAfterFile) Sync() error               { return f.inner.Sync() }
func (f *cancelAfterFile) Close() error              { return f.inner.Close() }

// TestCancelMidCommitPublicAPI is the acceptance check at the public
// surface: a deadline/cancel firing inside a large coalesced commit
// surfaces as ErrCanceled (with context.Canceled visible), and the
// file recovers to a clean, fully-readable state — sharded and
// unsharded. (internal/core's TestCancelMidCommitSweep cuts at every
// backend write.)
func TestCancelMidCommitPublicAPI(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"coalesced", nil},
		{"sharded-coalesced", []Option{WithShards(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &cancelAfterStore{inner: backend.NewMemStore()}
			m, err := New(store, keys, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			oldData := bytes.Repeat([]byte{0xAB}, 256*1024)
			if err := m.WriteFile("big", oldData); err != nil {
				t.Fatal(err)
			}

			newData := bytes.Repeat([]byte{0xCD}, 256*1024)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store.arm(3, cancel) // cancel mid-commit, a few writes in
			err = m.WriteFileCtx(ctx, "big", newData)
			if err == nil {
				t.Fatal("huge write succeeded despite mid-commit cancel")
			}
			if !errors.Is(err, ErrCanceled) || !IsCanceled(err) {
				t.Fatalf("error %v does not wrap ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			var pe *PathError
			if !errors.As(err, &pe) || pe.Path != "big" {
				t.Fatalf("error %v is not a PathError for big", err)
			}

			// Recover and audit: the mount must come back clean.
			store.arm(0, nil)
			m2, err := New(store, keys, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m2.Recover("big"); err != nil {
				t.Fatalf("recover: %v", err)
			}
			rep, err := m2.Check("big")
			if err != nil || !rep.Clean() {
				t.Fatalf("post-recovery audit: %+v, %v", rep, err)
			}
			got, err := m2.ReadFile("big")
			if err != nil {
				t.Fatalf("read after recovery: %v", err)
			}
			// WriteFileCtx truncates to zero first, so every recovered
			// block is either the new content or (for the final partial
			// state) absent; the size reflects how far the canceled write
			// got, and all present bytes must be the new pattern or zero
			// (hole semantics for blocks whose data never landed).
			for i, b := range got {
				if b != 0xCD && b != 0x00 {
					t.Fatalf("byte %d after recovery holds %#x (neither new data nor hole)", i, b)
				}
			}

			// A deadline-style retry with a live context completes.
			if err := m2.WriteFileCtx(context.Background(), "big", newData); err != nil {
				t.Fatalf("retry write: %v", err)
			}
			got, err = m2.ReadFile("big")
			if err != nil || !bytes.Equal(got, newData) {
				t.Fatalf("content after retry: %v", err)
			}
		})
	}
}

// TestNoBackendWorkAfterCancel: once WriteFileCtx reports
// cancellation, NO further backend writes may have happened on its
// behalf — in particular the internal handle teardown must not
// silently commit the canceled data under a fresh context.
func TestNoBackendWorkAfterCancel(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	store := &cancelAfterStore{inner: backend.NewMemStore()}
	// Serial engine: no already-dispatched pool tasks can race extra
	// writes past the cancellation point, so the count is exact.
	m, err := New(store, keys, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 3
	store.arm(cancelAt, cancel)
	err = m.WriteFileCtx(ctx, "f", bytes.Repeat([]byte{0xEE}, 1<<20))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	store.mu.Lock()
	writes := store.count
	store.mu.Unlock()
	if writes != cancelAt {
		t.Fatalf("%d backend writes after arming; want exactly %d — work continued after cancellation", writes, cancelAt)
	}
}

// TestMountFSViewShadowedFile: the flat store legally holds a name
// that is both a file and a directory prefix ("a" and "a/b"); the
// io/fs view resolves the conflict in favor of the directory and must
// stay walkable.
func TestMountFSViewShadowedFile(t *testing.T) {
	m := testMount(t)
	for _, name := range []string{"a", "a/b", "a/c/d"} {
		if err := m.WriteFile(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	fsys := m.FS()
	if err := fstest.TestFS(fsys, "a/b", "a/c/d"); err != nil {
		t.Fatal(err)
	}
	var walked []string
	if err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		walked = append(walked, p)
		return nil
	}); err != nil {
		t.Fatalf("WalkDir over shadowed namespace: %v", err)
	}
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() || entries[0].Name() != "a" {
		t.Fatalf("root entries: %v", entries)
	}
	if got, err := fs.ReadFile(fsys, "a/b"); err != nil || string(got) != "a/b" {
		t.Fatalf("a/b through the view: %q, %v", got, err)
	}
	// The shadowed file stays reachable through the Mount API.
	if got, err := m.ReadFile("a"); err != nil || string(got) != "a" {
		t.Fatalf("shadowed file via Mount: %q, %v", got, err)
	}
}

// TestDeadlineExceeded: a context deadline surfaces as ErrCanceled
// wrapping context.DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	m := testMount(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	err := m.WriteFileCtx(ctx, "f", []byte("x"))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestNilCtxEquivalence: nil-context and plain calls are the same code
// path; a quick byte-for-byte round trip sanity check.
func TestNilCtxEquivalence(t *testing.T) {
	m := testMount(t)
	data := bytes.Repeat([]byte{9}, 10000)
	if err := m.WriteFileCtx(nil, "f", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFileCtx(nil, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("nil-ctx round trip: %v", err)
	}
	if _, err := m.StatCtx(nil, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ListCtx(nil); err != nil {
		t.Fatal(err)
	}
}
