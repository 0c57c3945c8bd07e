package objstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/simclock"
)

func newTestStore() (*Store, *Memserver) {
	srv := NewMemserver(ServerParams{}, simclock.NewVirtual())
	return New(srv), srv
}

// TestRoundTrip: the WriteFile/ReadFile helpers (create, truncate,
// write, sync, read) round-trip through the object adapter.
func TestRoundTrip(t *testing.T) {
	s, srv := newTestStore()
	payload := bytes.Repeat([]byte{0x5A}, 10_000)
	if err := backend.WriteFile(s, "seg/0", payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := backend.ReadFile(s, "seg/0")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
	}
	if n, err := s.Stat("seg/0"); err != nil || n != int64(len(payload)) {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	if st := srv.Stats(); st.OpenUploads != 0 {
		t.Fatalf("%d multipart sessions left open after close", st.OpenUploads)
	}
}

// TestReadYourWrites: staged (unsynced) writes are visible through the
// same handle but NOT remotely until Sync commits them atomically.
func TestReadYourWrites(t *testing.T) {
	s, srv := newTestStore()
	if err := backend.WriteFile(s, "k", []byte("old old old old")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("k", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("NEW"), 4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 15)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "old NEW old old" {
		t.Fatalf("overlay read: %q", buf)
	}
	if obj, _ := srv.Object("k"); !bytes.Equal(obj, []byte("old old old old")) {
		t.Fatalf("staged write leaked to the server before Sync: %q", obj)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if obj, _ := srv.Object("k"); string(obj) != "old NEW old old" {
		t.Fatalf("Sync did not commit the staged part: %q", obj)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedClientIsACrashCut: a client that dies mid-batch — its
// Store dropped with a handle open, no Sync, no Close — leaves the
// committed object byte-identical: the whole staged batch lived in
// the client and vanishes with it, a crash cut at the head of the
// batch. A fresh client over the same server sees only the committed
// bytes.
func TestAbandonedClientIsACrashCut(t *testing.T) {
	s, srv := newTestStore()
	if err := backend.WriteFile(s, "k", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("k", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0); err != nil {
		t.Fatal(err)
	}
	f, s = nil, nil // crash: the client dies with its staged state
	if obj, _ := srv.Object("k"); !bytes.Equal(obj, []byte("committed")) {
		t.Fatalf("abandoned writes reached the committed object: %q", obj)
	}
	after := New(srv) // restart: a fresh client over the same server
	got, err := backend.ReadFile(after, "k")
	if err != nil || string(got) != "committed" {
		t.Fatalf("reopen after crash: %q, %v", got, err)
	}
}

// TestTruncateSemantics: shrink clips committed and staged bytes;
// re-growing reads zeros, never resurrected content.
func TestTruncateSemantics(t *testing.T) {
	s, _ := newTestStore()
	if err := backend.WriteFile(s, "k", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("k", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, []byte("abcd\x00\x00\x00\x00")) {
		t.Fatalf("truncate shrink+grow read %q, want zeros past the cut", buf)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := backend.ReadFile(s, "k")
	if err != nil || !bytes.Equal(got, []byte("abcd\x00\x00\x00\x00")) {
		t.Fatalf("committed content %q", got)
	}
}

// TestEOFSemantics mirrors the memfs contract: read at EOF is
// (0, io.EOF), a partial read is (n, io.EOF), negative offsets error.
func TestEOFSemantics(t *testing.T) {
	s, _ := newTestStore()
	if err := backend.WriteFile(s, "k", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("k", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 5); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
	if n, err := f.ReadAt(buf, 3); n != 2 || err != io.EOF || string(buf[:n]) != "45" {
		t.Fatalf("partial read = %d, %v, %q", n, err, buf[:n])
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := f.WriteAt(buf, 0); !errors.Is(err, backend.ErrReadOnly) {
		t.Fatalf("write on read-only handle: %v", err)
	}
}

// TestListPagination: ListCtx walks every transport page.
func TestListPagination(t *testing.T) {
	s, _ := newTestStore()
	s.listPage = 2
	want := []string{"a", "b", "c", "d", "e"}
	for _, k := range want {
		if err := backend.WriteFile(s, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("List = %v", names)
	}
	for i, k := range want {
		if names[i] != k {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
}

// TestRenameAndRemove: rename is copy+delete; remove of a missing key
// maps to ErrNotExist.
func TestRenameAndRemove(t *testing.T) {
	s, _ := newTestStore()
	if err := backend.WriteFile(s, "a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("a"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Stat(a) after rename: %v", err)
	}
	got, err := backend.ReadFile(s, "b")
	if err != nil || string(got) != "payload" {
		t.Fatalf("read after rename: %q, %v", got, err)
	}
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("b"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Remove(missing): %v", err)
	}
}

// TestTransportErrorsMarkRetryable: a non-ErrNoSuchKey transport
// failure surfaces with a Retryable mark, and a canceled context
// surfaces unmarked (fatal under Classify) — the PR 6 taxonomy
// contract RetryStore composes against.
func TestTransportErrorsMarkRetryable(t *testing.T) {
	boom := errors.New("connection reset")
	s := New(failingTransport{err: boom})
	_, err := s.Stat("k")
	if !backend.IsRetryable(err) {
		t.Fatalf("transport failure classified %v, want retryable (%v)", backend.Classify(err), err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("original transport error lost: %v", err)
	}

	srv := NewMemserver(ServerParams{RTT: time.Millisecond}, simclock.NewVirtual())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(srv).StatCtx(ctx, "k"); !errors.Is(err, backend.ErrCanceled) || !backend.IsFatal(err) {
		t.Fatalf("canceled request: %v (class %v), want ErrCanceled/fatal", err, backend.Classify(err))
	}
}

// TestDeterministicTail: with a virtual clock, every TailEvery-th
// request costs exactly TailMult times the base latency.
func TestDeterministicTail(t *testing.T) {
	clock := simclock.NewVirtual()
	srv := NewMemserver(ServerParams{RTT: time.Millisecond, TailEvery: 4, TailMult: 10}, clock)
	start := clock.Now()
	for i := 0; i < 8; i++ {
		if _, err := srv.Head(context.Background(), "missing"); err == nil {
			t.Fatal("Head of missing key succeeded")
		}
	}
	// 8 requests: 6 at 1ms, 2 tails at 10ms.
	if got, want := clock.Now().Sub(start), 26*time.Millisecond; got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	if st := srv.Stats(); st.TailEvents != 2 {
		t.Fatalf("TailEvents = %d, want 2", st.TailEvents)
	}
}

// slowComplete widens the window between a barrier's snapshot of the
// upload id and its state reset to a millisecond of wall time, so two
// barriers started together overlap whenever nothing orders them.
type slowComplete struct{ *Memserver }

func (s slowComplete) Complete(ctx context.Context, key, id string, size int64) error {
	time.Sleep(time.Millisecond)
	return s.Memserver.Complete(ctx, key, id, size)
}

// TestConcurrentSyncSharedState: handles on one object share one staged
// state and one multipart session, and shard's barrier flushes its
// handles together — with WithShards(n) carving one physical store that
// is n handles on this state syncing at once. Exactly one of them must
// Complete the session; the other finds the barrier done. Without the
// per-state barrier lock both snapshot the same upload id and the second
// Complete fails "no such upload".
func TestConcurrentSyncSharedState(t *testing.T) {
	srv := NewMemserver(ServerParams{}, simclock.NewVirtual())
	s := New(slowComplete{srv})
	if err := backend.WriteFile(s, "o", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	a, err := s.Open("o", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Open("o", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		before := srv.Stats().Completes
		payload := []byte{byte(i), byte(i), byte(i), byte(i)}
		if _, err := a.WriteAt(payload, int64(4*i)); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for j, h := range []backend.File{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[j] = h.Sync()
			}()
		}
		close(start)
		wg.Wait()
		for j, err := range errs {
			if err != nil {
				t.Fatalf("barrier %d, handle %d: %v", i, j, err)
			}
		}
		st := srv.Stats()
		if got := st.Completes - before; got != 1 {
			t.Fatalf("barrier %d: %d Completes, want exactly 1", i, got)
		}
		if st.OpenUploads != 0 {
			t.Fatalf("barrier %d: %d multipart sessions left open", i, st.OpenUploads)
		}
		if obj, _ := srv.Object("o"); !bytes.Equal(obj[4*i:4*i+4], payload) {
			t.Fatalf("barrier %d returned but the write is not committed: %v", i, obj[4*i:])
		}
	}
	for _, h := range []backend.File{a, b} {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// failingTransport errors every call with a fixed plain error.
type failingTransport struct{ err error }

func (f failingTransport) GetRange(context.Context, string, int64, int64) ([]byte, error) {
	return nil, f.err
}
func (f failingTransport) Put(context.Context, string, []byte) error { return f.err }
func (f failingTransport) CreateUpload(context.Context, string) (string, error) {
	return "", f.err
}
func (f failingTransport) PutPart(context.Context, string, string, int64, []byte) error {
	return f.err
}
func (f failingTransport) Complete(context.Context, string, string, int64) error { return f.err }
func (f failingTransport) Abort(context.Context, string, string) error           { return f.err }
func (f failingTransport) Head(context.Context, string) (int64, error)           { return 0, f.err }
func (f failingTransport) List(context.Context, string, int) ([]string, bool, error) {
	return nil, false, f.err
}
func (f failingTransport) Delete(context.Context, string) error       { return f.err }
func (f failingTransport) Copy(context.Context, string, string) error { return f.err }
