package backend

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// conformance runs the same behavioural suite against any Store
// implementation.
func conformance(t *testing.T, mk func(t *testing.T) Store) {
	t.Run("OpenMissing", func(t *testing.T) {
		s := mk(t)
		if _, err := s.Open("nope", OpenRead); !errors.Is(err, ErrNotExist) {
			t.Fatalf("OpenRead missing: %v", err)
		}
		if _, err := s.Open("nope", OpenWrite); !errors.Is(err, ErrNotExist) {
			t.Fatalf("OpenWrite missing: %v", err)
		}
	})

	t.Run("CreateWriteRead", func(t *testing.T) {
		s := mk(t)
		f, err := s.Open("a", OpenCreate)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("hello backend world")
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := ReadFull(f, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q", got)
		}
		sz, err := f.Size()
		if err != nil || sz != int64(len(data)) {
			t.Fatalf("Size = %d, %v", sz, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("double close: %v", err)
		}
	})

	t.Run("SparseWriteZeroFills", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Open("sparse", OpenCreate)
		defer f.Close()
		if _, err := f.WriteAt([]byte{0xFF}, 100); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 101)
		if err := ReadFull(f, got, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if got[i] != 0 {
				t.Fatalf("byte %d = %#x, want zero fill", i, got[i])
			}
		}
		if got[100] != 0xFF {
			t.Fatalf("byte 100 = %#x", got[100])
		}
	})

	t.Run("ReadPastEOF", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Open("short", OpenCreate)
		defer f.Close()
		if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 10)
		n, err := f.ReadAt(buf, 0)
		if n != 3 || !errors.Is(err, io.EOF) {
			t.Fatalf("short read: n=%d err=%v", n, err)
		}
		if _, err := f.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
			t.Fatalf("read past EOF: %v", err)
		}
	})

	t.Run("TruncateGrowShrink", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Open("t", OpenCreate)
		defer f.Close()
		if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(3); err != nil {
			t.Fatal(err)
		}
		if sz, _ := f.Size(); sz != 3 {
			t.Fatalf("size after shrink = %d", sz)
		}
		if err := f.Truncate(8); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		if err := ReadFull(f, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{'a', 'b', 'c', 0, 0, 0, 0, 0}) {
			t.Fatalf("grow did not zero-fill: %q", got)
		}
		if err := f.Truncate(-1); err == nil {
			t.Fatalf("negative truncate accepted")
		}
	})

	t.Run("ReadOnlyEnforced", func(t *testing.T) {
		s := mk(t)
		if err := WriteFile(s, "ro", []byte("data")); err != nil {
			t.Fatal(err)
		}
		f, err := s.Open("ro", OpenRead)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("WriteAt on read-only: %v", err)
		}
		if err := f.Truncate(0); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Truncate on read-only: %v", err)
		}
	})

	t.Run("RemoveRename", func(t *testing.T) {
		s := mk(t)
		if err := WriteFile(s, "x", []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Rename("x", "y"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stat("x"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("old name still exists: %v", err)
		}
		if sz, err := s.Stat("y"); err != nil || sz != 1 {
			t.Fatalf("Stat(y) = %d, %v", sz, err)
		}
		if err := s.Remove("y"); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("y"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("double remove: %v", err)
		}
		if err := s.Rename("missing", "z"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("rename missing: %v", err)
		}
	})

	t.Run("List", func(t *testing.T) {
		s := mk(t)
		for _, n := range []string{"b", "a", "dir/c"} {
			if err := WriteFile(s, n, []byte(n)); err != nil {
				t.Fatal(err)
			}
		}
		names, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"a", "b", "dir/c"}
		if len(names) != len(want) {
			t.Fatalf("List = %v, want %v", names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("List = %v, want %v", names, want)
			}
		}
	})

	t.Run("WriteReadFileHelpers", func(t *testing.T) {
		s := mk(t)
		data := bytes.Repeat([]byte{1, 2, 3}, 1000)
		if err := WriteFile(s, "h", data); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(s, "h")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("helper round trip failed")
		}
		// Overwrite with shorter content truncates.
		if err := WriteFile(s, "h", []byte("xy")); err != nil {
			t.Fatal(err)
		}
		got, err = ReadFile(s, "h")
		if err != nil || string(got) != "xy" {
			t.Fatalf("overwrite: %q, %v", got, err)
		}
		// Empty file.
		if err := WriteFile(s, "empty", nil); err != nil {
			t.Fatal(err)
		}
		got, err = ReadFile(s, "empty")
		if err != nil || len(got) != 0 {
			t.Fatalf("empty file: %v, %v", got, err)
		}
	})

	t.Run("ConcurrentWriters", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Open("conc", OpenCreate)
		defer f.Close()
		var wg sync.WaitGroup
		const workers = 8
		const chunk = 1024
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := bytes.Repeat([]byte{byte(w + 1)}, chunk)
				if _, err := f.WriteAt(buf, int64(w*chunk)); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}(w)
		}
		wg.Wait()
		got := make([]byte, workers*chunk)
		if err := ReadFull(f, got, 0); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < chunk; i++ {
				if got[w*chunk+i] != byte(w+1) {
					t.Fatalf("worker %d byte %d = %#x", w, i, got[w*chunk+i])
				}
			}
		}
	})

	t.Run("QuickRandomIO", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Open("rand", OpenCreate)
		defer f.Close()
		const size = 1 << 16
		shadow := make([]byte, size)
		if err := f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		prop := func(off uint16, ln uint8, fill byte) bool {
			o := int64(off) % (size - 256)
			l := int(ln)%255 + 1
			buf := bytes.Repeat([]byte{fill}, l)
			if _, err := f.WriteAt(buf, o); err != nil {
				return false
			}
			copy(shadow[o:int(o)+l], buf)
			// read a random window and compare with shadow
			ro := rng.Int63n(size - 256)
			rl := rng.Intn(255) + 1
			got := make([]byte, rl)
			if err := ReadFull(f, got, ro); err != nil {
				return false
			}
			return bytes.Equal(got, shadow[ro:int(ro)+rl])
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMemStoreConformance(t *testing.T) {
	conformance(t, func(t *testing.T) Store { return NewMemStore() })
}

func TestOSStoreConformance(t *testing.T) {
	conformance(t, func(t *testing.T) Store {
		s, err := NewOSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestMemStoreStats(t *testing.T) {
	s := NewMemStore()
	f, _ := s.Open("a", OpenCreate)
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	if err := ReadFull(f, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes != 2 || st.BytesWritten != 8192 {
		t.Errorf("writes=%d bytes=%d, want 2/8192", st.Writes, st.BytesWritten)
	}
	if st.Reads != 1 || st.BytesRead != 4096 {
		t.Errorf("reads=%d bytes=%d, want 1/4096", st.Reads, st.BytesRead)
	}
	if st.Syncs != 1 {
		t.Errorf("syncs=%d, want 1", st.Syncs)
	}
	s.ResetStats()
	if s.Stats() != (StoreStats{}) {
		t.Errorf("ResetStats did not zero counters")
	}
	if got := s.TotalBytes(); got != 8192 {
		t.Errorf("TotalBytes = %d, want 8192", got)
	}
}

func TestOSStorePathEscapes(t *testing.T) {
	s, err := NewOSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../evil", "/abs", "a/../../evil"} {
		if _, err := s.Open(bad, OpenCreate); err == nil {
			t.Errorf("Open(%q) accepted path escape", bad)
		}
	}
	// Plain names with interior dots are fine.
	if _, err := s.Open("ok.file", OpenCreate); err != nil {
		t.Errorf("Open(ok.file): %v", err)
	}
}

func TestClosedFileOperations(t *testing.T) {
	s := NewMemStore()
	f, _ := s.Open("a", OpenCreate)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadAt after close: %v", err)
	}
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteAt after close: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Truncate after close: %v", err)
	}
	if _, err := f.Size(); !errors.Is(err, ErrClosed) {
		t.Errorf("Size after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
}

func TestMemStoreSharedHandles(t *testing.T) {
	// Two handles to the same file observe each other's writes, like
	// POSIX descriptors on one inode.
	s := NewMemStore()
	a, _ := s.Open("f", OpenCreate)
	b, _ := s.Open("f", OpenWrite)
	defer a.Close()
	defer b.Close()
	if _, err := a.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := ReadFull(b, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("handle b read %q", got)
	}
}

func BenchmarkMemStoreWrite4K(b *testing.B) {
	s := NewMemStore()
	f, _ := s.Open("bench", OpenCreate)
	defer f.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%1024)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// The store's mutex is a leaf: file operations take it (for the I/O
// counters) while holding the file's own lock, so Stat and TotalBytes
// must not hold it while waiting for a file lock — a writer, a reader
// and a Stat of the same file used to deadlock (writer holds the file,
// wants the store; Stat holds the store, wants the file).
func TestMemStoreStatDuringWritesDoesNotDeadlock(t *testing.T) {
	s := NewMemStore()
	f, err := s.Open("f", OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		// Large writes hold the file lock long enough for a Stat to
		// arrive in between.
		buf := make([]byte, 1<<20)
		for _, op := range []func(){
			func() { f.WriteAt(buf, 0) },
			func() { f.ReadAt(make([]byte, 64), 0) },
			func() { s.Stat("f") },
			func() { s.TotalBytes() },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					op()
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MemStore deadlocked: Stat/TotalBytes against concurrent file I/O")
	}
}
