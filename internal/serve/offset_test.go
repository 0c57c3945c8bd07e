// End-to-end coverage of PUT ?offset=: whatever the query value, the
// server answers 204 or 400, and an accepted offset splices the body
// there. Offsets reach far past any real file, so the mount runs on a
// sparse in-memory store that keeps only the pages ever written.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"testing"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/layout"
)

// sparsePage is the granule a sparseStore file allocates.
const sparsePage = 4096

// sparseStore is a backend.Store whose files hold only the pages that
// were written; every other byte below the size reads as zero. A
// write at offset 2^50 costs one page, not 2^50 bytes.
type sparseStore struct {
	mu    sync.Mutex
	files map[string]*sparseData
}

type sparseData struct {
	mu    sync.RWMutex
	size  int64
	pages map[int64]*[sparsePage]byte
}

func newSparseStore() *sparseStore { return &sparseStore{files: make(map[string]*sparseData)} }

func (s *sparseStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[name]
	if !ok {
		if flag != backend.OpenCreate {
			return nil, fmt.Errorf("open %q: %w", name, backend.ErrNotExist)
		}
		d = &sparseData{pages: make(map[int64]*[sparsePage]byte)}
		s.files[name] = d
	}
	return &sparseFile{d: d, readOnly: flag == backend.OpenRead}, nil
}

func (s *sparseStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("remove %q: %w", name, backend.ErrNotExist)
	}
	delete(s.files, name)
	return nil
}

func (s *sparseStore) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, backend.ErrNotExist)
	}
	delete(s.files, oldName)
	s.files[newName] = d
	return nil
}

func (s *sparseStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (s *sparseStore) Stat(name string) (int64, error) {
	s.mu.Lock()
	d, ok := s.files[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, backend.ErrNotExist)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.size, nil
}

type sparseFile struct {
	d        *sparseData
	readOnly bool
}

func (f *sparseFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("sparse: negative offset %d", off)
	}
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	if off >= f.d.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), f.d.size-off))
	for i := 0; i < n; {
		pg, in := (off+int64(i))/sparsePage, int((off+int64(i))%sparsePage)
		c := min(n-i, sparsePage-in)
		if page := f.d.pages[pg]; page != nil {
			copy(p[i:i+c], page[in:])
		} else {
			clear(p[i : i+c])
		}
		i += c
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *sparseFile) WriteAt(p []byte, off int64) (int, error) {
	if f.readOnly {
		return 0, backend.ErrReadOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("sparse: negative offset %d", off)
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	for i := 0; i < len(p); {
		pg, in := (off+int64(i))/sparsePage, int((off+int64(i))%sparsePage)
		page := f.d.pages[pg]
		if page == nil {
			page = new([sparsePage]byte)
			f.d.pages[pg] = page
		}
		i += copy(page[in:], p[i:])
	}
	f.d.size = max(f.d.size, off+int64(len(p)))
	return len(p), nil
}

func (f *sparseFile) Truncate(size int64) error {
	if f.readOnly {
		return backend.ErrReadOnly
	}
	if size < 0 {
		return fmt.Errorf("sparse: negative size %d", size)
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if size < f.d.size {
		// Drop the pages past the end and zero the tail of the last,
		// so a later grow reads zeros there.
		for pg, page := range f.d.pages {
			switch start := pg * sparsePage; {
			case start >= size:
				delete(f.d.pages, pg)
			case start+sparsePage > size:
				clear(page[size-start:])
			}
		}
	}
	f.d.size = size
	return nil
}

func (f *sparseFile) Size() (int64, error) {
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	return f.d.size, nil
}

func (f *sparseFile) Sync() error  { return nil }
func (f *sparseFile) Close() error { return nil }

// FuzzWriteOffset drives PUT ?offset=q through the whole stack. Any q
// is answered 204 or 400, never a 5xx; 400 exactly when q is not a
// non-negative decimal int64, or when the write would end past the
// largest file the mount can address; and an accepted offset splices
// the body at that offset. An empty q is the whole-file form.
func FuzzWriteOffset(f *testing.F) {
	maxFileSize := layout.Default().MaxLogicalSize()
	for _, seed := range []string{
		"0", "4000", "8192", "10000", "", "-3", "+5", "0x10", "1e3", " 7", "7 ",
		"00012", "99999999999", "1125899906842624", "9223372036854775807",
		"9223372036854775808", "-0", "nope", "%", "&offset=3",
	} {
		f.Add(seed, []byte("patch"))
	}
	f.Add("4090", bytes.Repeat([]byte{0x5A}, 9000))
	f.Add("3", []byte{})
	// The last byte the default geometry can address, and one past it.
	f.Add(strconv.FormatInt(maxFileSize-5, 10), []byte("patch"))
	f.Add(strconv.FormatInt(maxFileSize-4, 10), []byte("patch"))

	m, err := lamassu.New(newSparseStore(), mustKeys(f), lamassu.WithEncryptedNames(), lamassu.WithCache(0))
	if err != nil {
		f.Fatalf("New mount: %v", err)
	}
	f.Cleanup(func() { _ = m.Close() })
	s, err := New(Config{Mount: m, Tenants: testTenants(f)})
	if err != nil {
		f.Fatalf("serve.New: %v", err)
	}
	base := bytes.Repeat([]byte{0xAA}, 2*4096+100)

	f.Fuzz(func(t *testing.T, q string, body []byte) {
		if code, _ := serveDirect(s, "PUT", "/v1/files/f.bin", base, nil); code != http.StatusNoContent {
			t.Fatalf("seed PUT: status %d", code)
		}
		code, msg := serveDirect(s, "PUT", "/v1/files/f.bin?offset="+url.QueryEscape(q), body, nil)
		if code >= 500 {
			t.Fatalf("offset %q: status %d (%s)", q, code, msg)
		}
		if q == "" {
			wantFile(t, s, "f.bin", body, 0)
			return
		}
		off, perr := strconv.ParseInt(q, 10, 64)
		if perr != nil || off < 0 {
			if code != http.StatusBadRequest {
				t.Fatalf("offset %q: status %d, want 400 (%s)", q, code, msg)
			}
			wantFile(t, s, "f.bin", base, 0)
			return
		}
		if code == http.StatusBadRequest && off > maxFileSize-int64(len(body)) {
			wantFile(t, s, "f.bin", base, 0)
			return
		}
		if code != http.StatusNoContent {
			t.Fatalf("offset %q: status %d, want 204 (%s)", q, code, msg)
		}
		if len(body) == 0 {
			wantFile(t, s, "f.bin", base, 0)
			return
		}
		// The base bytes below the splice, the hole between them, the
		// body itself and the base bytes past it.
		keep := min(off, int64(len(base)))
		wantFile(t, s, "f.bin", base[:keep], max(int64(len(base)), off+int64(len(body))))
		if off > int64(len(base)) {
			hole := min(off-int64(len(base)), 4096)
			wantRange(t, s, "f.bin", off-hole, make([]byte, hole))
		}
		wantRange(t, s, "f.bin", off, body)
		if end := off + int64(len(body)); end < int64(len(base)) {
			wantRange(t, s, "f.bin", end, base[end:])
		}
	})
}

// serveDirect runs one request as alice through s.ServeHTTP, without a
// network, and returns the status and the response body.
func serveDirect(s *Server, method, target string, body []byte, hdr map[string]string) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+tokAlice)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// wantFile checks that name starts with prefix and has the given size
// (the prefix's length when size is 0).
func wantFile(t *testing.T, s *Server, name string, prefix []byte, size int64) {
	t.Helper()
	if size == 0 {
		size = int64(len(prefix))
	}
	code, body := serveDirect(s, "GET", "/v1/stat/"+name, nil, nil)
	var st struct{ Size int64 }
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.Size != size {
		t.Fatalf("stat %s: status %d, %s; want size %d", name, code, body, size)
	}
	wantRange(t, s, name, 0, prefix)
}

// wantRange checks that name holds want at off.
func wantRange(t *testing.T, s *Server, name string, off int64, want []byte) {
	t.Helper()
	if len(want) == 0 {
		return
	}
	rng := fmt.Sprintf("bytes=%d-%d", off, off+int64(len(want))-1)
	code, got := serveDirect(s, "GET", "/v1/files/"+name, nil, map[string]string{"Range": rng})
	if code != http.StatusPartialContent || !bytes.Equal(got, want) {
		t.Fatalf("GET %s %s: status %d, %d bytes; want 206 with %d matching bytes", name, rng, code, len(got), len(want))
	}
}
