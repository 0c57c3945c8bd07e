package serve

import (
	"bytes"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"lamassu"
	"lamassu/internal/backend"
)

var errDiskFailed = errors.New("injected: disk failed")

// failDataStore fails, once armed, every data write past the first
// segment with a fatal (not retryable, not canceled) error. Metadata
// blocks start each segment, so a write at a multiple of seg is one.
type failDataStore struct {
	backend.Store
	seg   int64 // one segment's physical bytes
	armed atomic.Bool
}

func (s *failDataStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &failDataFile{File: f, s: s}, nil
}

type failDataFile struct {
	backend.File
	s *failDataStore
}

func (f *failDataFile) WriteAt(p []byte, off int64) (int, error) {
	if f.s.armed.Load() && off >= f.s.seg && off%f.s.seg != 0 {
		return 0, errDiskFailed
	}
	return f.File.WriteAt(p, off)
}

// TestWriteBehindFailureNeverAcked: on the daemon's default mount (no
// I/O window configured, so 32 slots) the commits a PUT's write
// triggers run behind it. When one of them fails, the PUT must still
// answer 5xx, never 204 — whole-file (WriteFileCtx) and ranged
// (?offset=, writeRange) alike — because the barrier the handler ends
// on reports it.
func TestWriteBehindFailureNeverAcked(t *testing.T) {
	seg, err := lamassu.SegmentStripeBytes(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := &failDataStore{Store: backend.NewMemStore(), seg: seg}
	m, _ := newTestMount(t, store)
	if w := m.EngineStats().IOWindow; w <= 1 {
		t.Fatalf("default mount has an I/O window of %d; want more than one slot, which hands commits off", w)
	}
	_, hs := newTestServer(t, Config{Mount: m})

	// Two whole segments (a segment holds seg less its metadata block of
	// plaintext): the WriteAt triggers both commits and hands them off,
	// and the final Sync has nothing of its own to commit, so only a
	// handed-off commit can fail.
	data := bytes.Repeat([]byte{0x5A}, int(2*(seg-4096)))
	for _, url := range []string{
		hs.URL + "/v1/files/whole.bin",
		hs.URL + "/v1/files/ranged.bin?offset=0",
	} {
		store.armed.Store(true)
		resp, body := doReq(t, "PUT", url, tokAlice, data, nil)
		store.armed.Store(false)
		if resp.StatusCode < 500 {
			t.Fatalf("PUT %s with failing segment commits: status %d (body %q), want 5xx", url, resp.StatusCode, body)
		}
		// The failure was the backend's, not the mount's: the same PUT
		// then succeeds.
		resp, body = doReq(t, "PUT", url, tokAlice, data, nil)
		wantStatus(t, resp, body, http.StatusNoContent)
	}
}
