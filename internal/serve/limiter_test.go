// Limiter unit coverage plus the wire-level backpressure contract:
// overload answers 503 + Retry-After, and the in-flight gauge never
// exceeds the bound.
package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamassu"
	"lamassu/internal/backend"
)

func TestLimiterBound(t *testing.T) {
	l := NewLimiter(2, nil)
	r1, ok := l.Acquire()
	if !ok {
		t.Fatal("first acquire rejected")
	}
	r2, ok := l.Acquire()
	if !ok {
		t.Fatal("second acquire rejected")
	}
	if _, ok := l.Acquire(); ok {
		t.Fatal("third acquire admitted past the bound")
	}
	r1()
	r3, ok := l.Acquire()
	if !ok {
		t.Fatal("release did not free a slot")
	}
	r2()
	r3()
	st := l.Stats()
	if st.Admitted != 3 || st.Rejected != 1 || st.InFlight != 0 || st.PeakInFlight != 2 {
		t.Fatalf("stats %+v, want admitted 3 rejected 1 inflight 0 peak 2", st)
	}
}

func TestLimiterQueueDepthCounts(t *testing.T) {
	var depth atomic.Int64
	l := NewLimiter(4, depth.Load)
	depth.Store(3)
	r1, ok := l.Acquire()
	if !ok {
		t.Fatal("in=1 depth=3 should fit a bound of 4")
	}
	if _, ok := l.Acquire(); ok {
		t.Fatal("in=2 depth=3 exceeds the bound, should reject")
	}
	depth.Store(0)
	r2, ok := l.Acquire()
	if !ok {
		t.Fatal("drained engine queue should admit again")
	}
	r1()
	r2()
}

func TestLimiterDefault(t *testing.T) {
	l := NewLimiter(0, nil)
	if l.Stats().Max != DefaultMaxInFlight {
		t.Fatalf("max = %d, want DefaultMaxInFlight", l.Stats().Max)
	}
}

func TestLimiterPeakNeverExceedsMax(t *testing.T) {
	const bound = 8
	l := NewLimiter(bound, nil)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if release, ok := l.Acquire(); ok {
					release()
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.PeakInFlight > bound {
		t.Fatalf("peak %d exceeded bound %d", st.PeakInFlight, bound)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight %d after all releases", st.InFlight)
	}
}

// TestBackpressure503Wire holds the admission gate full with slow
// requests and pins the overload answer: fast 503 with Retry-After,
// admission metrics consistent, and recovery once the load drains.
func TestBackpressure503Wire(t *testing.T) {
	m, _ := newTestMount(t, lamassu.NewMemStorage())
	// A depth probe the test controls: "engine buried" vs "idle".
	var depth atomic.Int64
	s, err := New(Config{Mount: m, Tenants: testTenants(t), MaxInFlight: 2, QueueDepth: depth.Load})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)

	// Report the engine queue as buried: data-plane admission stops.
	depth.Store(2)
	resp, body := doReq(t, "GET", hs.URL+"/v1/list", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	st := s.Limiter().Stats()
	if st.Rejected == 0 {
		t.Fatalf("limiter stats %+v, want a rejection", st)
	}

	// Drain: requests flow again.
	depth.Store(0)
	resp, body = doReq(t, "GET", hs.URL+"/v1/list", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)

	// Sanity: unauthenticated and admin requests bypass the limiter
	// even while buried (operators must see an overloaded server).
	depth.Store(1000)
	resp, body = doReq(t, "GET", hs.URL+"/healthz", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	resp, body = doReq(t, "GET", hs.URL+"/admin/stats", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	resp, body = doReq(t, "GET", hs.URL+"/metrics", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
}

// slowReadStore delays every backend read, so a read's extents hold
// their window slots long enough to be seen.
type slowReadStore struct{ backend.Store }

func (s slowReadStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return slowReadFile{f}, nil
}

type slowReadFile struct{ backend.File }

func (f slowReadFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(500 * time.Microsecond)
	return f.File.ReadAt(p, off)
}

// TestEngineDepthOneLargeReadAdmits: on a sharded, compressed mount a
// single read of well-compressing data is hundreds of short extents
// that fill the default window. The admission depth is that window's
// occupancy and never more — each of those I/Os is not counted again
// in its shard's gauge — so a concurrent request is still admitted
// under the default bound.
func TestEngineDepthOneLargeReadAdmits(t *testing.T) {
	store, err := lamassu.NewShardedStorage([]lamassu.Storage{
		slowReadStore{backend.NewMemStore()}, slowReadStore{backend.NewMemStore()}},
		&lamassu.ShardOptions{StripeBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lamassu.New(store, keys, lamassu.WithParallelism(4), lamassu.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	data := bytes.Repeat([]byte("compressible "), (1<<20)/13+1)[:1<<20]
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	l := NewLimiter(0, func() int64 { return engineDepth(m) })
	done := make(chan error, 1)
	go func() {
		got, err := m.ReadFile("f")
		if err == nil && !bytes.Equal(got, data) {
			err = errors.New("round trip mismatch")
		}
		done <- err
	}()
	var maxDepth, rejected int64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		maxDepth = max(maxDepth, engineDepth(m))
		if release, ok := l.Acquire(); ok {
			release()
		} else {
			rejected++
		}
	}
	st := m.EngineStats()
	if st.IOPeakInFlight < 2 {
		t.Fatalf("the read kept %d I/Os in flight, want a fan-out", st.IOPeakInFlight)
	}
	if maxDepth > int64(st.IOWindow) || rejected != 0 {
		t.Fatalf("admission depth peaked at %d on a window of %d; %d concurrent requests shed",
			maxDepth, st.IOWindow, rejected)
	}
}
