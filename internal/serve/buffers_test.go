// The data plane's pooled transfer buffers: concurrent requests never
// see each other's bytes, and a request allocates far less than the
// bytes it moves.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"lamassu"
)

// TestWireBuffersNotShared: four clients PUT, GET and range-GET their
// own objects at once (1 MiB and odd sizes, whole-file and ?offset=
// writes), so pooled buffers change hands between requests all the
// time. Every byte must come back as written.
func TestWireBuffersNotShared(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := bufferClient(hs.URL, c, rounds); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// bufferClient is one client of TestWireBuffersNotShared.
func bufferClient(base string, c, rounds int) error {
	rng := rand.New(rand.NewSource(int64(100 + c)))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for r := range rounds {
		want := map[string][]byte{
			"mib":   fill(1 << 20),
			"odd":   fill(1<<20 - 4097*(c+1) - 13),
			"small": fill(4096*c + 777),
		}
		for name, data := range want {
			if err := put(base, fmt.Sprintf("c%d/%s", c, name), data); err != nil {
				return err
			}
		}
		// Splice an odd-sized patch into a fresh base at an odd offset.
		spliced, patch := fill(300_001+r), fill(70_001+c)
		off := 12_345 + 1000*c
		if err := put(base, fmt.Sprintf("c%d/spliced", c), spliced); err != nil {
			return err
		}
		if err := put(base, fmt.Sprintf("c%d/spliced?offset=%d", c, off), patch); err != nil {
			return err
		}
		copy(spliced[off:], patch)
		want["spliced"] = spliced

		for name, data := range want {
			got, err := get(base, fmt.Sprintf("c%d/%s", c, name), "")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("client %d round %d: GET %s returned %d bytes not matching the %d written", c, r, name, len(got), len(data))
			}
			lo := rng.Intn(len(data))
			hi := lo + rng.Intn(min(len(data)-lo, 200_000))
			got, err = get(base, fmt.Sprintf("c%d/%s", c, name), fmt.Sprintf("bytes=%d-%d", lo, hi))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data[lo:hi+1]) {
				return fmt.Errorf("client %d round %d: GET %s bytes=%d-%d does not match", c, r, name, lo, hi)
			}
		}
	}
	return nil
}

// put writes data to the named object as alice and wants a 204.
func put(base, name string, data []byte) error {
	_, err := call("PUT", base+"/v1/files/"+name, data, "", http.StatusNoContent)
	return err
}

// get reads the named object (a range of it when rng is not empty) as
// alice.
func get(base, name, rng string) ([]byte, error) {
	want := http.StatusOK
	if rng != "" {
		want = http.StatusPartialContent
	}
	return call("GET", base+"/v1/files/"+name, nil, rng, want)
}

// call is doReq for goroutines: it reports failures as errors.
func call(method, url string, body []byte, rng string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+tokAlice)
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d (%q)", method, url, resp.StatusCode, want, got)
	}
	return got, nil
}

// discardWriter is an http.ResponseWriter that keeps the status and
// drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// TestWireAllocsPerByte bounds what one request allocates against the
// bytes it moves. It drives Server.ServeHTTP directly, so no network
// stack allocates, on a cache-off mount, so no engine cache insert
// counts. The PUT bound was 5.4 MB per 1 MiB body when the handler
// read bodies with io.ReadAll, and the range GET's was 1 MiB when the
// handler allocated a fresh 1 MiB chunk per GET.
func TestWireAllocsPerByte(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("the race detector and coverage instrumentation change what allocates")
	}
	m, err := lamassu.New(lamassu.NewMemStorage(), mustKeys(t), lamassu.WithEncryptedNames(), lamassu.WithCache(0))
	if err != nil {
		t.Fatalf("New mount: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	s, err := New(Config{Mount: m, Tenants: testTenants(t)})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	body := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(body)
	const rangeLen = 64 << 10

	serve := func(method string, hdr string, wantCode int) func() {
		return func() {
			var rd io.Reader
			if method == "PUT" {
				rd = bytes.NewReader(body)
			}
			req := httptest.NewRequest(method, "/v1/files/a.bin", rd)
			req.Header.Set("Authorization", "Bearer "+tokAlice)
			if hdr != "" {
				req.Header.Set("Range", hdr)
			}
			w := &discardWriter{h: make(http.Header)}
			s.ServeHTTP(w, req)
			if w.code != wantCode {
				t.Fatalf("%s %s: status %d, want %d", method, hdr, w.code, wantCode)
			}
		}
	}
	put := serve("PUT", "", http.StatusNoContent)
	rangeGet := serve("GET", fmt.Sprintf("bytes=%d-%d", 3*rangeLen, 4*rangeLen-1), http.StatusPartialContent)

	for _, tc := range []struct {
		name  string
		run   func()
		bound uint64
	}{
		{"PUT 1 MiB", put, uint64(len(body)) / 2},
		{"range GET 64 KiB", rangeGet, rangeLen},
	} {
		got := steadyAlloc(tc.run)
		t.Logf("%s: %d bytes allocated (bound %d)", tc.name, got, tc.bound)
		if got >= tc.bound {
			t.Errorf("%s allocated %d bytes, want under %d", tc.name, got, tc.bound)
		}
	}
}

// steadyAlloc returns the fewest bytes one call of run allocated over
// twenty calls after a warm-up. The minimum drops the calls that ran
// across a garbage collection, which empties the buffer pool.
func steadyAlloc(run func()) uint64 {
	run()
	run()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}
