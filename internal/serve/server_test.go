// Wire-level coverage of the data plane: whole-file round trips,
// ranged reads, offset writes, truncate, stat, remove, name
// validation, and the admin plane over a real TCP listener.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lamassu"
)

func TestRoundTripWire(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	data := make([]byte, 3*4096+137) // spans blocks, ragged tail
	rand.New(rand.NewSource(9)).Read(data)

	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/dir/doc.bin", tokAlice, data, nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	resp, body = doReq(t, "GET", hs.URL+"/v1/files/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if !bytes.Equal(body, data) {
		t.Fatalf("GET returned %d bytes, want %d identical", len(body), len(data))
	}
	if got := resp.Header.Get("X-Lamassu-Size"); got != fmt.Sprint(len(data)) {
		t.Fatalf("X-Lamassu-Size = %q, want %d", got, len(data))
	}

	// HEAD carries the size without a body.
	resp, body = doReq(t, "HEAD", hs.URL+"/v1/files/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if resp.ContentLength != int64(len(data)) {
		t.Fatalf("HEAD Content-Length = %d, want %d", resp.ContentLength, len(data))
	}
	if len(body) != 0 {
		t.Fatalf("HEAD returned %d body bytes", len(body))
	}

	// Stat as JSON.
	resp, body = doReq(t, "GET", hs.URL+"/v1/stat/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	var st struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stat JSON: %v (%q)", err, body)
	}
	if st.Name != "dir/doc.bin" || st.Size != int64(len(data)) {
		t.Fatalf("stat = %+v, want {dir/doc.bin %d}", st, len(data))
	}

	// Remove, then both read and stat 404.
	resp, body = doReq(t, "DELETE", hs.URL+"/v1/files/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusNotFound)
	resp, body = doReq(t, "GET", hs.URL+"/v1/stat/dir/doc.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusNotFound)
}

func TestRangedReadWire(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	data := make([]byte, 2*4096+500)
	rand.New(rand.NewSource(10)).Read(data)
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/r.bin", tokAlice, data, nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	cases := []struct {
		rng        string
		off, end   int64 // inclusive byte range expected back
		wantStatus int
	}{
		{"bytes=0-99", 0, 99, http.StatusPartialContent},
		{"bytes=4000-4200", 4000, 4200, http.StatusPartialContent}, // crosses a block boundary
		{"bytes=8000-", 8000, int64(len(data)) - 1, http.StatusPartialContent},
		{"bytes=-100", int64(len(data)) - 100, int64(len(data)) - 1, http.StatusPartialContent},
		{"bytes=0-999999", 0, int64(len(data)) - 1, http.StatusPartialContent}, // end clamps
		{"bytes=999999-", 0, 0, http.StatusRequestedRangeNotSatisfiable},
		{"bytes=5-2", 0, 0, http.StatusRequestedRangeNotSatisfiable},
		{"bytes=0-10,20-30", 0, 0, http.StatusRequestedRangeNotSatisfiable}, // multi-range unsupported
		{"bytes=+2-3", 0, 0, http.StatusRequestedRangeNotSatisfiable},       // digits only
		{"bytes=-+3", 0, 0, http.StatusRequestedRangeNotSatisfiable},
	}
	for _, tc := range cases {
		resp, body := doReq(t, "GET", hs.URL+"/v1/files/r.bin", tokAlice, nil, map[string]string{"Range": tc.rng})
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("Range %q: status %d, want %d (%q)", tc.rng, resp.StatusCode, tc.wantStatus, body)
		}
		if tc.wantStatus != http.StatusPartialContent {
			continue
		}
		want := data[tc.off : tc.end+1]
		if !bytes.Equal(body, want) {
			t.Fatalf("Range %q: got %d bytes, want bytes [%d,%d]", tc.rng, len(body), tc.off, tc.end)
		}
		cr := fmt.Sprintf("bytes %d-%d/%d", tc.off, tc.end, len(data))
		if got := resp.Header.Get("Content-Range"); got != cr {
			t.Fatalf("Range %q: Content-Range %q, want %q", tc.rng, got, cr)
		}
	}
}

// TestRangedReadEmptyFile: no range of an empty file is satisfiable,
// a suffix range included.
func TestRangedReadEmptyFile(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/empty.bin", tokAlice, []byte{}, nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	for _, rng := range []string{"bytes=-5", "bytes=0-", "bytes=0-0"} {
		resp, body := doReq(t, "GET", hs.URL+"/v1/files/empty.bin", tokAlice, nil, map[string]string{"Range": rng})
		wantStatus(t, resp, body, http.StatusRequestedRangeNotSatisfiable)
		if got := resp.Header.Get("Content-Range"); got != "bytes */0" {
			t.Fatalf("Range %q: Content-Range %q, want bytes */0", rng, got)
		}
	}
}

// FuzzParseRange: any range parseRange accepts is a non-empty span
// inside the file.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct {
		h    string
		size int64
	}{
		{"bytes=0-99", 1000}, {"bytes=-5", 0}, {"bytes=-5", 3}, {"bytes=+2-3", 10},
		{"bytes=-+3", 10}, {"bytes=5-", 5}, {"bytes=0-0", 1}, {"bytes=9223372036854775807-", 10},
	} {
		f.Add(seed.h, seed.size)
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			return
		}
		off, length, err := parseRange(h, size)
		if err != nil {
			return
		}
		if off < 0 || length < 1 || off > size-length {
			t.Fatalf("parseRange(%q, %d) = off %d, len %d: outside the file", h, size, off, length)
		}
	})
}

func TestWriteRangeAndTruncateWire(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := bytes.Repeat([]byte{0xAA}, 8192)
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/w.bin", tokAlice, base, nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	// Overwrite a range straddling the first block boundary.
	patch := bytes.Repeat([]byte{0x55}, 1000)
	resp, body = doReq(t, "PUT", hs.URL+"/v1/files/w.bin?offset=4000", tokAlice, patch, nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	want := append([]byte(nil), base...)
	copy(want[4000:], patch)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/w.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if !bytes.Equal(body, want) {
		t.Fatal("offset write did not splice the range")
	}

	// Offset write past EOF grows with a zero hole.
	resp, body = doReq(t, "PUT", hs.URL+"/v1/files/hole.bin?offset=10000", tokAlice, []byte("tail"), nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/hole.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if len(body) != 10004 || !bytes.Equal(body[10000:], []byte("tail")) || !bytes.Equal(body[:10000], make([]byte, 10000)) {
		t.Fatalf("hole write: got %d bytes", len(body))
	}

	// Truncate shrinks; stat agrees.
	resp, body = doReq(t, "POST", hs.URL+"/v1/files/w.bin?truncate=100", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/w.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if !bytes.Equal(body, want[:100]) {
		t.Fatalf("truncate: got %d bytes, want first 100 preserved", len(body))
	}

	// Truncate growing zero-fills.
	resp, body = doReq(t, "POST", hs.URL+"/v1/files/w.bin?truncate=300", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/w.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if len(body) != 300 || !bytes.Equal(body[100:], make([]byte, 200)) {
		t.Fatalf("grow truncate: got %d bytes", len(body))
	}
}

func TestBadRequestsWire(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
	}{
		{"GET", "/v1/stat/" + strings.Repeat("x", 5000)},
		{"PUT", "/v1/files/ok.bin?offset=-3"},
		{"POST", "/v1/files/ok.bin?truncate=nope"},
		{"POST", "/v1/files/ok.bin"}, // POST without ?truncate
		{"GET", "/v1/list?dir=../up"},
		{"GET", "/v1/list?limit=0"},
	} {
		resp, body := doReq(t, tc.method, hs.URL+tc.path, tokAlice, []byte("x"), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%q)", tc.method, tc.path, resp.StatusCode, body)
		}
	}

	// Dirty paths never reach the handler with a dirty name: the mux
	// cleans and redirects them first, and storedName is the belt to
	// that suspender.
	for _, bad := range []string{"", ".", "..", "../up", "a//b", "/abs", "a/", "a/./b"} {
		if _, err := storedName("alice", bad); err == nil {
			t.Errorf("storedName accepted %q", bad)
		}
	}
	for _, ok := range []string{"a", "a/b", "dir/file.txt"} {
		name, err := storedName("alice", ok)
		if err != nil || name != "alice/"+ok {
			t.Errorf("storedName(%q) = %q, %v", ok, name, err)
		}
	}
}

// TestUploadCapWire: the upload cap refuses a body declared too large
// before reading any of it, cuts a chunked body off once it passes the
// cap, and a body that ends short of its declared length (the client
// dropped) writes nothing.
func TestUploadCapWire(t *testing.T) {
	m, _ := newTestMount(t, lamassu.NewMemStorage())
	s, err := New(Config{Mount: m, Tenants: testTenants(t), MaxUploadBytes: 1024})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	// The status each request was answered with, also when no client
	// is left to read it; room for every request the test makes, so a
	// handler never blocks on it.
	statuses := make(chan int, 8)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		s.ServeHTTP(sw, r)
		statuses <- sw.code
	}))
	t.Cleanup(hs.Close)
	answered := func() int {
		t.Helper()
		select {
		case code := <-statuses:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("no request was answered")
			return 0
		}
	}

	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/big.bin", tokAlice, make([]byte, 4096), nil)
	wantStatus(t, resp, body, http.StatusRequestEntityTooLarge)
	answered()
	old := bytes.Repeat([]byte{0x5A}, 512)
	resp, body = doReq(t, "PUT", hs.URL+"/v1/files/small.bin", tokAlice, old, nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	answered()

	// Declared over the cap: 413 with not one body byte sent.
	conn := rawPut(t, hs.Listener.Addr().String(), "/v1/files/big.bin", 1<<30, nil)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.Contains(status, " 413 ") {
		t.Fatalf("PUT declaring 1 GiB, no body sent: got %q, %v; want a 413 without waiting for the body", status, err)
	}
	answered()

	// Chunked and over the cap: cut off with 413. The MultiReader hides
	// the length from NewRequest, so the body goes out chunked.
	req, err := http.NewRequest("PUT", hs.URL+"/v1/files/big.bin", io.MultiReader(bytes.NewReader(make([]byte, 4096))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tokAlice)
	// The server may hang up before the client has sent it all, so the
	// status is read on the server's side.
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	if code := answered(); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked PUT over the cap: status %d, want 413", code)
	}

	// Declared 1000 bytes, sent 100, then the client is gone: 499 and
	// the old bytes are intact.
	rawPut(t, hs.Listener.Addr().String(), "/v1/files/small.bin", 1000, make([]byte, 100)).Close()
	if code := answered(); code != statusClientClosedRequest {
		t.Fatalf("PUT cut short by the client: status %d, want %d", code, statusClientClosedRequest)
	}
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/small.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	answered()
	if !bytes.Equal(body, old) {
		t.Fatalf("PUT cut short by the client changed the file: %d bytes back, want the old %d", len(body), len(old))
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// rawPut opens a connection to addr and sends, as alice, a PUT of path
// declaring a body of declared bytes followed by body, which may be
// shorter. It returns the open connection.
func rawPut(t *testing.T, addr, path string, declared int, body []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	head := fmt.Sprintf("PUT %s HTTP/1.1\r\nHost: %s\r\nAuthorization: Bearer %s\r\nContent-Length: %d\r\n\r\n",
		path, addr, tokAlice, declared)
	if _, err := conn.Write(append([]byte(head), body...)); err != nil {
		conn.Close()
		t.Fatalf("write request: %v", err)
	}
	return conn
}

func TestAdminPlaneWire(t *testing.T) {
	stores := make([]lamassu.Storage, 3)
	for i := range stores {
		stores[i] = lamassu.NewMemStorage()
	}
	sharded, err := lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{Replicas: 2})
	if err != nil {
		t.Fatalf("NewShardedStorage: %v", err)
	}
	m, _ := newTestMount(t, sharded)
	_, hs := newTestServer(t, Config{Mount: m})

	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/seed.bin", tokAlice, make([]byte, 16384), nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	resp, body = doReq(t, "GET", hs.URL+"/admin/shards", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	var shards struct {
		Stats  []lamassu.ShardStat   `json:"stats"`
		Health []lamassu.ShardHealth `json:"health"`
	}
	if err := json.Unmarshal(body, &shards); err != nil {
		t.Fatalf("shards JSON: %v", err)
	}
	if len(shards.Stats) != 3 || len(shards.Health) != 3 {
		t.Fatalf("shards: %d stats, %d health entries, want 3+3", len(shards.Stats), len(shards.Health))
	}
	var writes int64
	for _, s := range shards.Stats {
		writes += s.Writes
	}
	if writes == 0 {
		t.Fatal("admin shards report zero writes after a PUT")
	}

	resp, body = doReq(t, "GET", hs.URL+"/admin/rebalance", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	var rs lamassu.RebalanceStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatalf("rebalance JSON: %v", err)
	}
	if rs.Active {
		t.Fatal("no rebalance was started, status says Active")
	}

	resp, body = doReq(t, "GET", hs.URL+"/admin/stats", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	var as struct {
		Engine  lamassu.EngineStats `json:"engine"`
		Limiter LimiterStats        `json:"limiter"`
	}
	if err := json.Unmarshal(body, &as); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if as.Engine.BackendIOs == 0 || as.Limiter.Admitted == 0 {
		t.Fatalf("admin stats look dead: %+v", as)
	}

	// Scrub over a replicated mount succeeds and reports a JSON doc.
	resp, body = doReq(t, "POST", hs.URL+"/admin/scrub", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)

	// Scrub on an unsharded mount is a 409, not a 500.
	_, hs2 := newTestServer(t, Config{})
	resp, body = doReq(t, "POST", hs2.URL+"/admin/scrub", tokAdmin, nil, nil)
	wantStatus(t, resp, body, http.StatusConflict)
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := doReq(t, "GET", hs.URL+"/healthz", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	if !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz body %q", body)
	}
}
