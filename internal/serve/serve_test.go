// Shared fixtures for the serve test suite: a tenant map, a mount over
// an in-memory store with encrypted names (the daemon's configuration),
// and an httptest server speaking the real wire protocol over TCP.
package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lamassu"
)

const (
	tokAlice = "alice-token-0123456789abcdef"
	tokBob   = "bob-token-0123456789abcdef"
	tokAdmin = "admin-token-0123456789abcdef"
)

func testTenants(t testing.TB) *Tenants {
	t.Helper()
	ten, err := ParseTenants([]byte(
		"# test tenant map\n" +
			"tenant: alice " + tokAlice + "\n" +
			"tenant: bob " + tokBob + "\n" +
			"admin: " + tokAdmin + "\n"))
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	return ten
}

// mustKeys generates a fresh mount key pair.
func mustKeys(tb testing.TB) lamassu.KeyPair {
	tb.Helper()
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		tb.Fatalf("GenerateKeys: %v", err)
	}
	return keys
}

// newTestMount opens a mount the way cmd/lamassud does: encrypted
// names (the isolation layer) and latency collection (the metrics
// source).
func newTestMount(t *testing.T, store lamassu.Storage) (*lamassu.Mount, lamassu.KeyPair) {
	t.Helper()
	keys := mustKeys(t)
	m, err := lamassu.New(store, keys,
		lamassu.WithEncryptedNames(),
		lamassu.WithLatencyCollection(),
		lamassu.WithParallelism(4),
		lamassu.WithCache(64))
	if err != nil {
		t.Fatalf("New mount: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m, keys
}

// newTestServer starts an httptest server (real TCP) over a Server
// built from cfg; cfg.Mount and cfg.Tenants get defaults when unset.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Mount == nil {
		cfg.Mount, _ = newTestMount(t, lamassu.NewMemStorage())
	}
	if cfg.Tenants == nil {
		cfg.Tenants = testTenants(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

// doReq performs one request and returns the response with its body
// read and closed.
func doReq(t *testing.T, method, url, token string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, url, err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body %s %s: %v", method, url, err)
	}
	return resp, b
}

// wantStatus fails the test unless the response carries the expected
// status code.
func wantStatus(t *testing.T, resp *http.Response, body []byte, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d (body %q)",
			resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want, body)
	}
}
