// Cancellation-as-crash-cut over the wire: a client that drops its
// connection mid-upload cancels the request context, which cancels the
// multiphase commit at a backend-write boundary — exactly a crash cut.
// The file must recover, and a retried upload must converge
// byte-identical. (The in-process version of this sweep lives in
// remote_api_test.go; this one goes through real TCP.)
package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/faultfs"
)

func TestWireCancelIsCrashCut(t *testing.T) {
	sched := faultfs.NewScheduler(faultfs.Policy{})
	m, _ := newTestMount(t, sched.Leaf(0, backend.NewMemStore()))
	_, hs := newTestServer(t, Config{Mount: m})

	data := make([]byte, 6*4096)
	rand.New(rand.NewSource(42)).Read(data)

	// Seed an initial version so the canceled overwrite has old state
	// to tear.
	old := bytes.Repeat([]byte{0xEE}, len(data))
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/conv.bin", tokAlice, old, nil)
	wantStatus(t, resp, body, http.StatusNoContent)

	// Sweep the cut point across the commit's backend writes. A
	// coalesced overwrite commit issues only a handful of backend
	// writes (phase-1 metadata, merged data runs, phase-3 metadata),
	// so the sweep stays within the first three.
	for _, cut := range []int{1, 2, 3} {
		sched.SetPolicy(faultfs.When(faultfs.Nth(faultfs.OpWrite, cut), faultfs.Park))

		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "PUT", hs.URL+"/v1/files/conv.bin", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("cut %d: NewRequest: %v", cut, err)
		}
		req.Header.Set("Authorization", "Bearer "+tokAlice)
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
				err = nil
			}
			done <- err
		}()

		// Wait for the commit to reach the parked write, then drop the
		// client. The server side sees its request context cancel, and
		// the parked write returns that cancellation.
		ev := sched.Await(t, 1)[0]
		cancel()
		if ev.Ctx == nil {
			t.Fatalf("cut %d: backend write %d carries no request context", cut, cut)
		}
		select {
		case <-ev.Ctx.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("cut %d: the request context of backend write %d never canceled", cut, cut)
		}
		ev.Fail(backend.CtxErr(ev.Ctx))
		if err := <-done; err == nil {
			t.Fatalf("cut %d: client saw success for a dropped upload", cut)
		}
		sched.SetPolicy(faultfs.Policy{})

		// The mount is exactly crash-cut state: recovery repairs it...
		if _, err := m.Recover("alice/conv.bin"); err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		rep, err := m.Check("alice/conv.bin")
		if err != nil {
			t.Fatalf("cut %d: Check: %v", cut, err)
		}
		if !rep.Clean() {
			t.Fatalf("cut %d: mount not clean after recovery: %+v", cut, rep)
		}

		// ...and a retried upload over the wire converges
		// byte-identical.
		resp, body := doReq(t, "PUT", hs.URL+"/v1/files/conv.bin", tokAlice, data, nil)
		wantStatus(t, resp, body, http.StatusNoContent)
		resp, body = doReq(t, "GET", hs.URL+"/v1/files/conv.bin", tokAlice, nil, nil)
		wantStatus(t, resp, body, http.StatusOK)
		if !bytes.Equal(body, data) {
			t.Fatalf("cut %d: retried upload did not converge (%d bytes)", cut, len(body))
		}
	}

	// A canceled request shows up in neither 2xx nor the file's final
	// bytes — and the server never wedged: a fresh write still works.
	resp, body = doReq(t, "PUT", hs.URL+"/v1/files/after.bin", tokAlice, []byte("still alive"), nil)
	wantStatus(t, resp, body, http.StatusNoContent)
}

// TestCancelErrorMapsTo499 pins the server-side classification: a
// mount error that is a cancellation is logged as client-gone, not as
// a 5xx server fault.
func TestCancelErrorMapsTo499(t *testing.T) {
	err := lamassu.ErrCanceled
	if got := errStatus(err); got != statusClientClosedRequest {
		t.Fatalf("errStatus(ErrCanceled) = %d, want %d", got, statusClientClosedRequest)
	}
}
