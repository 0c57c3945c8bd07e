package lamassu

// Public-surface acceptance tests for the remote object backend: the
// §2.4 crash-consistency argument must survive the trip through the
// object protocol (multipart staging, atomic Complete) with the I/O
// window pipelining dispatched writes, and hedged reads must be
// invisible to server state — a canceled loser leaves nothing behind.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/simclock"
)

// newObjStore builds a zero-latency in-memory object store plus its
// server handle for state inspection.
func newObjStore() (*objstore.Memserver, backend.Store) {
	srv := objstore.NewMemserver(objstore.ServerParams{}, simclock.NewVirtual())
	return srv, objstore.New(srv)
}

// TestRemoteCancelMidCommit is TestCancelMidCommitPublicAPI transposed
// onto the object backend with pipelining on: a cancel firing a few
// backend writes into a large commit is a crash cut — the abandoned
// multipart session must never become visible, recovery must come back
// clean, every recovered byte is new-data-or-hole, and a retry with a
// live context converges. Swept sharded and unsharded, because the
// window dispatcher replaces the pool dispatch on exactly these paths;
// internal/core cuts at every backend write of the same configuration
// (TestCancelMidCommitSweep/*/coalesced-windowed-objstore).
func TestRemoteCancelMidCommit(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"coalesced", []Option{WithIOWindow(8)}},
		{"sharded-coalesced", []Option{WithIOWindow(8), WithShards(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, inner := newObjStore()
			store := &cancelAfterStore{inner: inner}
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

			// The cut may strand multipart sessions — crash state on the
			// server, fine — but nothing staged may have reached the
			// committed namespace, which recovery must then clean up.
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
			for i, b := range got {
				if b != 0xCD && b != 0x00 {
					t.Fatalf("byte %d after recovery holds %#x (neither new data nor hole)", i, b)
				}
			}

			// Retry with a live context converges to the new content and
			// leaves no stray upload sessions behind.
			if err := m2.WriteFileCtx(context.Background(), "big", newData); err != nil {
				t.Fatalf("retry write: %v", err)
			}
			got, err = m2.ReadFile("big")
			if err != nil || !bytes.Equal(got, newData) {
				t.Fatalf("content after retry: %v", err)
			}
			if open := srv.Stats().OpenUploads; open != 0 {
				t.Fatalf("%d multipart sessions still open after a committed write", open)
			}
		})
	}
}

// TestHedgedLoserNoState: hedged reads must be pure — after a read
// workload that demonstrably hedged (Delay=1ns forces a duplicate of
// essentially every read), the server shows zero mutations from the
// read phase and no stray upload sessions, and the readback is exact.
func TestHedgedLoserNoState(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Real clock, zero configured latency: requests complete in
	// microseconds, and the 1ns hedge delay fires before almost all of
	// them, racing a duplicate against every primary.
	srv := objstore.NewMemserver(objstore.ServerParams{}, nil)
	store := objstore.New(srv)
	data := bytes.Repeat([]byte{0x5A}, 512*1024)
	mw, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	m, err := New(store, keys,
		WithHedgedReads(HedgePolicy{Delay: time.Nanosecond}),
		WithIOWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	for i := 0; i < 4; i++ {
		got, err := m.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("hedged readback diverged from the written bytes")
		}
	}
	after := srv.Stats()

	var hedges int64
	for _, hs := range m.HedgedReadStats() {
		hedges += hs.Hedges
	}
	if hedges == 0 {
		t.Fatal("read workload never hedged; the invariant was not exercised")
	}
	if after.Puts != before.Puts || after.Parts != before.Parts ||
		after.Completes != before.Completes || after.Deletes != before.Deletes {
		t.Fatalf("hedged reads mutated server state: before %+v, after %+v", before, after)
	}
	if after.OpenUploads != 0 {
		t.Fatalf("%d multipart sessions open after a read-only workload", after.OpenUploads)
	}
}

// TestHedgedRequestAmplification counts what hedging costs on a
// tail-heavy link (every 32nd request 10x slower): with the delay pinned
// between the body latency and the tail, a chunked read workload hedges
// at least once, issues at most 10% extra reads, and the server serves
// at most 10% more GETs than for the same reads unhedged (a canceled
// loser is never served) — only the tails are duplicated. The delay is
// pinned, not adaptive, so the counts do not depend on how quiet the
// host is; the p99 the hedges buy is wall-clock and is not asserted
// here (internal/backend/hedge's TestHedgeFirstResponseWins pins the
// mechanism).
func TestHedgedRequestAmplification(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const (
		rtt   = time.Millisecond
		delay = 5 * rtt // 5x the body latency, half the 10 ms tail
		chunk = 16 << 10
	)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(6)).Read(data)

	// readPhase writes data through a fresh server, reads it back in
	// chunks through a cold mount with opts, and returns the GETs the
	// server counted over the read phase and the mount's hedge counters.
	readPhase := func(opts ...Option) (gets int64, hs HedgedReadStats) {
		srv := objstore.NewMemserver(objstore.ServerParams{RTT: rtt, TailEvery: 32, TailMult: 10}, nil)
		mw, err := New(objstore.New(srv), keys, WithIOWindow(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := mw.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		before := srv.Stats().Gets
		m, err := New(objstore.New(srv), keys, append(opts, WithIOWindow(32), WithCache(2048))...)
		if err != nil {
			t.Fatal(err)
		}
		f, err := m.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, chunk)
		for off := 0; off < len(data); off += chunk {
			if _, err := f.ReadAt(buf, int64(off)); err != nil {
				t.Fatalf("read at %d: %v", off, err)
			}
			if !bytes.Equal(buf, data[off:off+chunk]) {
				t.Fatalf("readback at %d differs from the written bytes", off)
			}
		}
		for _, s := range m.HedgedReadStats() {
			hs.Reads += s.Reads
			hs.Hedges += s.Hedges
		}
		return srv.Stats().Gets - before, hs
	}

	plain, _ := readPhase()
	hedged, hs := readPhase(WithHedgedReads(HedgePolicy{Delay: delay}))
	if hs.Hedges == 0 {
		t.Fatalf("no hedge over %d reads with every 32nd request 10x slow", hs.Reads)
	}
	if 10*hs.Hedges > hs.Reads {
		t.Fatalf("%d hedges over %d reads: more than 10%% extra requests", hs.Hedges, hs.Reads)
	}
	if float64(hedged) > 1.1*float64(plain) {
		t.Fatalf("hedged read phase was served %d GETs, more than 1.1x the unhedged %d", hedged, plain)
	}
}
