package lamassu

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"lamassu/internal/dedupe"
)

func mustKeys(t *testing.T) KeyPair {
	t.Helper()
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestPublicQuickstart(t *testing.T) {
	keys := mustKeys(t)
	m, err := New(NewMemStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, deduplicating world")
	if err := m.WriteFile("hello.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("hello.txt")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if sz, err := m.Stat("hello.txt"); err != nil || sz != int64(len(data)) {
		t.Fatalf("Stat = %d, %v", sz, err)
	}
	names, err := m.List()
	if err != nil || len(names) != 1 || names[0] != "hello.txt" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := m.Remove("hello.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("hello.txt"); !IsNotExist(err) {
		t.Fatalf("after remove: %v", err)
	}
}

func TestKeysFromBytes(t *testing.T) {
	in := bytes.Repeat([]byte{1}, 32)
	out := bytes.Repeat([]byte{2}, 32)
	kp, err := KeysFromBytes(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Inner.IsZero() || kp.Outer.IsZero() {
		t.Fatal("keys zero")
	}
	if _, err := KeysFromBytes(in[:31], out); err == nil {
		t.Fatal("short inner accepted")
	}
	if _, err := KeysFromBytes(in, out[:31]); err == nil {
		t.Fatal("short outer accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	keys := mustKeys(t)
	m, err := New(NewMemStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	for _, want := range []string{"block=4096B", "R=8", "keys/segment=118", "integrity=full"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	ratio := m.MinOverheadRatio()
	if ratio < 0.0084 || ratio > 0.0086 {
		t.Errorf("MinOverheadRatio = %v", ratio)
	}
	// Overhead for one full segment: exactly one metadata block.
	if got := m.SpaceOverhead(118 * 4096); got != 4096 {
		t.Errorf("SpaceOverhead = %d", got)
	}
}

// TestNewRejectsInvalidOptions: New is where a bad option surfaces.
func TestNewRejectsInvalidOptions(t *testing.T) {
	keys := mustKeys(t)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"negative parallelism", WithParallelism(-1)},
		{"negative cache", WithCache(-1)},
		{"negative readahead", WithReadahead(-1)},
		{"negative I/O window", WithIOWindow(-1)},
		{"readahead without cache", WithReadahead(8)},
		{"bad block size", WithBlockSize(100)},
		{"bad reserved slots", WithReservedSlots(999)},
	} {
		if _, err := New(NewMemStorage(), keys, tc.opt); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestDefaultIOWindow: without WithIOWindow the engine's I/O window is
// 32 deep whatever the worker pool's width, the serial pool included;
// only WithIOWindow sets the depth. A multi-extent read over a 2-shard
// store stays inside it and drains it.
func TestDefaultIOWindow(t *testing.T) {
	keys := mustKeys(t)
	for _, tc := range []struct{ parallelism, ioWindow, window int }{{3, 0, 32}, {0, 0, 32}, {1, 0, 32}, {1, 1, 1}} {
		storage, err := NewShardedStorage([]Storage{NewMemStorage(), NewMemStorage()},
			&ShardOptions{StripeBytes: 2 * 4096})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(storage, keys, WithParallelism(tc.parallelism), WithIOWindow(tc.ioWindow), WithLatencyCollection())
		if err != nil {
			t.Fatal(err)
		}
		if got := m.EngineStats().IOWindow; got != tc.window {
			t.Fatalf("parallelism %d, window %d: IOWindow = %d, want %d", tc.parallelism, tc.ioWindow, got, tc.window)
		}
		// 64 KiB over 8 KiB stripes: a read of 8 extents on 2 shards.
		data := bytes.Repeat([]byte("default window "), 64*1024/15+1)[:64*1024]
		if err := m.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadFile("f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("parallelism %d, window %d: round trip failed: %v", tc.parallelism, tc.ioWindow, err)
		}
		st := m.EngineStats()
		if st.ReadRuns < 2 {
			t.Fatalf("parallelism %d, window %d: the read took %d extents, want several", tc.parallelism, tc.ioWindow, st.ReadRuns)
		}
		if st.IOPeakInFlight < 1 || st.IOPeakInFlight > int64(tc.window) || st.IOInFlight != 0 {
			t.Fatalf("parallelism %d, window %d: window gauges peak %d, in flight %d; want 1..%d and 0",
				tc.parallelism, tc.ioWindow, st.IOPeakInFlight, st.IOInFlight, tc.window)
		}
	}
}

func TestDedupAcrossMountsSharedZone(t *testing.T) {
	store := NewMemStorage()
	keys := mustKeys(t)
	m1, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEF}, 64*4096)
	if err := m1.WriteFile("a", payload); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteFile("b", payload); err != nil {
		t.Fatal(err)
	}
	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// 64 identical plaintext blocks per file converge to 1 ciphertext
	// block shared across mounts; 2 metadata blocks remain unique.
	if rep.UniqueBlocks != 3 {
		t.Fatalf("UniqueBlocks = %d, want 3", rep.UniqueBlocks)
	}
}

func TestLatencyCollection(t *testing.T) {
	keys := mustKeys(t)
	m, err := New(NewMemStorage(), keys, WithLatencyCollection())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("f", bytes.Repeat([]byte{1}, 64*4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("f"); err != nil {
		t.Fatal(err)
	}
	slices := m.Latency()
	if len(slices) != 5 {
		t.Fatalf("latency slices = %d", len(slices))
	}
	var total float64
	seen := map[string]bool{}
	for _, s := range slices {
		total += s.Fraction
		seen[s.Category] = true
	}
	for _, c := range []string{"Encrypt", "Decrypt", "GetCEKey", "I/O", "Misc."} {
		if !seen[c] {
			t.Errorf("category %q missing", c)
		}
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("fractions sum to %v", total)
	}
	m.ResetLatency()
	for _, s := range m.Latency() {
		if s.Total != 0 {
			t.Errorf("reset left %v in %s", s.Total, s.Category)
		}
	}

	// Without CollectLatency, Latency is nil and Reset is a no-op.
	m2, _ := New(NewMemStorage(), keys)
	if m2.Latency() != nil {
		t.Errorf("latency collected without opt-in")
	}
	m2.ResetLatency()
}

func TestCheckRecoverRekeyThroughPublicAPI(t *testing.T) {
	store := NewMemStorage()
	keys := mustKeys(t)
	m, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 200*4096)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("Check: %+v, %v", rep, err)
	}
	st, err := m.Recover("f")
	if err != nil || st.Repaired != 0 {
		t.Fatalf("Recover: %+v, %v", st, err)
	}

	// Partial rekey.
	newKeys := mustKeys(t)
	if _, err := m.RekeyOuter("f", newKeys.Outer); err != nil {
		t.Fatal(err)
	}
	rotated, err := New(store, KeyPair{Inner: keys.Inner, Outer: newKeys.Outer})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rotated.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after outer rekey: %v", err)
	}

	// Full rekey.
	if _, err := rotated.RekeyFull("f", newKeys); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(store, newKeys)
	if err != nil {
		t.Fatal(err)
	}
	got, err = fresh.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after full rekey: %v", err)
	}
}

func TestIntegrityErrorSurfaced(t *testing.T) {
	store := NewMemStorage()
	keys := mustKeys(t)
	m, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("f", bytes.Repeat([]byte{9}, 8192)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a data-block byte directly on the backing store. The byte
	// is flipped, not overwritten with a constant: ciphertext already
	// holds any given value at that offset one time in 256.
	bf, err := store.Open("f", 1 /* backend.OpenWrite */)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := bf.ReadAt(b, 5000); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := bf.WriteAt(b, 5000); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	_, err = m.ReadFile("f")
	if !IsIntegrityError(err) {
		t.Fatalf("corrupted read: %v", err)
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("error identity lost: %v", err)
	}
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := mustKeys(t)
	m, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x31}, 130*4096+17)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	// A second mount over the same directory reads it back.
	store2, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(store2, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cross-process read: %v", err)
	}
}

func TestFilePositionalIO(t *testing.T) {
	keys := mustKeys(t)
	m, _ := New(NewMemStorage(), keys)
	f, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Fatalf("buf = %q", buf)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}
