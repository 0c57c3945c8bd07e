package lamassu

// Tests for the public API of the three extensions the paper
// discusses but leaves to future work — filename encryption (§2.1),
// the whole-file integrity layer (§2.5), and server-aided key
// generation (§1) — the first through an option, the other two by
// stacking their internal packages on a Mount the way a caller would.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"lamassu/internal/cryptoutil"
	"lamassu/internal/dedupe"
	"lamassu/internal/dupless"
	"lamassu/internal/integrity"
	"lamassu/internal/plainfs"
	"lamassu/internal/vfs"
)

func TestEncryptNamesOption(t *testing.T) {
	store := NewMemStorage()
	// Deterministic keys: the encrypted backing names are derived from
	// the outer key, and the leak check below greps them for short
	// substrings like "q3" — with random keys the base32 encoding
	// coincidentally contains such a bigram in roughly one run in ten.
	keys, err := KeysFromBytes(bytes.Repeat([]byte{0x17}, 32), bytes.Repeat([]byte{0x2a}, 32))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(store, keys, WithEncryptedNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("finance/q3/forecast.xlsx", []byte("numbers")); err != nil {
		t.Fatal(err)
	}
	// The plaintext path never appears on the backing store.
	raw, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 {
		t.Fatalf("backing entries: %v", raw)
	}
	for _, leak := range []string{"finance", "q3", "forecast", "xlsx"} {
		if strings.Contains(raw[0], leak) {
			t.Errorf("backing name %q leaks %q", raw[0], leak)
		}
	}
	// Round trip and listing still work through the mount.
	got, err := m.ReadFile("finance/q3/forecast.xlsx")
	if err != nil || string(got) != "numbers" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	names, err := m.List()
	if err != nil || len(names) != 1 || names[0] != "finance/q3/forecast.xlsx" {
		t.Fatalf("List = %v, %v", names, err)
	}

	// A second mount with the same keys resolves the same names.
	m2, err := New(store, keys, WithEncryptedNames())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ReadFile("finance/q3/forecast.xlsx"); err != nil {
		t.Fatalf("second mount lookup: %v", err)
	}
	// A mount with a different outer key cannot even list the volume.
	other := mustKeys(t)
	m3, err := New(store, KeyPair{Inner: keys.Inner, Outer: other.Outer}, WithEncryptedNames())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.List(); err == nil {
		t.Fatalf("foreign key listed encrypted names")
	}
}

func TestEncryptNamesPreservesDedup(t *testing.T) {
	// Name encryption must not disturb the data path: two mounts in
	// one zone still converge.
	store := NewMemStorage()
	keys := mustKeys(t)
	m1, _ := New(store, keys, WithEncryptedNames())
	m2, _ := New(store, keys, WithEncryptedNames())
	payload := bytes.Repeat([]byte{0x5E}, 32*4096)
	if err := m1.WriteFile("a", payload); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteFile("b", payload); err != nil {
		t.Fatal(err)
	}
	eng, _ := dedupe.NewEngine(4096)
	rep, err := eng.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UniqueBlocks != 3 { // 1 converged data block + 2 metadata
		t.Fatalf("UniqueBlocks = %d, want 3", rep.UniqueBlocks)
	}
}

func TestRollbackProtection(t *testing.T) {
	store := NewMemStorage()
	keys := mustKeys(t)
	m, err := New(store, keys)
	if err != nil {
		t.Fatal(err)
	}
	macKey := cryptoutil.DeriveSubKey(keys.Outer, "lamassu-rollback-mac")
	guard, err := integrity.New(m.VFS(), integrity.NewMemTrustStore(), macKey)
	if err != nil {
		t.Fatal(err)
	}

	v1 := bytes.Repeat([]byte{1}, 50000)
	if err := vfs.WriteAll(guard, "ledger", v1); err != nil {
		t.Fatal(err)
	}
	// Snapshot the valid v1 state as the malicious store would.
	snapshot, err := m.ReadFile("ledger")
	if err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{2}, 50000)
	if err := vfs.WriteAll(guard, "ledger", v2); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(guard, "ledger")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("verified read: %v", err)
	}

	// Roll back below the guard.
	if err := m.WriteFile("ledger", snapshot); err != nil {
		t.Fatal(err)
	}
	// The base mount is fooled (self-consistent old state)...
	if got, err := m.ReadFile("ledger"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("rollback staging failed: %v", err)
	}
	// ...the guard is not.
	if _, err := vfs.ReadAll(guard, "ledger"); !errors.Is(err, integrity.ErrRollback) {
		t.Fatalf("rollback undetected: %v", err)
	}
	bad, err := guard.VerifyAll()
	if err != nil || len(bad) != 1 {
		t.Fatalf("VerifyAll = %v, %v", bad, err)
	}
	// Remove clears the record.
	if err := guard.Remove("ledger"); err != nil {
		t.Fatal(err)
	}
	bad, err = guard.VerifyAll()
	if err != nil || len(bad) != 0 {
		t.Fatalf("VerifyAll after remove = %v, %v", bad, err)
	}
}

func TestReplicateVolume(t *testing.T) {
	// The §1 portability claim: an encrypted volume replicated by a
	// key-less byte copier is fully usable at the destination.
	src := NewMemStorage()
	keys := mustKeys(t)
	m, err := New(src, keys)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"a":     bytes.Repeat([]byte{1}, 300000),
		"b":     bytes.Repeat([]byte{2}, 50),
		"dir/c": bytes.Repeat([]byte{3}, 4096),
		"empty": {},
	}
	for name, data := range payloads {
		if err := m.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}

	// Replication needs no keys — it's a dumb byte copy of every
	// backing file.
	dst := NewMemStorage()
	names, err := src.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := vfs.Copy(plainfs.New(dst), name, plainfs.New(src), name, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) != len(payloads) {
		t.Fatalf("replicated %d files, want %d", len(names), len(payloads))
	}

	// A mount at the destination reads everything, integrity intact.
	m2, err := New(dst, keys)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range payloads {
		got, err := m2.ReadFile(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s after replication: %v", name, err)
		}
		rep, err := m2.Check(name)
		if err != nil || !rep.Clean() {
			t.Fatalf("%s audit after replication: %+v, %v", name, rep, err)
		}
	}
	// And the replica deduplicates against the original on a shared
	// downstream store (byte-identical ciphertext).
	rawA, _ := src.Open("a", 0)
	rawB, _ := dst.Open("a", 0)
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	if err := readFull(rawA, bufA); err != nil {
		t.Fatal(err)
	}
	if err := readFull(rawB, bufB); err != nil {
		t.Fatal(err)
	}
	rawA.Close()
	rawB.Close()
	if !bytes.Equal(bufA, bufB) {
		t.Fatalf("replica ciphertext differs from original")
	}
}

func readFull(f io.ReaderAt, p []byte) error {
	n, err := f.ReadAt(p, 0)
	if n == len(p) {
		return nil
	}
	return err
}

func TestDupLESSKeySourceOption(t *testing.T) {
	srv, err := dupless.NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck

	dial := func() func(hash [32]byte) (Key, error) {
		nc, err := dupless.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return func(h [32]byte) (Key, error) { return nc.DeriveKey(cryptoutil.Hash(h)) }
	}

	store := NewMemStorage()
	keys := mustKeys(t)
	m, err := New(store, keys, WithKeyDeriver(dial()))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x6D}, 8*4096)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("server-aided round trip: %v", err)
	}

	// Another mount with DIFFERENT inner/outer... the dedup domain is
	// now the RSA server, so only the outer key must match to read.
	m2, err := New(store, keys, WithKeyDeriver(dial()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteFile("g", data); err != nil {
		t.Fatal(err)
	}
	eng, _ := dedupe.NewEngine(4096)
	rep, err := eng.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UniqueBlocks != 3 { // converged data + 2 metadata
		t.Fatalf("UniqueBlocks = %d, want 3", rep.UniqueBlocks)
	}

	// The zone is the key server, not the inner key: a full rekey is
	// refused and leaves the file readable as it was.
	if _, err := m.RekeyFull("f", mustKeys(t)); err == nil {
		t.Fatal("RekeyFull accepted on a WithKeyDeriver mount")
	}
	got, err = m.ReadFile("f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after refused RekeyFull: %v", err)
	}
}
