package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamassu"
	"lamassu/internal/keyfile"
	"lamassu/internal/kmip"
)

func TestKeygenAndLoadKeys(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "zone.keys")

	if err := keygen(""); err == nil {
		t.Errorf("keygen without path accepted")
	}
	if err := keygen(path); err != nil {
		t.Fatalf("keygen: %v", err)
	}
	// Generated file round-trips through the loader used by every
	// subcommand.
	keys, err := loadKeys(path, "", 1)
	if err != nil {
		t.Fatalf("loadKeys: %v", err)
	}
	if keys.Inner.IsZero() || keys.Outer.IsZero() {
		t.Fatalf("loaded zero keys")
	}
	// keygen refuses to clobber existing key material.
	if err := keygen(path); err == nil {
		t.Errorf("keygen overwrote an existing key file")
	}
}

func TestLoadKeysValidation(t *testing.T) {
	if _, err := loadKeys("", "", 1); err == nil {
		t.Errorf("no key source accepted")
	}
	if _, err := loadKeys("some.keys", "host:1", 1); err == nil {
		t.Errorf("both key sources accepted")
	}
	if _, err := loadKeys(filepath.Join(t.TempDir(), "missing.keys"), "", 1); err == nil {
		t.Errorf("missing key file accepted")
	}
	// A malformed key file is rejected with the parser's error.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.keys")
	if err := writeFileHelper(bad, "inner: nothex\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadKeys(bad, "", 1); err == nil {
		t.Errorf("malformed key file accepted")
	}
}

// TestLoadKeysFromKMIP drives loadKeys' -kmip branch against an
// in-process key server.
func TestLoadKeysFromKMIP(t *testing.T) {
	srv := kmip.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	k1, err := loadKeys("", addr, 42)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loadKeys("", addr, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Inner.Equal(k2.Inner) || !k1.Outer.Equal(k2.Outer) {
		t.Fatalf("same zone returned different keys")
	}
	other, err := loadKeys("", addr, 43)
	if err != nil {
		t.Fatal(err)
	}
	if other.Inner.Equal(k1.Inner) {
		t.Fatalf("different zones share inner key")
	}
	// The fetched keys actually work.
	m, err := lamassu.New(lamassu.NewMemStorage(), k1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("f", []byte("via kmip")); err != nil {
		t.Fatal(err)
	}
}

func TestReadKeyfileMatchesPackage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k")
	pair, err := keyfile.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := keyfile.Write(path, pair); err != nil {
		t.Fatal(err)
	}
	got, err := readKeyfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Inner.Equal(pair.Inner) || !got.Outer.Equal(pair.Outer) {
		t.Fatalf("readKeyfile diverged from keyfile package")
	}
}

func TestUsageListsAllSubcommands(t *testing.T) {
	// usage() writes to stderr; here we only assert the string
	// constants stay in sync with the dispatch switch.
	for _, sub := range []string{"keygen", "put", "get", "ls", "stat", "rm", "fsck", "recover", "df", "rekey", "rebalance"} {
		if !strings.Contains(usageMessage, sub) {
			t.Errorf("usage text missing subcommand %q", sub)
		}
	}
	if strings.Contains(usageMessage, "offline") {
		t.Error("usage text still advertises the removed -offline flag")
	}
}

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}

func TestOpenStorageSharded(t *testing.T) {
	if _, _, _, err := openStorage("", "  , ,", 0, 0); err == nil {
		t.Errorf("-shards with no directories accepted")
	}
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	storage, _, _, err := openStorage("", strings.Join(dirs, ","), 32, 64<<10)
	if err != nil {
		t.Fatalf("openStorage sharded: %v", err)
	}
	// A put/get round trip through a mount over the sharded CLI
	// storage, with the data striped across the directories.
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lamassu.New(storage, keys)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 40<<10) // 640 KiB: ~10 stripes
	if err := m.WriteFile("blob", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("blob")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sharded round trip failed: %v", err)
	}
	populated := 0
	for _, d := range dirs {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("striped data reached %d of %d directories", populated, len(dirs))
	}
	// Reopening with the same parameters sees the same file.
	reopened, _, _, err := openStorage("", strings.Join(dirs, ","), 32, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := lamassu.New(reopened, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err = m2.ReadFile("blob")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened sharded round trip failed: %v", err)
	}
}

// The rebalance subcommand's topology resolution: shared directories
// keep their already-open stores (identity is what the mover compares
// by), the prefix contract is enforced, and the resulting topology
// drives StartRebalance over real directories end to end.
func TestOpenNewTopologyRebalance(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	storage, stores, gotDirs, err := openStorage("", strings.Join(dirs, ","), 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lamassu.New(storage, keys)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("fedcba9876543210"), 30<<10) // ~480 KiB
	if err := m.WriteFile("blob", data); err != nil {
		t.Fatal(err)
	}

	// Contract violations are caught before any store is touched.
	if _, err := openNewTopology("", gotDirs, stores); err == nil {
		t.Error("empty -newshards accepted")
	}
	if _, err := openNewTopology(strings.Join(dirs, ","), gotDirs, stores); err == nil {
		t.Error("same-count -newshards accepted")
	}
	if _, err := openNewTopology(t.TempDir()+","+dirs[1]+","+t.TempDir(), gotDirs, stores); err == nil {
		t.Error("swapped prefix directory accepted")
	}

	third := t.TempDir()
	newList, err := openNewTopology(strings.Join(append(append([]string{}, dirs...), third), ","), gotDirs, stores)
	if err != nil {
		t.Fatal(err)
	}
	// Shared slots must be the SAME store objects.
	for i := range stores {
		if newList[i] != stores[i] {
			t.Fatalf("slot %d reopened instead of reusing the current store", i)
		}
	}
	reb, err := m.StartRebalance(context.Background(), newList...)
	if err != nil {
		t.Fatal(err)
	}
	if err := reb.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("blob")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after online rebalance failed: %v", err)
	}
	entries, err := os.ReadDir(third)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("new directory received nothing")
	}
	if st := m.RebalanceStatus(); st.Epoch != 1 || st.Active {
		t.Fatalf("status after CLI-style rebalance: %+v", st)
	}
}
