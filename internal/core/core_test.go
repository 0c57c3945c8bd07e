package core

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"math"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/dedupe"
	"lamassu/internal/fstest"
	"lamassu/internal/layout"
	"lamassu/internal/vfs"
)

func testKey(b byte) cryptoutil.Key {
	var k cryptoutil.Key
	for i := range k {
		k[i] = b ^ byte(i*11)
	}
	return k
}

func testConfig() Config {
	return Config{Inner: testKey(1), Outer: testKey(2)}
}

func newFS(t *testing.T, store backend.Store, cfg Config) *FS {
	t.Helper()
	fs, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConformanceFullIntegrity(t *testing.T) {
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), testConfig())
	})
}

func TestConformanceMetaOnly(t *testing.T) {
	cfg := testConfig()
	cfg.Integrity = IntegrityMetaOnly
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

func TestConformanceSmallBlocksR1(t *testing.T) {
	if testing.Short() {
		// ~20s race-instrumented: the R=1 geometry commits on every
		// block write. The boundary logic it covers still runs in the
		// short suite via the other conformance geometries; the full
		// `go test` keeps this one.
		t.Skip("R=1 conformance sweep skipped in -short mode")
	}
	// Exercise segment-boundary logic hard: tiny blocks, R=1 (commit
	// per block write) means many segments and constant committing.
	geo, err := layout.NewGeometry(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Geometry = geo
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

func TestConformanceLargeR(t *testing.T) {
	geo, err := layout.NewGeometry(4096, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Geometry = geo
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

func TestConfigValidation(t *testing.T) {
	store := backend.NewMemStore()
	if _, err := New(store, Config{Outer: testKey(2)}); err == nil {
		t.Errorf("zero inner key accepted")
	}
	if _, err := New(store, Config{Inner: testKey(1)}); err == nil {
		t.Errorf("zero outer key accepted")
	}
	if _, err := New(store, Config{Inner: testKey(1), Outer: testKey(1)}); err == nil {
		t.Errorf("identical keys accepted")
	}
	bad := Config{Inner: testKey(1), Outer: testKey(2)}
	bad.Geometry = layout.Geometry{BlockSize: 100, Reserved: 1}
	if _, err := New(store, bad); err == nil {
		t.Errorf("bad geometry accepted")
	}
	fs := newFS(t, store, testConfig())
	if fs.Geometry() != layout.Default() {
		t.Errorf("zero geometry did not default: %+v", fs.Geometry())
	}
	if fs.Integrity() != IntegrityFull {
		t.Errorf("default integrity = %v", fs.Integrity())
	}
}

func TestIntegrityModeString(t *testing.T) {
	if IntegrityFull.String() != "full" || IntegrityMetaOnly.String() != "meta-only" {
		t.Errorf("mode strings: %q %q", IntegrityFull, IntegrityMetaOnly)
	}
	if IntegrityMode(9).String() == "" {
		t.Errorf("unknown mode empty string")
	}
}

// The headline property: identical plaintext written through two
// Lamassu instances sharing an inner key produces identical data-block
// ciphertext, so the downstream dedup engine reclaims the duplicates
// (Figures 1 and 6).
func TestConvergentDedupAcrossClients(t *testing.T) {
	store := backend.NewMemStore()
	cfg := testConfig()
	client1 := newFS(t, store, cfg)
	client2 := newFS(t, store, cfg)

	data := make([]byte, 118*4096) // exactly one full segment
	for i := range data {
		data[i] = byte(i / 4096) // 118 distinct blocks
	}
	if err := vfs.WriteAll(client1, "a", data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(client2, "b", data); err != nil {
		t.Fatal(err)
	}

	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// Each file stores 118 data blocks + 1 metadata block. All 118
	// data blocks dedupe across the two files; the metadata blocks
	// (random GCM nonces) never do.
	if rep.TotalBlocks != 238 {
		t.Fatalf("TotalBlocks = %d, want 238", rep.TotalBlocks)
	}
	if rep.DuplicateBlocks != 118 {
		t.Fatalf("DuplicateBlocks = %d, want 118", rep.DuplicateBlocks)
	}
}

// Different inner keys define different isolation zones: no cross-zone
// deduplication (§2.2).
func TestIsolationZonesDoNotDedup(t *testing.T) {
	store := backend.NewMemStore()
	cfgA := Config{Inner: testKey(1), Outer: testKey(2)}
	cfgB := Config{Inner: testKey(3), Outer: testKey(2)} // same outer!
	zoneA := newFS(t, store, cfgA)
	zoneB := newFS(t, store, cfgB)

	data := bytes.Repeat([]byte{0x5C}, 32*4096)
	if err := vfs.WriteAll(zoneA, "a", data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(zoneB, "b", data); err != nil {
		t.Fatal(err)
	}
	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// Within each file the 32 identical plaintext blocks converge to
	// one ciphertext block (31 dups each); across zones nothing
	// matches.
	if rep.DuplicateBlocks != 62 {
		t.Fatalf("DuplicateBlocks = %d, want 62 (31 within each zone, 0 across)", rep.DuplicateBlocks)
	}
}

// Sharing the inner key but not the outer key shares the dedup domain
// without sharing data access (§2.2's broader-sharing discussion).
func TestSharedInnerSeparateOuter(t *testing.T) {
	store := backend.NewMemStore()
	tenant1 := newFS(t, store, Config{Inner: testKey(1), Outer: testKey(2)})
	tenant2 := newFS(t, store, Config{Inner: testKey(1), Outer: testKey(3)})

	data := bytes.Repeat([]byte{0xD7}, 16*4096)
	if err := vfs.WriteAll(tenant1, "a", data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(tenant2, "b", data); err != nil {
		t.Fatal(err)
	}

	// Dedup domain is shared: data blocks across the two files match.
	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// 16 blocks per file, all identical plaintext: one unique data
	// block total + 2 unique metadata blocks.
	if rep.UniqueBlocks != 3 {
		t.Fatalf("UniqueBlocks = %d, want 3", rep.UniqueBlocks)
	}

	// Trust domain is not: tenant1 cannot read tenant2's file.
	if _, err := tenant1.Open("b"); err == nil {
		t.Fatalf("cross-tenant open succeeded despite different outer keys")
	}
	// tenant2 reads its own data fine.
	got, err := vfs.ReadAll(tenant2, "b")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tenant2 self-read failed: %v", err)
	}
}

// Metadata blocks are never deduplicated (random nonces), and
// rewriting identical file content produces identical data blocks but
// fresh metadata blocks.
func TestMetadataNeverDedups(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	data := make([]byte, 3*118*4096) // 3 segments
	for b := 0; b < len(data)/4096; b++ {
		// Stamp each block with its index so all 354 blocks are
		// distinct within a file.
		data[b*4096] = byte(b)
		data[b*4096+1] = byte(b >> 8)
		data[b*4096+2] = 0xA7
	}
	if err := vfs.WriteAll(fs, "a", data); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteAll(fs, "b", data); err != nil {
		t.Fatal(err)
	}
	e, _ := dedupe.NewEngine(4096)
	rep, err := e.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	// 2 files × (354 data + 3 meta) blocks; all data dedupes across
	// files, no metadata does.
	if rep.TotalBlocks != 2*357 {
		t.Fatalf("TotalBlocks = %d", rep.TotalBlocks)
	}
	if rep.UniqueBlocks != 354+6 {
		t.Fatalf("UniqueBlocks = %d, want 360", rep.UniqueBlocks)
	}
}

// Equation (6): the physical size of an encrypted file is exactly
// (NDB + NMB) · BlockSize.
func TestPhysicalSizeMatchesEquations(t *testing.T) {
	for _, n := range []int64{1, 4096, 4097, 118 * 4096, 118*4096 + 1, 1 << 20, 1<<20 + 12345} {
		store := backend.NewMemStore()
		fs := newFS(t, store, testConfig())
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)
		}
		if err := vfs.WriteAll(fs, "f", data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		phys, err := store.Stat("f")
		if err != nil {
			t.Fatal(err)
		}
		if want := fs.Geometry().PhysicalSize(n); phys != want {
			t.Errorf("n=%d: physical size %d, want %d", n, phys, want)
		}
		if logical, err := fs.Stat("f"); err != nil || logical != n {
			t.Errorf("n=%d: Stat = %d, %v", n, logical, err)
		}
	}
}

// Ciphertext never leaks plaintext bytes.
func TestNoPlaintextOnBackingStore(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	secret := bytes.Repeat([]byte("TOPSECRET-LAMASSU-PLAINTEXT!"), 1024)
	if err := vfs.WriteAll(fs, "f", secret); err != nil {
		t.Fatal(err)
	}
	raw, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("TOPSECRET")) {
		t.Fatalf("plaintext visible on backing store")
	}
}

// Wrong outer key cannot open; wrong inner key (same outer) opens but
// fails the data integrity check.
func TestKeyMisuseDetected(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	data := bytes.Repeat([]byte{0xA5}, 8192)
	if err := vfs.WriteAll(fs, "f", data); err != nil {
		t.Fatal(err)
	}

	wrongOuter := newFS(t, store, Config{Inner: testKey(1), Outer: testKey(9)})
	if _, err := wrongOuter.Open("f"); err == nil {
		t.Fatalf("wrong outer key opened the file")
	}

	wrongInner := newFS(t, store, Config{Inner: testKey(8), Outer: testKey(2)})
	f, err := wrongInner.Open("f")
	if err != nil {
		t.Fatalf("open with wrong inner key (correct outer): %v", err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("wrong inner key read: %v, want ErrIntegrity", err)
	}
}

// Data corruption on the backing store is detected under full
// integrity (§2.5) and missed (by design) under meta-only for data
// blocks, while metadata corruption is always detected.
func TestCorruptionDetection(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	data := bytes.Repeat([]byte{0x3C}, 118*4096)
	if err := vfs.WriteAll(fs, "f", data); err != nil {
		t.Fatal(err)
	}

	// flip inverts one byte of the backing file, so it always changes
	// (the metadata block is sealed under a random nonce: any fixed
	// value is already there once in 256 runs).
	flip := func(off int64) {
		t.Helper()
		bf, err := store.Open("f", backend.OpenWrite)
		if err != nil {
			t.Fatal(err)
		}
		defer bf.Close()
		b := make([]byte, 1)
		if _, err := bf.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		if _, err := bf.WriteAt([]byte{^b[0]}, off); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one byte of the first data block (physical block 1).
	flip(4096 + 100)

	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("full integrity read of corrupted block: %v", err)
	}
	f.Close()

	// Meta-only mode does not detect the data corruption...
	cfgMeta := testConfig()
	cfgMeta.Integrity = IntegrityMetaOnly
	fsMeta := newFS(t, store, cfgMeta)
	fm, err := fsMeta.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.ReadAt(buf, 0); err != nil {
		t.Fatalf("meta-only read surfaced data corruption: %v", err)
	}
	fm.Close()

	// ...but metadata corruption is always detected (GCM).
	flip(200) // inside meta block 0
	if _, err := fsMeta.Open("f"); err == nil {
		// Opening reads only the final meta block; for a 1-segment
		// file that IS block 0, so open fails. Also verify via read.
		fm, err := fsMeta.Open("f")
		if err == nil {
			defer fm.Close()
			if _, err := fm.ReadAt(buf, 0); err == nil {
				t.Fatalf("metadata corruption not detected in meta-only mode")
			}
		}
	}
}

// Check() gives a clean report for intact files and flags corruption.
func TestCheckAudit(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	data := make([]byte, 300*4096+500)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := vfs.WriteAll(fs, "f", data); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("intact file reported dirty: %+v", rep)
	}
	if rep.DataBlocks != 301 {
		t.Fatalf("DataBlocks = %d, want 301", rep.DataBlocks)
	}
	if rep.Segments != 3 {
		t.Fatalf("Segments = %d, want 3", rep.Segments)
	}
	if rep.LogicalSize != int64(len(data)) {
		t.Fatalf("LogicalSize = %d", rep.LogicalSize)
	}

	// Corrupt a data block in segment 1.
	bf, _ := store.Open("f", backend.OpenWrite)
	if _, err := bf.WriteAt([]byte{1, 2, 3}, fs.Geometry().DataBlockOffset(130)+512); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	rep, err = fs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadData != 1 || rep.Clean() {
		t.Fatalf("corruption not flagged: %+v", rep)
	}

	// Corrupt metadata block of segment 2. The block is sealed under a
	// random nonce, so any constant byte is already there in 1 run of
	// 256; flipping bits always changes it.
	bf, _ = store.Open("f", backend.OpenWrite)
	off := fs.Geometry().MetaBlockOffset(2) + 40
	b := []byte{0}
	if _, err := bf.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := bf.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	rep, err = fs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadMeta != 1 {
		t.Fatalf("metadata corruption not flagged: %+v", rep)
	}

	// Empty file audits clean.
	if err := vfs.WriteAll(fs, "empty", nil); err != nil {
		t.Fatal(err)
	}
	rep, err = fs.Check("empty")
	if err != nil || !rep.Clean() {
		t.Fatalf("empty file audit: %+v, %v", rep, err)
	}
}

// Stale logical sizes in non-final metadata blocks are ignored: only
// the final segment's size is authoritative (§2.3).
func TestStaleSizeIgnored(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	// Write two segments' worth, then extend; segment 0's metadata
	// retains a stale size.
	seg := 118 * 4096
	data := make([]byte, seg)
	if err := vfs.WriteAll(fs, "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 2, 3}, int64(2*seg)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(2*seg) + 3
	if got, err := fs.Stat("f"); err != nil || got != want {
		t.Fatalf("Stat = %d, %v; want %d", got, err, want)
	}
	// Reopen and read the hole: zeros.
	got, err := vfs.ReadAll(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != want {
		t.Fatalf("len = %d", len(got))
	}
	for i := seg; i < 2*seg; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
	if !bytes.Equal(got[2*seg:], []byte{1, 2, 3}) {
		t.Fatalf("tail = %v", got[2*seg:])
	}
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	if err := vfs.WriteAll(fs, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("WriteAt: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Truncate: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Errorf("read-only Sync should be a no-op: %v", err)
	}
}

// TestWriteEndPastMaxSize: a write or truncate ending past the largest
// file the geometry can address fails with fs.ErrInvalid before
// touching the file (its physical offsets would overflow).
func TestWriteEndPastMaxSize(t *testing.T) {
	fs := newFS(t, backend.NewMemStore(), testConfig())
	if err := vfs.WriteAll(fs, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	limit := fs.Geometry().MaxLogicalSize()
	for _, off := range []int64{limit - 4, limit, math.MaxInt64} {
		if _, err := f.WriteAt([]byte("patch"), off); !errors.Is(err, iofs.ErrInvalid) {
			t.Errorf("WriteAt 5 bytes at %d: %v, want fs.ErrInvalid", off, err)
		}
	}
	if err := f.Truncate(limit + 1); !errors.Is(err, iofs.ErrInvalid) {
		t.Errorf("Truncate(%d): %v, want fs.ErrInvalid", limit+1, err)
	}
	if size, err := f.Size(); err != nil || size != 4 {
		t.Fatalf("Size = %d, %v after rejected calls, want 4", size, err)
	}
}

func TestClosedHandle(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if _, err := f.Size(); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("size after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("sync after close: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, backend.ErrClosed) {
		t.Errorf("truncate after close: %v", err)
	}
}

// A storage layer that swaps two (individually valid) metadata blocks
// is detected: the sealed segment index does not match the block's
// position.
func TestMetadataSwapDetected(t *testing.T) {
	store := backend.NewMemStore()
	fs := newFS(t, store, testConfig())
	data := make([]byte, 3*118*4096)
	for i := range data {
		data[i] = byte(i >> 12)
	}
	if err := vfs.WriteAll(fs, "f", data); err != nil {
		t.Fatal(err)
	}
	geo := fs.Geometry()

	// Swap the metadata blocks of segments 0 and 1 on the backing
	// store (both authenticate under the outer key).
	bf, err := store.Open("f", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	m0 := make([]byte, geo.BlockSize)
	m1 := make([]byte, geo.BlockSize)
	if err := backend.ReadFull(bf, m0, geo.MetaBlockOffset(0)); err != nil {
		t.Fatal(err)
	}
	if err := backend.ReadFull(bf, m1, geo.MetaBlockOffset(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := bf.WriteAt(m1, geo.MetaBlockOffset(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := bf.WriteAt(m0, geo.MetaBlockOffset(1)); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatalf("read through swapped metadata succeeded")
	}
	rep, err := fs.Check("f")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadMeta != 2 {
		t.Fatalf("BadMeta = %d, want 2 (both swapped blocks)", rep.BadMeta)
	}
}

// Uncommitted writes are visible to reads through the same handle
// (read-your-writes through the write buffer).
func TestReadYourPendingWrites(t *testing.T) {
	store := backend.NewMemStore()
	cfg := testConfig()
	cfg.Geometry, _ = layout.NewGeometry(4096, 60) // large R: writes stay pending
	fs := newFS(t, store, cfg)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := bytes.Repeat([]byte{0x42}, 3*4096)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Nothing committed yet (3 < R=60), but reads see the data.
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("pending writes not visible")
	}
}
