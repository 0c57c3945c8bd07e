package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newBlockCache(2)
	c.putData("f", 0, []byte{0}, c.snapshot())
	c.putData("f", 1, []byte{1}, c.snapshot())
	c.putData("f", 2, []byte{2}, c.snapshot()) // evicts dbi 0
	var b [1]byte
	if c.getData("f", 0, b[:]) {
		t.Fatal("oldest entry not evicted")
	}
	if !c.getData("f", 1, b[:]) || b[0] != 1 {
		t.Fatalf("dbi 1 lost: %v", b)
	}
	// dbi 1 is now most recent; inserting evicts dbi 2.
	c.putData("f", 3, []byte{3}, c.snapshot())
	if c.getData("f", 2, b[:]) {
		t.Fatal("LRU order ignored")
	}
	if !c.getData("f", 1, b[:]) {
		t.Fatal("recently-used entry evicted")
	}
	st := c.stats()
	if st.Capacity != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheIsolatesKindsAndFiles(t *testing.T) {
	c := newBlockCache(16)
	c.putData("a", 7, []byte{1}, c.snapshot())
	var b [1]byte
	if c.getData("b", 7, b[:]) {
		t.Fatal("entry leaked across file names")
	}
	if m := c.getMeta("a", 7); m != nil {
		t.Fatal("data entry returned as metadata")
	}
	geo := layout.Default()
	c.putMeta("a", 7, layout.NewMetaBlock(geo, 7), c.snapshot())
	if !c.getData("a", 7, b[:]) || b[0] != 1 {
		t.Fatal("meta insert clobbered data entry")
	}
}

func TestCacheMetaCopiesAreIsolated(t *testing.T) {
	c := newBlockCache(4)
	geo := layout.Default()
	m := layout.NewMetaBlock(geo, 0)
	m.LogicalSize = 42
	c.putMeta("f", 0, m, c.snapshot())
	m.LogicalSize = 7 // caller keeps mutating its copy
	got := c.getMeta("f", 0)
	if got == nil || got.LogicalSize != 42 {
		t.Fatalf("cached meta shares storage with caller: %+v", got)
	}
	got.SetStableKey(0, testKey(9)) // and mutating a hit must not poison the cache
	if again := c.getMeta("f", 0); !again.StableKey(0).IsZero() {
		t.Fatal("returned meta shares storage with cache")
	}
}

func TestCacheInvalidateFile(t *testing.T) {
	c := newBlockCache(16)
	c.putData("a", 1, []byte{1}, c.snapshot())
	c.putData("b", 1, []byte{2}, c.snapshot())
	c.putMeta("a", 0, layout.NewMetaBlock(layout.Default(), 0), c.snapshot())
	c.invalidateFile("a")
	var b [1]byte
	if c.getData("a", 1, b[:]) || c.getMeta("a", 0) != nil {
		t.Fatal("entries for a survived invalidateFile")
	}
	if !c.getData("b", 1, b[:]) {
		t.Fatal("entries for b were dropped")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *blockCache
	c.putData("f", 0, []byte{1}, c.snapshot()) // must not panic
	var b [1]byte
	if c.getData("f", 0, b[:]) {
		t.Fatal("nil cache returned a hit")
	}
	c.invalidateFile("f")
	if st := c.stats(); st.Capacity != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// End-to-end: a cached FS must serve reads identical to the backing
// store's truth across overwrite, truncate, re-key and recovery — the
// invalidation paths the engine wires through.
func TestCacheCoherenceThroughMutations(t *testing.T) {
	store := backend.NewMemStore()
	cfg := testConfig()
	cfg.CacheBlocks = 64
	lfs := newFS(t, store, cfg)

	data := make([]byte, 130*4096)
	rng := rand.New(rand.NewSource(11))
	rng.Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}

	readBack := func(label string, want []byte) {
		t.Helper()
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content diverged", label)
		}
	}

	// Warm the cache, then overwrite a committed region and re-read.
	readBack("initial", data)
	if st := lfs.CacheStats(); st.Hits+st.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	patch := make([]byte, 16*4096)
	rng.Read(patch)
	if _, err := f.WriteAt(patch, 20*4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	copy(data[20*4096:], patch)
	readBack("after overwrite", data)

	// Truncate must drop cached blocks beyond (and at) the cut.
	f, err = lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(77*4096 + 123); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data = data[:77*4096+123]
	readBack("after truncate", data)

	// A full re-key rewrites every ciphertext block; reads through a
	// new-key FS over the same (warm) cache object would be wrong if
	// rotation left entries behind — rotation runs on the same FS, so
	// verify through it after rotating back-to-back.
	if _, err := lfs.RekeyOuter("f", testKey(7)); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Outer = testKey(7)
	lfs2 := newFS(t, store, cfg2)
	got, err := vfs.ReadAll(lfs2, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("after outer re-key: content diverged")
	}

	// And reads through the old FS must fail authentication, not serve
	// stale cached metadata.
	if _, err := vfs.ReadAll(lfs, "f"); err == nil {
		t.Fatal("stale cache served reads past a re-key")
	}
}

// Reads with the cache enabled must hit it: the second sweep of a file
// smaller than the cache should do no backend data-block reads.
func TestCacheServesRepeatedReads(t *testing.T) {
	store := backend.NewMemStore()
	cfg := testConfig()
	cfg.CacheBlocks = 512
	lfs := newFS(t, store, cfg)
	data := make([]byte, 100*4096)
	rand.New(rand.NewSource(12)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}

	if _, err := vfs.ReadAll(lfs, "f"); err != nil { // warm
		t.Fatal(err)
	}
	before := store.Stats().Reads
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content diverged")
	}
	// The warm sweep may still read metadata via Open (cached too), so
	// allow a handful of reads but not one per block.
	if delta := store.Stats().Reads - before; delta > 5 {
		t.Fatalf("warm sweep did %d backend reads, want ~0", delta)
	}
	st := lfs.CacheStats()
	if st.Hits < 100 {
		t.Fatalf("cache stats %+v, want >=100 hits", st)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
}

// The generation guard: an insert whose backing-store read predates an
// invalidation must be dropped, so a read racing a commit can never
// re-install pre-commit bytes after the invalidation already ran.
func TestCachePutDroppedAfterInvalidation(t *testing.T) {
	c := newBlockCache(8)
	gen := c.snapshot() // reader snapshots, then "reads the store"
	c.invalidateData("f", 3)
	c.putData("f", 3, []byte{0xEE}, gen) // stale insert must be dropped
	var b [1]byte
	if c.getData("f", 3, b[:]) {
		t.Fatal("stale insert survived a racing invalidation")
	}
	// A fresh snapshot taken after the invalidation inserts fine.
	c.putData("f", 3, []byte{0x11}, c.snapshot())
	if !c.getData("f", 3, b[:]) || b[0] != 0x11 {
		t.Fatal("fresh insert rejected")
	}
	// Same guard for metadata blocks, via invalidateFile.
	gen = c.snapshot()
	c.invalidateFile("f")
	c.putMeta("f", 0, layout.NewMetaBlock(layout.Default(), 0), gen)
	if c.getMeta("f", 0) != nil {
		t.Fatal("stale meta insert survived invalidateFile")
	}
}

// Re-creating a name must not inherit cached state from a removed
// file's old incarnation.
func TestCreateDropsOldIncarnationCache(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 64
	lfs := newFS(t, backend.NewMemStore(), cfg)

	old := bytes.Repeat([]byte{0x55}, 6*4096)
	if err := vfs.WriteAll(lfs, "f", old); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadAll(lfs, "f"); err != nil { // warm the cache
		t.Fatal(err)
	}
	if err := lfs.Remove("f"); err != nil {
		t.Fatal(err)
	}

	// New incarnation: shorter, different content, with a hole block
	// that must read as zeros — not as the old incarnation's 0x55s.
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3 * 4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 3*4096)) {
		t.Fatal("new incarnation read old incarnation's cached blocks")
	}
}

// The cache's and the pool's counts live only in their own counters
// (CacheStats, PoolStats), not in the Recorder's events, and a mount
// with a recorder attached still counts there.
func TestCacheStatsMatchRecorderEvents(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 32
	cfg.Recorder = metrics.New()
	lfs := newFS(t, backend.NewMemStore(), cfg)

	data := make([]byte, 50*4096)
	rand.New(rand.NewSource(13)).Read(data)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := vfs.ReadAll(lfs, "f"); err != nil {
			t.Fatal(err)
		}
	}
	if st := lfs.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("workload left CacheStats %+v, want hits and misses", st)
	}
	if ps := lfs.PoolStats(); ps.Batches == 0 {
		t.Fatal("workload produced no pool batches")
	}
}

// writeMeta must bump the invalidation generation on both sides of
// the backend write, closing the window where a reader re-reads the
// old bytes mid-write and re-installs them afterwards.
func TestWriteMetaBracketsInvalidation(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 32
	lfs := newFS(t, backend.NewMemStore(), cfg)
	if err := vfs.WriteAll(lfs, "f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f, err := lfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := lfs.cache.snapshot()
	// 7 of the 8 blocks are fresh and would batch further; Sync makes
	// the write exactly one commit.
	if _, err := f.WriteAt(make([]byte, 8*4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// One commit = 2 writeMeta calls (2 bumps each) + the phase-2
	// bracket (2 bumps): at least 6 generation bumps.
	if after := lfs.cache.snapshot(); after < before+6 {
		t.Fatalf("generation moved %d -> %d, want >= +6", before, after)
	}
}
