package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
	// An invalidation that lands while the put copies outside the lock,
	// between taking its entry and inserting it, drops it too.
	gen = c.snapshot()
	e := c.spare(cacheData, gen)
	c.invalidateData("f", 4)
	e.data = append(e.data[:0], 0xEE)
	c.insert(cacheKey{"f", cacheData, 4}, e, gen)
	if c.getData("f", 4, b[:]) {
		t.Fatal("insert survived an invalidation during its copy")
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

// Once the cache is full, a put fills the entry its last eviction
// retired, and a whole-file invalidation retires entries for the next
// puts: neither a data nor a metadata put allocates.
func TestCachePutEvictAllocs(t *testing.T) {
	c := newBlockCache(4)
	src := make([]byte, 4096)
	m := layout.NewMetaBlock(layout.Default(), 0)
	var i int64
	put := func() {
		c.putData("f", i%16, src, c.snapshot())
		c.putMeta("f", i%16, m, c.snapshot())
		i++
	}
	for range 32 {
		put()
	}
	if allocs := testing.AllocsPerRun(200, put); allocs != 0 {
		t.Fatalf("put with eviction allocates %.1f times per op, want 0", allocs)
	}
	refill := func() {
		for range 4 {
			put()
		}
		c.invalidateFile("f")
	}
	if allocs := testing.AllocsPerRun(50, refill); allocs != 0 {
		t.Fatalf("puts after invalidateFile allocate %.1f times per op, want 0", allocs)
	}
	checkCacheLinks(t, c)
}

// An entry a reader still holds when it leaves the cache is never
// handed to a later put: the reader's bytes stay as they were.
func TestCacheHeldEntryNotReused(t *testing.T) {
	c := newBlockCache(2)
	c.putData("f", 0, []byte{1, 1}, c.snapshot())
	held := c.acquire(cacheKey{"f", cacheData, 0})
	c.invalidateData("f", 0)
	for i := int64(1); i < 5; i++ { // evicts and reuses what it can
		c.putData("f", i, []byte{2, 2}, c.snapshot())
	}
	if !bytes.Equal(held.data, []byte{1, 1}) {
		t.Fatalf("held entry was reused: %v", held.data)
	}
	for _, s := range c.spares {
		for _, e := range s {
			if e == held {
				t.Fatal("held entry went on the spare list")
			}
		}
	}
	held.refs.Add(-1)
	checkCacheLinks(t, c)
}

// checkCacheLinks checks the cache's structure against its map: the
// LRU list and the per-file chains hold exactly the mapped entries, and
// neither the map nor a spare list holds more than cap entries.
func checkCacheLinks(t *testing.T, c *blockCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) > c.cap || len(c.spares[cacheData]) > c.cap || len(c.spares[cacheMeta]) > c.cap {
		t.Fatalf("%d entries and %d+%d spares over cap %d",
			len(c.m), len(c.spares[cacheData]), len(c.spares[cacheMeta]), c.cap)
	}
	n := 0
	for e := c.lru.next; e != &c.lru; e = e.next {
		if e.next.prev != e || c.m[e.key] != e {
			t.Fatalf("LRU list broken at %+v", e.key)
		}
		n++
	}
	if n != len(c.m) {
		t.Fatalf("LRU list holds %d entries, map %d", n, len(c.m))
	}
	n = 0
	for name, head := range c.files {
		if head == nil || head.fprev != nil {
			t.Fatalf("chain of %q has a bad head", name)
		}
		for e := head; e != nil; e = e.fnext {
			if e.key.name != name || c.m[e.key] != e || (e.fnext != nil && e.fnext.fprev != e) {
				t.Fatalf("chain of %q broken at %+v", name, e.key)
			}
			n++
		}
	}
	if n != len(c.m) {
		t.Fatalf("file chains hold %d entries, map %d", n, len(c.m))
	}
}

// Readers, writers and every invalidation on a 4-entry cache, so
// entries are evicted, retired and reused while readers copy out of
// them. A block's bytes are a pure function of (name, index, version),
// so a copy torn by a reuse, or an entry filled for another key, fails
// the check; under -race the detector sees any copy that overlaps a
// refill.
func TestCacheConcurrentReuse(t *testing.T) {
	const bs, idxs = 4096, 6
	names := []string{"a", "b"}
	geo := layout.Default()
	pattern := func(name string, idx int64, ver uint64, i int) byte {
		return byte(uint64(i)*31 + uint64(idx)*7 + ver*13 + uint64(name[0]))
	}
	fillData := func(buf []byte, name string, idx int64, ver uint64) {
		binary.LittleEndian.PutUint64(buf, ver)
		for i := 8; i < len(buf); i++ {
			buf[i] = pattern(name, idx, ver, i)
		}
	}
	fillMeta := func(m *layout.MetaBlock, name string, idx int64, ver uint64) {
		m.SegIndex, m.LogicalSize = uint64(idx), ver
		for s := range m.Slots {
			for j := range m.Slots[s] {
				m.Slots[s][j] = pattern(name, idx, ver, s*32+j)
			}
		}
	}
	iters := 3000
	if testing.Short() {
		iters = 1000
	}
	c := newBlockCache(4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	worker := func(seed int64, op func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range iters {
				if err := op(rng); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	pick := func(rng *rand.Rand) (string, int64) { return names[rng.Intn(len(names))], rng.Int63n(idxs) }
	for w := range 2 {
		buf := make([]byte, bs)
		worker(int64(w), func(rng *rand.Rand) error {
			name, idx := pick(rng)
			if !c.getData(name, idx, buf) {
				return nil
			}
			want := make([]byte, bs)
			fillData(want, name, idx, binary.LittleEndian.Uint64(buf))
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("getData(%s, %d) returned a torn or foreign block", name, idx)
			}
			return nil
		})
		src := make([]byte, bs)
		worker(int64(10+w), func(rng *rand.Rand) error {
			name, idx := pick(rng)
			gen := c.snapshot()
			fillData(src, name, idx, rng.Uint64())
			c.putData(name, idx, src, gen)
			return nil
		})
	}
	worker(20, func(rng *rand.Rand) error {
		name, idx := pick(rng)
		got := c.getMeta(name, idx)
		if got == nil {
			return nil
		}
		want := layout.NewMetaBlock(geo, 0)
		fillMeta(want, name, idx, got.LogicalSize)
		if !reflect.DeepEqual(got.Slots, want.Slots) || got.SegIndex != uint64(idx) {
			return fmt.Errorf("getMeta(%s, %d) returned a torn or foreign block", name, idx)
		}
		return nil
	})
	m := layout.NewMetaBlock(geo, 0)
	worker(21, func(rng *rand.Rand) error {
		name, idx := pick(rng)
		gen := c.snapshot()
		fillMeta(m, name, idx, rng.Uint64())
		c.putMeta(name, idx, m, gen)
		return nil
	})
	worker(30, func(rng *rand.Rand) error {
		name, idx := pick(rng)
		switch rng.Intn(8) {
		case 0:
			c.invalidateFile(name)
		case 1:
			c.invalidateMeta(name, idx)
		case 2:
			c.invalidateDataBlocks(name, []int64{idx, (idx + 1) % idxs})
		case 3:
			c.invalidateData(name, idx)
		default:
			runtime.Gosched()
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkCacheLinks(t, c)
}
