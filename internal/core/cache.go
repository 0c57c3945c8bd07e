package core

import (
	"sync"
	"sync/atomic"

	"lamassu/internal/layout"
)

// blockCache is the per-FS LRU cache of verified plaintext data blocks
// and decoded metadata blocks, keyed by (file name, block index). It
// lets repeated reads skip the backend read, the AES-CBC decryption
// and the SHA-256 integrity re-hash (data blocks), or the AES-GCM open
// (metadata blocks).
//
// Coherence model: an entry is inserted only after the block was read
// from the backing store and passed verification, and every path that
// changes on-disk state — commit, truncate, re-key, recovery, remove —
// invalidates the affected entries before or at the point the store
// changes. Inserts are generation-guarded: a reader snapshots the
// cache generation before it touches the backing store, and the insert
// is dropped if any invalidation ran in between, so a read that raced
// a commit can never re-install pre-commit bytes after the
// invalidation already happened. Together with the engine's
// single-writer-per-file assumption (see the package comment), a hit
// therefore always returns the bytes a fresh backend read would have
// produced.
//
// Steady-state puts allocate nothing. An entry that leaves the cache —
// evicted, replaced or invalidated — keeps its block buffer (or its
// decoded metadata block) and goes on its kind's spare list, and the
// next put of that kind fills a spare instead of allocating a buffer
// and an entry. A new entry is made only when its kind's list is
// empty, so entries and spares of a kind never outnumber the most
// entries of that kind the cache held at once (each list is also
// capped at cap). The LRU list and a per-file chain
// (which lets invalidateFile visit only that file's entries) run
// through the entries themselves. The reuse rule: a reader takes a
// reference to an entry under mu and copies out of it after unlocking,
// and an entry goes on the spare list only if no reference is held at
// the moment it leaves the cache under mu; one still being read is
// left to the garbage collector instead. A spare is taken under mu,
// filled outside it, and inserted under mu.
//
// Every block copy — into an entry and out of one — stays outside mu.
// Copying 4 KiB under the one mutex was measured on local-rand (2
// vCPUs): read_p50_ms fell 13 %, but read_mibps fell 15 % and
// write_mibps 22 %, ops slower than 1 ms went from ≈ 100 to ≈ 1000 a
// run and p99.9 from 0.14 ms to 2–4 ms; an execution trace put 2.25 s
// of scheduler latency at the mutex's unlock under putData, a
// starvation-mode handoff behind a descheduled holder.
//
// All methods are safe for concurrent use and are no-ops on a nil
// *blockCache, so a disabled cache costs one nil check on the read
// path.
type blockCache struct {
	mu  sync.Mutex
	cap int
	lru cacheEntry // list root: lru.next is the most recently used
	m   map[cacheKey]*cacheEntry
	// files maps a name to the head of its per-file chain.
	files map[string]*cacheEntry
	// spares holds retired entries by kind, with their buffers, for
	// reuse; each list at most cap.
	spares [2][]*cacheEntry
	// gen counts invalidations (bumped under mu, read lock-free by
	// snapshot). Global rather than per-name: a put rejected because an
	// unrelated file invalidated concurrently is only a skipped
	// optimization, and the counter costs no per-name state.
	gen atomic.Uint64

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKind uint8

const (
	cacheData cacheKind = iota
	cacheMeta
)

// cacheKey addresses one cached block: a data block by its logical
// data-block index, a metadata block by its segment index.
type cacheKey struct {
	name string
	kind cacheKind
	idx  int64
}

type cacheEntry struct {
	key  cacheKey
	data []byte            // cacheData: plaintext block (len BlockSize)
	meta *layout.MetaBlock // cacheMeta: decoded block (private copy)
	// prev and next link the LRU list, fprev and fnext the file's
	// chain; all four are guarded by mu.
	prev, next   *cacheEntry
	fprev, fnext *cacheEntry
	// refs counts readers copying out of the entry. It rises only
	// under mu, while the entry is in the cache, and falls after the
	// copy without it.
	refs atomic.Int32
}

// newBlockCache returns a cache holding up to capBlocks entries (data
// and metadata blocks each count as one), or nil when capBlocks <= 0.
func newBlockCache(capBlocks int) *blockCache {
	if capBlocks <= 0 {
		return nil
	}
	c := &blockCache{
		cap:   capBlocks,
		m:     make(map[cacheKey]*cacheEntry, capBlocks),
		files: make(map[string]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// getData copies the cached plaintext of data block dbi into dst and
// reports whether it was present. The copy happens outside the cache
// lock, under the entry's reference, so concurrent hits don't
// serialize on the memcpy.
func (c *blockCache) getData(name string, dbi int64, dst []byte) bool {
	if c == nil {
		return false
	}
	e := c.acquire(cacheKey{name, cacheData, dbi})
	if e == nil {
		return false
	}
	copy(dst, e.data)
	e.refs.Add(-1)
	return true
}

// getMeta returns a private copy of the cached decoded metadata block
// of segment seg, or nil. As in getData, the clone happens outside
// the lock.
func (c *blockCache) getMeta(name string, seg int64) *layout.MetaBlock {
	if c == nil {
		return nil
	}
	e := c.acquire(cacheKey{name, cacheMeta, seg})
	if e == nil {
		return nil
	}
	m := e.meta.Clone()
	e.refs.Add(-1)
	return m
}

// acquire looks key up, marks it most recently used and returns it
// with a reference taken, or nil on a miss; it counts the lookup.
func (c *blockCache) acquire(key cacheKey) *cacheEntry {
	c.mu.Lock()
	e := c.m[key]
	if e != nil {
		if c.lru.next != e {
			c.unlinkLRU(e)
			c.pushFront(e)
		}
		e.refs.Add(1)
	}
	c.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e
}

// snapshot returns the current invalidation generation; pass it to
// putData/putMeta so an insert racing an invalidation is dropped.
func (c *blockCache) snapshot() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// putData stores a copy of the verified plaintext of data block dbi,
// unless the cache generation moved past gen since the caller's
// snapshot (the block may have been rewritten while it was being
// read).
func (c *blockCache) putData(name string, dbi int64, src []byte, gen uint64) {
	if c == nil {
		return
	}
	e := c.spare(cacheData, gen)
	if e == nil {
		return
	}
	e.data = append(e.data[:0], src...)
	c.insert(cacheKey{name, cacheData, dbi}, e, gen)
}

// putMeta stores a private copy of the decoded metadata block of
// segment seg, under the same generation guard as putData.
func (c *blockCache) putMeta(name string, seg int64, m *layout.MetaBlock, gen uint64) {
	if c == nil {
		return
	}
	e := c.spare(cacheMeta, gen)
	if e == nil {
		return
	}
	e.meta = m.CloneInto(e.meta)
	c.insert(cacheKey{name, cacheMeta, seg}, e, gen)
}

// spare returns an entry of kind to fill outside the lock — a retired
// one when there is one, else a new one — or nil when an invalidation
// already ran past gen, so the put need not copy at all.
func (c *blockCache) spare(kind cacheKind, gen uint64) *cacheEntry {
	c.mu.Lock()
	if c.gen.Load() != gen {
		c.mu.Unlock()
		return nil
	}
	var e *cacheEntry
	if s := c.spares[kind]; len(s) > 0 {
		e = s[len(s)-1]
		s[len(s)-1] = nil
		c.spares[kind] = s[:len(s)-1]
	}
	c.mu.Unlock()
	if e == nil {
		e = new(cacheEntry)
	}
	return e
}

// insert links the filled entry e under key, evicting from the LRU
// tail past cap, unless an invalidation ran past gen.
func (c *blockCache) insert(key cacheKey, e *cacheEntry, gen uint64) {
	e.key = key
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		// An invalidation ran after the caller read the backing store;
		// its bytes may predate that change. Skipping the insert is
		// always safe — the next read re-fetches.
		c.recycle(e)
		return
	}
	if old := c.m[key]; old != nil {
		c.retire(old)
	}
	c.m[key] = e
	c.pushFront(e)
	head := c.files[key.name]
	e.fprev, e.fnext = nil, head
	if head != nil {
		head.fprev = e
	}
	c.files[key.name] = e
	for len(c.m) > c.cap {
		c.retire(c.lru.prev)
	}
}

func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev = e
	c.lru.next = e
}

func (c *blockCache) unlinkLRU(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// retire removes e from the cache: the map, the LRU list and its
// file's chain. The caller holds mu.
func (c *blockCache) retire(e *cacheEntry) {
	switch {
	case e.fprev != nil:
		e.fprev.fnext = e.fnext
	case e.fnext != nil:
		c.files[e.key.name] = e.fnext
	default:
		delete(c.files, e.key.name)
	}
	if e.fnext != nil {
		e.fnext.fprev = e.fprev
	}
	e.fprev, e.fnext = nil, nil
	c.drop(e)
}

// drop removes e, already out of its file's chain, from the map and
// the LRU list and recycles it. The caller holds mu.
func (c *blockCache) drop(e *cacheEntry) {
	delete(c.m, e.key)
	c.unlinkLRU(e)
	c.recycle(e)
}

// recycle puts an entry that has left the cache on the spare list of
// its kind, unless a reader still holds it (it is then left to the
// garbage collector) or the list is full. The caller holds mu.
func (c *blockCache) recycle(e *cacheEntry) {
	kind := e.key.kind
	if e.refs.Load() != 0 || len(c.spares[kind]) >= c.cap {
		return
	}
	e.key.name = ""
	c.spares[kind] = append(c.spares[kind], e)
}

// invalidateData drops the entry for data block dbi, if present.
func (c *blockCache) invalidateData(name string, dbi int64) {
	c.invalidate(cacheKey{name, cacheData, dbi})
}

// invalidateDataBlocks drops the entries for a batch of data blocks in
// one critical section with a single generation bump (a commit calls
// this once for its whole batch rather than once per block).
func (c *blockCache) invalidateDataBlocks(name string, dbis []int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	for _, dbi := range dbis {
		if e := c.m[cacheKey{name, cacheData, dbi}]; e != nil {
			c.retire(e)
		}
	}
	c.mu.Unlock()
}

// invalidateMeta drops the entry for segment seg's metadata block.
func (c *blockCache) invalidateMeta(name string, seg int64) {
	c.invalidate(cacheKey{name, cacheMeta, seg})
}

func (c *blockCache) invalidate(key cacheKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	if e := c.m[key]; e != nil {
		c.retire(e)
	}
	c.mu.Unlock()
}

// invalidateFile drops every entry belonging to name — used by the
// whole-file mutators (truncate, re-key, recovery, remove). It walks
// name's chain only, not the whole cache.
func (c *blockCache) invalidateFile(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	e := c.files[name]
	if e != nil {
		delete(c.files, name)
	}
	for e != nil {
		next := e.fnext
		e.fprev, e.fnext = nil, nil
		c.drop(e)
		e = next
	}
	c.mu.Unlock()
}

// CacheStats is a snapshot of the block cache's counters.
type CacheStats struct {
	// Capacity is the configured maximum number of entries (0 when the
	// cache is disabled).
	Capacity int
	// Entries is the current number of cached blocks.
	Entries int
	// Hits and Misses count lookups since the FS was created.
	Hits, Misses int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// stats returns the current counters.
func (c *blockCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	return CacheStats{
		Capacity: c.cap,
		Entries:  entries,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
}
