// Package core implements the Lamassu encryption engine — the paper's
// primary contribution (§2): a transparent shim that sits between an
// application and an untrusted backing store, applying block-oriented
// convergent encryption so that a downstream deduplicating storage
// system can still deduplicate the ciphertext, while embedding all
// cryptographic metadata inside each file's own data stream.
//
// The package provides:
//
//   - FS / file: a vfs.FS implementation ("LamassuFS") over any
//     backend.Store, using the segment layout of internal/layout.
//   - The two-tier encryption model (§2.2): per-block convergent keys
//     CEKey = E_AES(Kin, SHA256(block)) with AES-256-CBC and a fixed
//     IV for data; AES-256-GCM under Kout with random nonces for the
//     embedded metadata blocks.
//   - The multiphase commit protocol with R-slot write batching
//     (§2.4) in commit.go and the multi-block read that mirrors it in
//     file.go — one pipeline each, described below.
//   - Crash recovery and integrity auditing (§2.4–2.5) in recover.go:
//     one segment walk, shared with key rotation, that reads each
//     segment's keyed slots as planned extents and judges every slot
//     with one verdict (slotVerdict); a read of a segment caught
//     mid-update asks the same walk reader (verdicts) about its slots.
//   - Key rotation (§2.2) — both full re-keying and the fast partial
//     outer-key-only re-key — in rekey.go.
//
// One pipeline: a commit is always derive keys → encode → phase 1 →
// write the planned extents → phase 3 (commitSegment), and a
// multi-block read is serve from memory → plan extents over what is
// left → fetch each (readSpans). Both ask one planner (planExtents)
// which stored bytes are contiguous and dispatch its extents under one
// rule (runWindowed, on the mount's I/O window). Raw or compressed, sharded or not are
// parameters of that pipeline, not engines of their own:
//
//	mode        extent rule                     payload per block
//	raw         merge full-slot neighbours      BlockSize
//	compressed  same; short block ends extent   stored length
//	sharded     also split at stripe edges      unchanged
//
// A batch costs extents+2 backing I/Os, and batching is bounded by the
// R transient slots only live overwrites consume. On a workload with no
// adjacency every block is its own extent, and that is the paper's cost
// model: a batch of m blocks costs m+2.
//
// Concurrency: an FS and its handles may be shared freely. Positional
// reads and writes on one handle run concurrently; per-segment locks
// serialize writes into — and the multiphase commit of — each
// individual segment, so readers never observe a half-committed
// segment and commits of distinct segments overlap — on a window of
// more than one slot also with the writer, whose commits run their
// backend writes behind it (writebehind.go). Per-block CPU work (key
// derivation, encryption, decode) fans out across a bounded worker pool
// (Config.Parallelism), and every backend data I/O runs on a bounded
// I/O window (Config.IOWindow), without altering the §2.4 metadata
// barriers; an optional per-FS LRU cache
// (Config.CacheBlocks) serves verified plaintext and decoded metadata
// to repeated reads; block scratch cycles through a sync.Pool slab
// allocator so the steady-state hot paths stay allocation-free. Lock
// order inside a handle is
// opMu → segment.mu → extendMu → stateMu, with the cache's internal mutex as
// a leaf (a pool batch takes a helper slot only if one is free now, so
// nothing waits on the pool). Each file still assumes a single
// writing handle at a time (the FUSE prototype's single-mount
// assumption); see the file struct in file.go for the details.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

// IntegrityMode selects the read-path integrity checking level (§4.2).
type IntegrityMode int

const (
	// IntegrityFull re-hashes every decrypted data block and compares
	// the derived key with the stored key — the paper's default
	// "LamassuFS" configuration.
	IntegrityFull IntegrityMode = iota
	// IntegrityMetaOnly verifies only metadata blocks (AES-GCM tags),
	// skipping the per-data-block hash check — the paper's
	// "LamassuFS(meta-only)" configuration, which trades a little
	// security for a large read-throughput gain on fast storage.
	IntegrityMetaOnly
)

// String returns the paper's label for the mode.
func (m IntegrityMode) String() string {
	switch m {
	case IntegrityFull:
		return "full"
	case IntegrityMetaOnly:
		return "meta-only"
	default:
		return fmt.Sprintf("IntegrityMode(%d)", int(m))
	}
}

// Errors reported by the engine.
var (
	// ErrIntegrity reports a data block whose contents do not match
	// its stored convergent key (detected corruption, §2.5).
	ErrIntegrity = errors.New("lamassu: data block integrity check failed")
	// ErrUnrecoverable reports a segment that cannot be repaired after
	// a crash (for example a torn data-block write, which the paper's
	// model explicitly does not defend against).
	ErrUnrecoverable = errors.New("lamassu: segment is unrecoverable")
	// ErrReadOnly is returned by mutations on read-only handles.
	ErrReadOnly = errors.New("lamassu: file opened read-only")
	// ErrCanceled reports an operation abandoned because its context
	// was canceled or its deadline expired (wrapping the context's own
	// error). It is the backend sentinel, re-exported so every layer
	// returns one value.
	ErrCanceled = backend.ErrCanceled
	// ErrClosed reports an operation on a closed handle.
	ErrClosed = backend.ErrClosed
)

// Config configures a Lamassu file system instance.
type Config struct {
	// Geometry is the block/segment layout; the zero value selects
	// the paper's default (4096-byte blocks, R=8).
	Geometry layout.Geometry
	// Inner is Kin, the secret key mixed into convergent key
	// derivation. It defines the deduplication isolation zone.
	Inner cryptoutil.Key
	// Outer is Kout, the key sealing embedded metadata blocks. It
	// defines the trust domain.
	Outer cryptoutil.Key
	// Integrity selects the read-path integrity level.
	Integrity IntegrityMode
	// Recorder, when non-nil, accumulates the Figure 9 latency
	// breakdown (Encrypt / Decrypt / GetCEKey / I/O / Misc).
	Recorder *metrics.Recorder
	// KeyDeriver, when non-nil, replaces the local convergent KDF
	// (CEKey = E_AES(Kin, H(block))) with an external derivation —
	// for example the DupLESS server-aided blind-signature OPRF in
	// internal/dupless. The deriver must be deterministic in the hash
	// or deduplication (and decryption!) breaks. Note the paper's
	// §1 warning: a networked deriver costs a round trip per block on
	// both the write path and the full-integrity read path.
	KeyDeriver func(cryptoutil.Hash) (cryptoutil.Key, error)
	// Parallelism bounds the goroutines the FS uses for per-block CPU
	// work — convergent key derivation, block encryption and decode:
	// Parallelism−1 helper lanes per mount, plus each caller, which
	// runs its own batch. The pool issues no backend writes; those run
	// on the I/O window (IOWindow). 0 selects GOMAXPROCS; 1 runs the
	// CPU work on the calling goroutine. The paper's serial prototype is
	// Parallelism 1 with IOWindow 1. The multiphase metadata barriers
	// (§2.4) are unchanged at any setting.
	Parallelism int
	// CacheBlocks is the capacity, in blocks, of the per-FS LRU cache
	// of verified plaintext data blocks and decoded metadata blocks.
	// 0 disables the cache — the paper's configuration, in which every
	// read pays backend I/O plus decryption.
	CacheBlocks int
	// Readahead is the number of blocks the sequential-read detector
	// prefetches asynchronously into the block cache when consecutive
	// ReadAt calls form a forward scan. 0 disables readahead; New
	// rejects it without CacheBlocks > 0 (the prefetched plaintext has
	// nowhere else to live).
	Readahead int
	// Compression enables the deterministic compress-then-encrypt
	// encode stage (the paper's encode = encrypt(compress(input))):
	// each committed data block is DEFLATE-compressed at a pinned
	// level, encrypted under the convergent key of its RAW plaintext
	// (so dedup of identical plaintext is preserved), and written as a
	// prefix of its fixed block slot — addressing and the §2.4 commit
	// barriers are unchanged, only the bytes per backend call shrink.
	// The stored length lives in a length table carved from the
	// reserved slots (layout.FlagCompressed); blocks the compressor
	// cannot shrink by at least one layout.LenUnit granule are stored
	// verbatim (raw escape), so a compressed mount never writes more
	// bytes than a raw one. Off (the default) is byte-identical to the
	// pre-compression engine; segments written by a compressed mount
	// remain readable either way, because the codec always understands
	// both modes. Requires Geometry.CompressionGeometryOK.
	Compression bool
	// IOWindow bounds the number of backend I/O operations the FS
	// keeps in flight at once, independent of Parallelism's CPU
	// budget — the pipelining knob for high-latency stores, where the
	// useful number of outstanding requests is set by the link's
	// latency×bandwidth product rather than by core count. 0 (the
	// default) selects 32 slots (defaultIOWindow); 1 serializes backend
	// I/O, the A/B baseline. Commits and reads, sharded or not, dispatch
	// their extents on the window (runWindowed), and the window alone
	// bounds the requests in flight per mount, however many handles are
	// busy. The window changes scheduling only: the §2.4 phase barriers
	// remain hard synchronization points (the serialized metadata
	// barrier writes bypass the window), the on-disk bytes are
	// identical at every setting, and commit errors keep the
	// deterministic lowest-index-wins semantics.
	//
	// A window of more than one slot also runs the backend writes of a
	// commit a write triggers behind the writer (write-behind,
	// writebehind.go), at most IOWindow such commits per mount; where
	// their errors surface is vfs.File's write-back contract. A
	// one-slot window runs every commit inside the call that triggers
	// it.
	IOWindow int
}

// shardedStore is the optional interface of a backing store that
// stripes data across several independent shards (internal/shard's
// Store). The FS only consumes it — declaring the seam here keeps
// core free of a dependency on the shard package — and uses it only
// to split extents at stripe edges, so each backend call lands on one
// owner group. Which shard owns an extent, and every per-shard count,
// is the store's alone.
type shardedStore interface {
	// StripeBytes returns the placement granularity: offsets within
	// one stripe share an owner group, and <= 0 means the whole file
	// shares one.
	StripeBytes() int64
}

// FS is a Lamassu file system over a backing store.
type FS struct {
	store backend.Store
	geo   layout.Geometry
	cfg   Config
	pool  *pool
	cache *blockCache
	// slabs recycles block-granular scratch buffers across the read,
	// write and commit hot paths.
	slabs *slabPool
	// ced is the inner-key convergent KDF with its AES schedule
	// expanded once; nil when an external KeyDeriver is configured.
	ced *cryptoutil.CEKeyDeriver
	// sealer is Equation 3's GCM under the outer key, built once.
	sealer *cryptoutil.MetaSealer
	// sharded is non-nil when store stripes across shards; extents
	// then split at its stripe edges.
	sharded shardedStore
	// iow caps concurrently outstanding backend I/O (Config.IOWindow).
	iow *ioWindow
}

// New validates cfg and returns a Lamassu FS over store.
func New(store backend.Store, cfg Config) (*FS, error) {
	if cfg.Geometry == (layout.Geometry{}) {
		cfg.Geometry = layout.Default()
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Inner.IsZero() || cfg.Outer.IsZero() {
		return nil, errors.New("lamassu: inner and outer keys must be set")
	}
	if cfg.Inner.Equal(cfg.Outer) {
		return nil, errors.New("lamassu: inner and outer keys must differ")
	}
	if cfg.Parallelism < 0 {
		return nil, errors.New("lamassu: parallelism must be >= 0")
	}
	if cfg.CacheBlocks < 0 {
		return nil, errors.New("lamassu: cache capacity must be >= 0")
	}
	if cfg.Readahead < 0 {
		return nil, errors.New("lamassu: readahead must be >= 0")
	}
	if cfg.Readahead > 0 && cfg.CacheBlocks == 0 {
		return nil, errors.New("lamassu: readahead requires a block cache")
	}
	if cfg.IOWindow < 0 {
		return nil, errors.New("lamassu: I/O window must be >= 0")
	}
	if cfg.Compression {
		if err := cfg.Geometry.CompressionGeometryOK(); err != nil {
			return nil, err
		}
	}
	fs := &FS{
		store:  store,
		geo:    cfg.Geometry,
		cfg:    cfg,
		pool:   newPool(cfg.Parallelism),
		cache:  newBlockCache(cfg.CacheBlocks),
		slabs:  newSlabPool(cfg.Geometry.BlockSize, cfg.Geometry.KeysPerSegment(), cfg.Recorder),
		sealer: cryptoutil.NewMetaSealer(cfg.Outer),
		iow:    newIOWindow(cmp.Or(cfg.IOWindow, defaultIOWindow)),
	}
	if cfg.KeyDeriver == nil {
		fs.ced = cryptoutil.NewCEKeyDeriver(cfg.Inner)
	}
	fs.sharded, _ = store.(shardedStore)
	return fs, nil
}

// Geometry returns the instance's layout parameters.
func (fs *FS) Geometry() layout.Geometry { return fs.geo }

// Store returns the backing store the instance writes through.
func (fs *FS) Store() backend.Store { return fs.store }

// Integrity returns the configured integrity mode.
func (fs *FS) Integrity() IntegrityMode { return fs.cfg.Integrity }

// CacheStats returns a snapshot of the block cache's counters (all
// zero when the cache is disabled).
func (fs *FS) CacheStats() CacheStats { return fs.cache.stats() }

// PoolStats returns a snapshot of the commit worker pool's counters.
func (fs *FS) PoolStats() PoolStats { return fs.pool.stats() }

// InvalidateFile drops every cached block and decoded metadata entry
// of the named backing file. The online rebalance mover brackets each
// file's stripe relocation with it: the bytes are copied verbatim, so
// the cache STAYS coherent in principle, but the bracket guarantees a
// reader never mixes a cached pre-move view with post-move backing
// reads even if a copy is later found to have raced a writer.
func (fs *FS) InvalidateFile(name string) { fs.cache.invalidateFile(name) }

// Create implements vfs.FS.
func (fs *FS) Create(name string) (vfs.File, error) { return fs.CreateCtx(nil, name) }

// CreateCtx implements vfs.FS, threading ctx to the backing open and
// the size load.
func (fs *FS) CreateCtx(ctx context.Context, name string) (vfs.File, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenCreate)
	if err != nil {
		return nil, fmt.Errorf("lamassu: %w", err)
	}
	// The name may be a fresh incarnation of a removed file; cached
	// state from the old incarnation must not leak into the new one.
	fs.cache.invalidateFile(name)
	f, err := fs.newFile(ctx, bf, name, false)
	if err != nil {
		bf.Close()
		return nil, err
	}
	return f, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(name string) (vfs.File, error) { return fs.OpenCtx(nil, name) }

// OpenCtx implements vfs.FS.
func (fs *FS) OpenCtx(ctx context.Context, name string) (vfs.File, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenRead)
	if err != nil {
		return nil, mapErr(err)
	}
	f, err := fs.newFile(ctx, bf, name, true)
	if err != nil {
		bf.Close()
		return nil, err
	}
	return f, nil
}

// OpenRW implements vfs.FS.
func (fs *FS) OpenRW(name string) (vfs.File, error) { return fs.OpenRWCtx(nil, name) }

// OpenRWCtx implements vfs.FS.
func (fs *FS) OpenRWCtx(ctx context.Context, name string) (vfs.File, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenWrite)
	if err != nil {
		return nil, mapErr(err)
	}
	f, err := fs.newFile(ctx, bf, name, false)
	if err != nil {
		bf.Close()
		return nil, err
	}
	return f, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(name string) error { return fs.RemoveCtx(nil, name) }

// RemoveCtx implements vfs.FS.
func (fs *FS) RemoveCtx(ctx context.Context, name string) error {
	fs.cache.invalidateFile(name)
	return mapErr(backend.RemoveCtx(ctx, fs.store, name))
}

// List implements vfs.FS.
func (fs *FS) List() ([]string, error) { return fs.store.List() }

// ListCtx implements vfs.FS.
func (fs *FS) ListCtx(ctx context.Context) ([]string, error) {
	return backend.ListCtx(ctx, fs.store)
}

// Stat implements vfs.FS: it returns the file's logical size, read
// from the authoritative final metadata block (§2.3).
func (fs *FS) Stat(name string) (int64, error) { return fs.StatCtx(nil, name) }

// StatCtx implements vfs.FS.
func (fs *FS) StatCtx(ctx context.Context, name string) (int64, error) {
	bf, err := backend.OpenCtx(ctx, fs.store, name, backend.OpenRead)
	if err != nil {
		return 0, mapErr(err)
	}
	defer bf.Close()
	return fs.logicalSize(ctx, bf, name)
}

// logicalSize reads the authoritative size from a backing handle,
// consulting the decoded-meta cache.
func (fs *FS) logicalSize(ctx context.Context, bf backend.File, name string) (int64, error) {
	phys, err := bf.Size()
	if err != nil {
		return 0, err
	}
	if phys == 0 {
		return 0, nil
	}
	lastSeg := fs.lastSegment(phys)
	meta, err := fs.cachedMeta(ctx, bf, name, lastSeg)
	if err != nil {
		return 0, fmt.Errorf("lamassu: reading final metadata block: %w", err)
	}
	return int64(meta.LogicalSize), nil
}

// cachedMeta reads and decodes the metadata block of segment seg
// through the per-FS decoded-meta cache. Audit paths (Check, Recover,
// re-keying) bypass this and call readMeta directly so they always see
// the backing store.
func (fs *FS) cachedMeta(ctx context.Context, bf backend.File, name string, seg int64) (*layout.MetaBlock, error) {
	if m := fs.cache.getMeta(name, seg); m != nil {
		return m, nil
	}
	gen := fs.cache.snapshot()
	m, err := fs.readMeta(ctx, bf, seg)
	if err != nil {
		return nil, err
	}
	fs.cache.putMeta(name, seg, m, gen)
	return m, nil
}

// lastSegment computes the index of the final segment present in a
// backing file of the given physical size.
func (fs *FS) lastSegment(phys int64) int64 {
	bs := int64(fs.geo.BlockSize)
	blocks := (phys + bs - 1) / bs
	if blocks == 0 {
		return 0
	}
	segBlocks := int64(fs.geo.SegmentBlocks())
	return (blocks - 1) / segBlocks
}

// readMeta reads and decodes the metadata block of segment seg from a
// backing handle. A region that is entirely zero (a hole produced by
// sparse extension) decodes to an empty metadata block.
func (fs *FS) readMeta(ctx context.Context, bf backend.File, seg int64) (*layout.MetaBlock, error) {
	buf := fs.slabs.get(fs.geo.BlockSize)
	defer fs.slabs.put(buf)
	t := fs.cfg.Recorder.Start()
	err := backend.ReadFullCtx(ctx, bf, buf, fs.geo.MetaBlockOffset(seg))
	fs.cfg.Recorder.Stop(metrics.IO, t)
	fs.cfg.Recorder.CountIOBytes(int64(len(buf)))
	if err != nil {
		return nil, err
	}
	if allZero(buf) {
		m := layout.NewMetaBlock(fs.geo, uint64(seg))
		return m, nil
	}
	t = fs.cfg.Recorder.Start()
	m, err := layout.DecodeMetaBlock(fs.geo, buf, fs.sealer, uint64(seg))
	fs.cfg.Recorder.Stop(metrics.Decrypt, t)
	return m, err
}

// writeMeta encodes and writes a metadata block, dropping any cached
// decode of it around the write. The invalidation runs on BOTH sides
// of the WriteAt: the first drop covers readers that populated before
// the write began, and the second — bumping the generation again —
// covers a reader that missed, re-read the OLD on-disk bytes while
// the write was in flight, and would otherwise re-install them under
// a post-first-bump generation snapshot. The second drop runs even on
// error, when the on-disk state is unknown.
func (fs *FS) writeMeta(ctx context.Context, bf backend.File, name string, m *layout.MetaBlock) error {
	buf := fs.slabs.get(fs.geo.BlockSize)
	defer fs.slabs.put(buf)
	t := fs.cfg.Recorder.Start()
	err := m.Encode(buf, fs.sealer)
	fs.cfg.Recorder.Stop(metrics.Encrypt, t)
	if err != nil {
		return err
	}
	fs.cache.invalidateMeta(name, int64(m.SegIndex))
	t = fs.cfg.Recorder.Start()
	_, err = backend.WriteAtCtx(ctx, bf, buf, fs.geo.MetaBlockOffset(int64(m.SegIndex)))
	fs.cfg.Recorder.Stop(metrics.IO, t)
	fs.cfg.Recorder.CountIOBytes(int64(len(buf)))
	fs.cache.invalidateMeta(name, int64(m.SegIndex))
	return err
}

// deriveKeys computes the convergent keys of a group of at most
// cryptoutil.HashLanes plaintext blocks: one BlockHashes call into the
// caller's scratch hs (one array per call chain), then the KDF — one
// DeriveKeys pass for the group, or Config.KeyDeriver per hash when one
// is set. The group is charged to the paper's GetCEKey category once —
// its hashes (one multi-buffer pass when the group is large enough)
// plus the KDF, local or a server-aided round trip per block. On a KDF
// failure it returns the index of the failing block; the keys before
// it are set.
func (fs *FS) deriveKeys(keys []cryptoutil.Key, hs []cryptoutil.Hash, blocks [][]byte) (int, error) {
	t := fs.cfg.Recorder.Start()
	defer fs.cfg.Recorder.Stop(metrics.GetCEKey, t)
	h := hs[:len(blocks)]
	cryptoutil.BlockHashes(h, blocks)
	if fs.cfg.KeyDeriver == nil {
		fs.ced.DeriveKeys(keys[:len(h)], h)
		return 0, nil
	}
	for i := range h {
		k, err := fs.ceKey(h[i])
		if err != nil {
			return i, err
		}
		keys[i] = k
	}
	return 0, nil
}

// ceKey is the KDF of one block hash: the local CEKey = E_AES(Kin, h),
// or Config.KeyDeriver when one is set.
func (fs *FS) ceKey(h cryptoutil.Hash) (cryptoutil.Key, error) {
	if fs.cfg.KeyDeriver == nil {
		return fs.ced.Derive(h), nil
	}
	return fs.cfg.KeyDeriver(h)
}

// decryptBlock inverts the encryption encode applies to one block.
func (fs *FS) decryptBlock(dst, src []byte, key cryptoutil.Key) error {
	t := fs.cfg.Recorder.Start()
	err := cryptoutil.DecryptBlockCBC(dst, src, key)
	fs.cfg.Recorder.Stop(metrics.Decrypt, t)
	return err
}

// encode produces the stored payloads of a group of at most
// cryptoutil.HashLanes plaintext blocks — the mirror of decodeStored. dst
// holds one BlockSize-strided slot per block of src; block i's payload
// lands at the front of slot i under keys[i], and lens[i] is set to its
// length. For a raw segment that is the convergently encrypted block,
// BlockSize bytes. For a compressed segment each block is
// deterministically compressed into its slot, zero-padded to a
// layout.LenUnit granule and encrypted there, so its stored length is
// a positive multiple of LenUnit, at most one block. The key is derived
// from the RAW plaintext, so identical plaintext still yields identical
// ciphertext — dedup survives the stage. When a block does not shrink
// by at least one granule the raw escape stores it verbatim; its slot
// then holds exactly the bytes a raw segment would hold. The group is
// encrypted in one multi-buffer call; the encode is charged to Encrypt.
func (fs *FS) encode(dst []byte, src [][]byte, keys []cryptoutil.Key, lens []int, compressed bool) error {
	bs := fs.geo.BlockSize
	var in, out [cryptoutil.HashLanes][]byte
	t := fs.cfg.Recorder.Start()
	for i, block := range src {
		slot := dst[i*bs : (i+1)*bs]
		in[i], out[i], lens[i] = block, slot, bs
		if !compressed {
			continue
		}
		n, ok := cryptoutil.CompressBlock(slot[:bs-layout.LenUnit], block)
		// A compression is tens of µs, so a group holds its P for a few
		// hundred; yield after each one (off the Encrypt clock) so that
		// a backend completion which became runnable meanwhile is not
		// queued behind the rest of the group while every P encodes.
		// That is the scheduler's run queue, not the pool's: with no
		// pool queue left (lanes), dropping the yield took
		// objstore-seq-z2 from 34.7 to 25.6 MiB/s written (2-vCPU
		// Xeon, median of 8 runs; every run without it was slower).
		fs.cfg.Recorder.Stop(metrics.Encrypt, t)
		runtime.Gosched()
		t = fs.cfg.Recorder.Start()
		if !ok {
			fs.cfg.Recorder.CountEvent(metrics.RawEscape, 1)
			continue
		}
		stored := (n + layout.LenUnit - 1) / layout.LenUnit * layout.LenUnit
		clear(slot[n:stored])
		in[i], out[i], lens[i] = slot[:stored], slot[:stored], stored
		fs.cfg.Recorder.CountEvent(metrics.BlockCompressed, 1)
	}
	err := cryptoutil.EncryptBlocksCBC(out[:len(src)], in[:len(src)], keys)
	fs.cfg.Recorder.Stop(metrics.Encrypt, t)
	return err
}

// decodeStored decrypts and, for a compressed payload, decompresses
// one stored payload of storedBytes bytes into the full plaintext
// block dst. storedBytes == BlockSize means a raw block (identical to
// the uncompressed engine's decode); anything shorter is a framed
// compressed prefix. A frame that fails to inflate to exactly one
// block is corruption and maps to ErrIntegrity.
func (fs *FS) decodeStored(dst, ct []byte, key cryptoutil.Key, storedBytes int) error {
	bs := fs.geo.BlockSize
	if storedBytes == bs {
		return fs.decryptBlock(dst, ct[:bs], key)
	}
	scratch := fs.slabs.get(bs)
	defer fs.slabs.put(scratch)
	if err := fs.decryptBlock(scratch[:storedBytes], ct[:storedBytes], key); err != nil {
		return err
	}
	t := fs.cfg.Recorder.Start()
	err := cryptoutil.DecompressBlock(dst, scratch[:storedBytes])
	fs.cfg.Recorder.Stop(metrics.Decrypt, t)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	return nil
}

// verifyBlocks re-derives the convergent keys of a group of at most
// cryptoutil.HashLanes decrypted blocks and compares each with the key
// that was used (§2.5): hashed into hs as deriveKeys does, charged to
// GetCEKey as in the paper's Figure 9 instrumentation, and each key
// compared as it is derived. A deriver failure (e.g. an unreachable key
// server) fails the block. It returns the first failing index, or -1.
func (fs *FS) verifyBlocks(plains [][]byte, used []cryptoutil.Key, hs []cryptoutil.Hash) int {
	t := fs.cfg.Recorder.Start()
	defer fs.cfg.Recorder.Stop(metrics.GetCEKey, t)
	h := hs[:len(plains)]
	cryptoutil.BlockHashes(h, plains)
	for i := range h {
		if k, err := fs.ceKey(h[i]); err != nil || !k.Equal(used[i]) {
			return i
		}
	}
	return -1
}

func mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, backend.ErrNotExist) {
		return fmt.Errorf("lamassu: %w", vfs.ErrNotExist)
	}
	return fmt.Errorf("lamassu: %w", err)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
