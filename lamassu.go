// Package lamassu is the public API of this repository's
// reproduction of
//
//	Lamassu: Storage-Efficient Host-Side Encryption
//	Peter Shah and Won So (NetApp), USENIX ATC 2015.
//
// Lamassu is a transparent, host-side ("data-source") encryption shim
// that preserves block-level deduplication on the downstream storage
// system. It encrypts each 4 KiB data block with a convergent key
// derived from the block's own content and a shared secret inner key,
// so identical plaintext blocks written anywhere in the same isolation
// zone become identical ciphertext blocks — which an untrusted,
// deduplicating store can reclaim without being able to read them.
// All cryptographic metadata (the per-block keys) is embedded in
// reserved, block-aligned sections of each file's own data stream,
// sealed with AES-256-GCM under a second outer key, so no side-car
// key database is needed and ordinary file tools can copy, replicate
// or migrate encrypted files intact.
//
// # Quick start
//
//	keys, _ := lamassu.GenerateKeys()
//	m, _ := lamassu.New(lamassu.NewMemStorage(), keys)
//	f, _ := m.Create("hello.txt")
//	f.WriteAt([]byte("hello, deduplicating world"), 0)
//	f.Close()
//
// New is the one constructor; the With* functional options configure
// it. See the examples/ directory for complete programs: a
// quickstart, a multi-tenant isolation-zone demo over a shared
// deduplicating store, a crash-recovery walkthrough, a Table-1-style
// VM-image backup scenario, and a context-cancellation walkthrough.
//
// # Contexts and cancellation (API v2)
//
// Every Mount operation has a *Ctx variant, and File carries
// ReadAtCtx/WriteAtCtx/SyncCtx; the context flows through every layer
// down to the backing store (including the shard router and the NFS
// simulator's round-trip waits). Cancellation is observed only BETWEEN
// backend operations — between blocks, runs, segments and commit
// phases, never inside a single write — so a canceled multiphase
// commit is indistinguishable from a crash cut at a write boundary:
// the operation returns an error wrapping both ErrCanceled and the
// context's own error, every previously committed byte remains
// readable, and the §2.4 recovery protocol (run implicitly by the next
// commit, or explicitly via Recover) repairs the interrupted segment.
// Retrying the canceled Sync/WriteAt with a live context converges
// without rewriting what already landed. A nil context — and every
// plain (non-Ctx) method — preserves the pre-v2 behavior byte for
// byte.
//
// # Std-lib interop
//
// A File is an io.Reader, io.Writer, io.Seeker, io.ReaderAt,
// io.WriterAt and io.Closer, so handles plug directly into io.Copy,
// bufio and friends. Mount.FS exposes a read-only io/fs.FS view of the
// mount (passing testing/fstest.TestFS), for code written against the
// standard file-system interfaces.
//
// # Concurrency
//
// A Mount is safe for concurrent use by any number of goroutines, and
// so is every File it returns. The engine behind a handle is
// parallel: positional reads and writes run concurrently, a segment's
// multiphase commit fans its per-block key derivation and encryption
// across a bounded worker pool (Options.Parallelism) and its backend
// writes across the bounded I/O window (Options.IOWindow), and commits
// of different segments proceed independently. What is
// serialized, and why:
//
//   - Writes that land in the same segment — and a read of a segment
//     with a commit of that same segment — take turns on a per-segment
//     lock, so a reader never observes a half-committed segment.
//   - Truncate, Sync and Close drain all in-flight I/O on that handle
//     first.
//   - The §2.4 metadata barriers are preserved at any parallelism: no
//     data block is written before the phase-1 metadata write
//     completes, and phase 3 begins only after every data write has
//     returned, so crash recovery is unchanged.
//
// One rule carries over from the paper's FUSE prototype: each file has
// a single writing handle at a time (goroutines sharing that one
// handle are fine). Opening two write handles to the same name, or
// writing a store behind an active Mount's back (e.g. copying backing
// files into it), is outside the model — reads through other handles
// and mounts may then return stale data, particularly with the block
// cache enabled.
//
// The optional per-mount cache (Options.CacheBlocks) holds verified
// plaintext data blocks and decoded metadata blocks; hits skip backend
// I/O, AES and the integrity re-hash. Every mutating path — commit,
// truncate, re-key, recovery, remove — invalidates the affected
// entries before the backing store changes, so under the single-writer
// rule a hit always equals a fresh verified read.
package lamassu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/backend/objstore"
	"lamassu/internal/core"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/namecrypt"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

// Key is a 256-bit secret key.
type Key = cryptoutil.Key

// KeyPair bundles an isolation zone's two secrets: the inner key Kin
// (defining the deduplication domain) and the outer key Kout (defining
// the trust domain).
type KeyPair struct {
	Inner Key
	Outer Key
}

// GenerateKeys returns a fresh random key pair from crypto/rand.
func GenerateKeys() (KeyPair, error) {
	inner, err := cryptoutil.NewRandomKey()
	if err != nil {
		return KeyPair{}, err
	}
	outer, err := cryptoutil.NewRandomKey()
	if err != nil {
		return KeyPair{}, err
	}
	return KeyPair{Inner: inner, Outer: outer}, nil
}

// KeysFromBytes builds a pair from raw 32-byte secrets.
func KeysFromBytes(inner, outer []byte) (KeyPair, error) {
	in, err := cryptoutil.KeyFromBytes(inner)
	if err != nil {
		return KeyPair{}, err
	}
	out, err := cryptoutil.KeyFromBytes(outer)
	if err != nil {
		return KeyPair{}, err
	}
	return KeyPair{Inner: in, Outer: out}, nil
}

// Storage is the backing-store interface a Mount writes through; the
// encrypted backing files it holds are ordinary flat files.
type Storage = backend.Store

// File is an open handle with synchronous positional I/O. Sizes and
// offsets are logical (plaintext) positions; the embedded metadata is
// invisible through this interface.
type File = vfs.File

// Integrity selects the read-path integrity level (paper §4.2).
type Integrity int

const (
	// IntegrityFull verifies every data block against its convergent
	// key on read (the default).
	IntegrityFull Integrity = iota
	// IntegrityMetaOnly verifies only metadata blocks (AES-GCM),
	// trading the per-block hash check for read throughput.
	IntegrityMetaOnly
)

// Options is what the With* options set on a Mount (and the geometry
// SegmentStripeBytes reads). The zero value selects the paper's
// defaults: 4096-byte blocks, R = 8 reserved slots, full integrity.
type Options struct {
	// BlockSize is the cipher/layout block size in bytes.
	BlockSize int
	// ReservedSlots is R, the number of transient key slots per
	// metadata block; it bounds write batching and sets the space
	// overhead (see Figures 10 and 11).
	ReservedSlots int
	// Integrity selects the read-path verification level.
	Integrity Integrity
	// CollectLatency enables the Figure 9 latency-breakdown
	// instrumentation, retrievable via Mount.Latency.
	CollectLatency bool
	// EncryptNames additionally encrypts file and directory names on
	// the backing store (deterministic SIV-style, per path segment) —
	// the extension the paper defers to future work in §2.1. The name
	// key is derived from the zone's outer key, so clients of one
	// trust domain resolve names identically.
	EncryptNames bool
	// KeyDeriver, when non-nil, replaces the local convergent KDF
	// with an external derivation such as the DupLESS server-aided
	// OPRF (internal/dupless; see examples/server-aided-keys). It
	// must be deterministic in the block hash. Expect a severe
	// performance cost per block (the paper's §1 objection).
	KeyDeriver func(hash [32]byte) (Key, error)
	// Parallelism bounds the worker goroutines used for per-block CPU
	// work (key derivation, encryption, decode). The pool issues no
	// backend writes: those run on the I/O window (IOWindow). 0 selects
	// GOMAXPROCS; 1 runs the CPU work on the calling goroutine. The
	// paper's fully serial engine is Parallelism 1 with IOWindow 1.
	Parallelism int
	// CacheBlocks sizes the per-mount LRU cache of verified plaintext
	// data blocks and decoded metadata blocks, in blocks (data and
	// metadata entries each count as one). 0 disables caching — the
	// paper's configuration. See the package comment for the cache's
	// coherence rules.
	CacheBlocks int
	// Readahead is the number of blocks the sequential-read detector
	// prefetches asynchronously into the block cache when consecutive
	// reads form a forward scan. 0 disables readahead; New rejects it
	// without CacheBlocks > 0.
	Readahead int
	// Retry, when non-nil, gives every backend operation bounded
	// retries of transient failures in the attempt layer that wraps
	// each physical store (each shard of a sharded deployment, and
	// stores joining it later) — see RetryPolicy and WithRetry. Nil
	// disables retries: every backend error surfaces on first
	// occurrence.
	Retry *RetryPolicy
	// IOWindow bounds the number of backend I/O operations the engine
	// keeps in flight at once, independent of Parallelism's CPU
	// budget — the pipelining knob for high-latency stores
	// (NewMemObjectStorage), where useful concurrency is set by the
	// link's latency×bandwidth product rather than core count.
	// Independent runs of one read and the data writes of one
	// commit batch then overlap on the wire, sharded or not, and the
	// window alone bounds the engine operations outstanding per mount:
	// every handle's reads and commits share its slots. One operation
	// is one extent read or write; a write to a store replicated R ways
	// (ShardOptions.Replicas) reaches its R owners together on the slot
	// it holds, so leaf stores see at most IOWindow × R write requests
	// at once.
	// 0 (the default) selects a window of 32; 1 serializes backend
	// I/O, the A/B baseline. The default depth counts requests, not
	// cores: 8 readers on a store with 1 ms of latency keep 12–13 in
	// flight. The §2.4 phase barriers remain hard synchronization
	// points at any setting and the backing bytes are identical.
	// A window of more than one slot also takes commits off the
	// writer's critical path: a WriteAt that fills a batch waits for its
	// encode only, and the commit's backend writes run behind it, at
	// most IOWindow commits per mount. Sync, Truncate and Close wait for
	// them; where a failed one surfaces is vfs.File's write-back
	// contract (the handle's next WriteAt, Sync, Truncate or Close).
	// A window of 1 runs every commit inside the call that triggers it.
	IOWindow int
	// Hedge, when non-nil, turns each read attempt in the same attempt
	// layer into a race: a read outstanding longer than a high quantile
	// of the store's observed read latency is duplicated, the first
	// usable response wins, and the loser is canceled. Reads only; see
	// HedgePolicy and WithHedgedReads. Nil disables hedging.
	Hedge *HedgePolicy
	// Compression enables deterministic per-block compression in the
	// encode path: each block is compressed with fixed encoder settings,
	// then encrypted under the convergent key derived from the RAW
	// plaintext hash — so two mounts writing identical plaintext still
	// produce identical backend ciphertext and deduplication is
	// preserved. The compressed payload occupies a prefix of the block's
	// fixed slot (on-disk addressing is unchanged; only the bytes per
	// backend read/write shrink), with its length recorded in the sealed
	// metadata. Incompressible blocks are stored verbatim and never cost
	// more than with compression off. Off (the default) produces
	// byte-identical output to prior releases; either setting reads
	// files written by the other.
	Compression bool
}

// Errors surfaced by the public API. ErrClosed, ErrCanceled and the
// PathError type live in errors.go.
var (
	// ErrNotExist reports an operation on a missing file.
	ErrNotExist = vfs.ErrNotExist
	// ErrIntegrity reports a data block failing its integrity check.
	ErrIntegrity = core.ErrIntegrity
	// ErrUnrecoverable reports crash damage recovery cannot repair.
	ErrUnrecoverable = core.ErrUnrecoverable
)

// Mount is a Lamassu instance over one backing store — the moral
// equivalent of the paper's FUSE mount point.
type Mount struct {
	fs     *core.FS
	rec    *metrics.Recorder
	closed atomic.Bool

	// attempts collects the attempt wrappers this mount created (nil
	// without Options.Retry and Options.Hedge); see attempt.go.
	attempts *attemptRegistry

	// Sharded-mount state for online rebalance (nil fields otherwise):
	// shard is the mounted sharded store, shardUser the user-visible
	// store handles per slot (pre name-encryption wrapping), wrapStore
	// the wrapper applied to stores joining the deployment.
	shard     *shard.Store
	shardUser []backend.Store
	wrapStore func(backend.Store) backend.Store

	rebMu     sync.Mutex
	reb       *Rebalance
	rebCancel context.CancelFunc
	// wrapped memoizes wrapStore per user handle (guarded by rebMu):
	// resuming a rebalance must map the same user store to the SAME
	// internal object, because the shard layer compares stores by
	// identity.
	wrapped map[backend.Store]backend.Store
}

// Close marks the mount closed: every subsequent operation on it
// returns an error wrapping ErrClosed. Files opened earlier keep
// working until individually closed, and the backing store — owned by
// the caller — is not touched. A rebalance mover still running is
// CANCELED and waited for (it stops at its next copy boundary,
// leaving the migration resumable), so after Close returns no
// background goroutine of this mount touches the stores. Closing
// twice returns ErrClosed.
func (m *Mount) Close() error {
	if m.closed.Swap(true) {
		return ErrClosed
	}
	m.rebMu.Lock()
	reb, cancel := m.reb, m.rebCancel
	m.rebMu.Unlock()
	if reb != nil && cancel != nil {
		cancel()
		<-reb.done
	}
	return nil
}

// guard rejects operations on a closed mount, wrapping the sentinel in
// a PathError when the operation names a file.
func (m *Mount) guard(op, name string) error {
	if !m.closed.Load() {
		return nil
	}
	if name == "" {
		return ErrClosed
	}
	return &PathError{Op: op, Path: name, Err: ErrClosed}
}

// New opens a Lamassu file system over store with the given zone keys,
// configured by functional options. With no options it selects the
// paper's defaults (4096-byte blocks, R = 8, full integrity, coalesced
// I/O, no cache, no sharding).
func New(store Storage, keys KeyPair, opts ...Option) (*Mount, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	geo, err := o.geometry()
	if err != nil {
		return nil, err
	}
	var rec *metrics.Recorder
	if o.CollectLatency {
		rec = metrics.New()
	}
	mode := core.IntegrityFull
	if o.Integrity == IntegrityMetaOnly {
		mode = core.IntegrityMetaOnly
	}
	var userStores []backend.Store
	// wrapNew composes the per-leaf store wrappers, innermost first:
	// the attempt layer on the physical store (its latency samples and
	// duplicate reads must see the raw store), name encryption outside
	// it. It is also applied to stores that join the deployment later
	// via StartRebalance.
	wrapNew := func(st backend.Store) backend.Store { return st }
	var attempts *attemptRegistry
	if o.Retry != nil || o.Hedge != nil {
		attempts = &attemptRegistry{hedged: o.Hedge != nil}
		pol := o.attemptPolicy()
		wrapNew = func(st backend.Store) backend.Store {
			as := backend.NewAttemptStore(st, pol)
			attempts.add(as)
			return as
		}
	}
	if o.EncryptNames {
		nameKey := cryptoutil.DeriveSubKey(keys.Outer, "lamassu-name-encryption")
		inner := wrapNew
		wrapNew = func(st backend.Store) backend.Store { return namecrypt.New(inner(st), nameKey) }
	}
	if ss, ok := store.(*shard.Store); ok {
		userStores = ss.Shards()
		if o.EncryptNames || o.Retry != nil || o.Hedge != nil {
			// Rebuild the sharded view with each LEAF store wrapped, so
			// the sharding seam (extent splitting, per-slot counters,
			// placement identity) stays outermost; one wrapper per physical store.
			views, err := wrapShardLeaves(wrapNew, ss)
			if err != nil {
				return nil, err
			}
			store = views[0]
		}
	} else {
		store = wrapNew(store)
	}
	// The crash-consistency model (§2.4) assumes whole-block write
	// atomicity, which striping preserves only when no block straddles
	// two shards.
	shardStore, _ := store.(*shard.Store)
	if shardStore != nil {
		if sb := shardStore.StripeBytes(); sb > 0 && sb%int64(geo.BlockSize) != 0 {
			return nil, fmt.Errorf("lamassu: shard stripe %d is not a multiple of the block size %d", sb, geo.BlockSize)
		}
		// Pick up the persisted layout epoch (and any interrupted
		// migration: the mount then reopens in dual-ring mode, every
		// byte readable, resumable via StartRebalance). A store list
		// the record does not describe fails the mount here.
		if err := shardStore.AdoptLayout(nil); err != nil {
			return nil, err
		}
	}
	var deriver func(cryptoutil.Hash) (cryptoutil.Key, error)
	if o.KeyDeriver != nil {
		kd := o.KeyDeriver
		deriver = func(h cryptoutil.Hash) (cryptoutil.Key, error) { return kd(h) }
	}
	fs, err := core.New(store, core.Config{
		Geometry:    geo,
		Inner:       keys.Inner,
		Outer:       keys.Outer,
		Integrity:   mode,
		Recorder:    rec,
		KeyDeriver:  deriver,
		Parallelism: o.Parallelism,
		CacheBlocks: o.CacheBlocks,
		Readahead:   o.Readahead,
		IOWindow:    o.IOWindow,
		Compression: o.Compression,
	})
	if err != nil {
		return nil, err
	}
	return &Mount{
		fs:        fs,
		rec:       rec,
		attempts:  attempts,
		shard:     shardStore,
		shardUser: userStores,
		wrapStore: wrapNew,
	}, nil
}

// Create opens name read-write, creating it if absent.
func (m *Mount) Create(name string) (File, error) { return m.CreateCtx(nil, name) }

// CreateCtx is Create honoring ctx through every layer.
func (m *Mount) CreateCtx(ctx context.Context, name string) (File, error) {
	if err := m.guard("create", name); err != nil {
		return nil, err
	}
	f, err := m.fs.CreateCtx(ctx, name)
	if err != nil {
		return nil, pathErr("create", name, err)
	}
	return f, nil
}

// Open opens an existing file read-only.
func (m *Mount) Open(name string) (File, error) { return m.OpenCtx(nil, name) }

// OpenCtx is Open honoring ctx.
func (m *Mount) OpenCtx(ctx context.Context, name string) (File, error) {
	if err := m.guard("open", name); err != nil {
		return nil, err
	}
	f, err := m.fs.OpenCtx(ctx, name)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	return f, nil
}

// OpenRW opens an existing file read-write.
func (m *Mount) OpenRW(name string) (File, error) { return m.OpenRWCtx(nil, name) }

// OpenRWCtx is OpenRW honoring ctx.
func (m *Mount) OpenRWCtx(ctx context.Context, name string) (File, error) {
	if err := m.guard("openrw", name); err != nil {
		return nil, err
	}
	f, err := m.fs.OpenRWCtx(ctx, name)
	if err != nil {
		return nil, pathErr("openrw", name, err)
	}
	return f, nil
}

// Remove deletes a file.
func (m *Mount) Remove(name string) error { return m.RemoveCtx(nil, name) }

// RemoveCtx is Remove honoring ctx.
func (m *Mount) RemoveCtx(ctx context.Context, name string) error {
	if err := m.guard("remove", name); err != nil {
		return err
	}
	return pathErr("remove", name, m.fs.RemoveCtx(ctx, name))
}

// Stat returns a file's logical size.
func (m *Mount) Stat(name string) (int64, error) { return m.StatCtx(nil, name) }

// StatCtx is Stat honoring ctx.
func (m *Mount) StatCtx(ctx context.Context, name string) (int64, error) {
	if err := m.guard("stat", name); err != nil {
		return 0, err
	}
	sz, err := m.fs.StatCtx(ctx, name)
	return sz, pathErr("stat", name, err)
}

// List returns all file names, sorted.
func (m *Mount) List() ([]string, error) { return m.ListCtx(nil) }

// ListCtx is List honoring ctx.
func (m *Mount) ListCtx(ctx context.Context) ([]string, error) {
	if err := m.guard("list", ""); err != nil {
		return nil, err
	}
	return m.fs.ListCtx(ctx)
}

// WriteFile writes data as the complete content of name.
func (m *Mount) WriteFile(name string, data []byte) error {
	return m.WriteFileCtx(nil, name, data)
}

// WriteFileCtx is WriteFile honoring ctx: the write and the commits it
// triggers observe cancellation between blocks and phases, with the
// crash-equivalent guarantees described in the package comment.
func (m *Mount) WriteFileCtx(ctx context.Context, name string, data []byte) error {
	if err := m.guard("write", name); err != nil {
		return err
	}
	return pathErr("write", name, vfs.WriteAllCtx(ctx, m.fs, name, data))
}

// ReadFile reads the complete logical content of name.
func (m *Mount) ReadFile(name string) ([]byte, error) {
	return m.ReadFileCtx(nil, name)
}

// ReadFileCtx is ReadFile honoring ctx between blocks and runs.
func (m *Mount) ReadFileCtx(ctx context.Context, name string) ([]byte, error) {
	if err := m.guard("read", name); err != nil {
		return nil, err
	}
	data, err := vfs.ReadAllCtx(ctx, m.fs, name)
	if err != nil {
		return nil, pathErr("read", name, err)
	}
	return data, nil
}

// VFS exposes the mount as the repository's internal vfs.FS, for code
// (benchmark harness, generators) written against that seam.
func (m *Mount) VFS() vfs.FS { return m.fs }

// CheckReport summarizes an integrity audit (see Check).
type CheckReport = core.CheckReport

// Check audits a file without modifying it: every metadata block's
// authentication tag and every data block's convergent hash are
// verified (paper §2.5).
func (m *Mount) Check(name string) (CheckReport, error) { return m.CheckCtx(nil, name) }

// CheckCtx is Check honoring ctx between segments; a canceled audit is
// simply incomplete.
func (m *Mount) CheckCtx(ctx context.Context, name string) (CheckReport, error) {
	if err := m.guard("check", name); err != nil {
		return CheckReport{}, err
	}
	rep, err := m.fs.CheckCtx(ctx, name)
	return rep, pathErr("check", name, err)
}

// RecoverStats summarizes a crash-recovery pass (see Recover).
type RecoverStats = core.RecoverStats

// Recover scans a file for segments left mid-update by a crash and
// repairs them using the multiphase-commit recovery protocol (paper
// §2.4). The file must be idle.
func (m *Mount) Recover(name string) (RecoverStats, error) { return m.RecoverCtx(nil, name) }

// RecoverCtx is Recover honoring ctx between segments; a canceled pass
// has repaired a prefix and can simply be rerun.
func (m *Mount) RecoverCtx(ctx context.Context, name string) (RecoverStats, error) {
	if err := m.guard("recover", name); err != nil {
		return RecoverStats{}, err
	}
	stats, err := m.fs.RecoverCtx(ctx, name)
	return stats, pathErr("recover", name, err)
}

// CacheStats is a snapshot of the block cache's counters (see
// Mount.CacheStats).
type CacheStats = core.CacheStats

// CacheStats reports the mount's block-cache effectiveness; all zero
// unless the mount was created with Options.CacheBlocks > 0.
func (m *Mount) CacheStats() CacheStats { return m.fs.CacheStats() }

// PoolStats is a snapshot of the commit worker pool's counters (see
// Mount.PoolStats).
type PoolStats = core.PoolStats

// PoolStats reports the mount's commit fan-out activity.
func (m *Mount) PoolStats() PoolStats { return m.fs.PoolStats() }

// EngineStats is a snapshot of the engine counters behind the Figure 9
// latency breakdown: how many backend calls the mount issued, how much
// payload they moved, and how well the coalescing layer and slab
// allocator are doing. The recorder-backed counters (BackendIOs
// through SlabMisses, and the byte and compression counters) are zero
// unless the mount was created with Options.CollectLatency; the
// I/O-window gauges and the retry and hedged-read counters are live
// regardless, since they come from the window and the attempt
// wrappers themselves.
type EngineStats struct {
	// BackendIOs counts backend calls (reads, writes, truncates,
	// syncs) the engine timed under the I/O category.
	BackendIOs int64
	// IOBytes is the total payload moved by those calls; BytesPerIO is
	// the mean payload per call — the coalescing layer's headline
	// metric (4096 when no two blocks are adjacent, a multiple of it
	// once runs merge).
	IOBytes    int64
	BytesPerIO float64
	// WriteRuns and ReadRuns count planned data extents issued: one
	// per extent of payload-contiguous blocks a commit writes, or a
	// read fetches, in a single backend call; a one-block read or a
	// partial write's fill is a one-block extent. Prefetches
	// counts readahead windows issued by the sequential-read detector.
	WriteRuns, ReadRuns, Prefetches int64
	// SlabHits and SlabMisses count scratch-buffer requests served
	// from the slab pool versus freshly allocated.
	SlabHits, SlabMisses int64
	// RetryAttempts counts backend operations re-issued by the
	// WithRetry wrapper after a transient failure; RetriesExhausted
	// counts operations that still failed after the retry budget ran
	// out. Live regardless of CollectLatency; both zero without
	// WithRetry.
	RetryAttempts, RetriesExhausted int64
	// IOWindow is the depth of the backend I/O window: Options.IOWindow,
	// or, when that is 0, 32. Above 1 the mount runs commits behind the
	// writer (Options.IOWindow). IOInFlight
	// gauges the backend operations holding a window slot right now;
	// IOPeakInFlight is the deepest the window has been — how much of
	// its depth the workload actually used.
	IOWindow                   int
	IOInFlight, IOPeakInFlight int64
	// HedgeAttempts counts duplicate reads issued by the WithHedgedReads
	// wrapper; HedgeWins counts hedges whose response beat the
	// primary's. ReadP50 and ReadP99 are the observed backend
	// read-latency quantiles the adaptive hedge delay is derived from —
	// the worst store's value on a sharded mount; HedgedReadStats has
	// the per-store breakdown. All zero without WithHedgedReads.
	HedgeAttempts, HedgeWins int64
	ReadP50, ReadP99         time.Duration
	// LogicalBytes and StoredBytes account the data-block payloads the
	// engine moved: LogicalBytes in full plaintext blocks, StoredBytes
	// as actually put on (or fetched off) the wire after compression.
	// Equal with compression off; their ratio is the live compression
	// ratio. CompressedBlocks counts blocks stored compressed;
	// RawEscapes counts incompressible blocks stored verbatim. All four
	// zero without Options.CollectLatency.
	LogicalBytes, StoredBytes    int64
	CompressedBlocks, RawEscapes int64
	// ReplicaWrites counts writes landed on non-primary replica copies
	// of a replicated sharded store; FailoverReads counts reads a
	// replica served after the preferred copy failed or was missing;
	// ScrubRepairs counts copies Mount.Scrub re-created or rewrote;
	// BreakerOpens counts shard-health breaker openings (see
	// Mount.ShardHealth). Live regardless of CollectLatency. The first
	// three stay zero at R=1; BreakerOpens counts there too, since a
	// single-copy store runs the same health tracking.
	ReplicaWrites, FailoverReads int64
	ScrubRepairs, BreakerOpens   int64
}

// CompressionRatio returns LogicalBytes/StoredBytes — the live
// compression ratio of the data-block payloads moved so far (1.0 with
// compression off or on incompressible data) — or 0 before any data
// moved.
func (s EngineStats) CompressionRatio() float64 {
	if s.StoredBytes > 0 {
		return float64(s.LogicalBytes) / float64(s.StoredBytes)
	}
	return 0
}

// SlabHitRate returns SlabHits/(SlabHits+SlabMisses), or 0 before any
// request.
func (s EngineStats) SlabHitRate() float64 {
	if total := s.SlabHits + s.SlabMisses; total > 0 {
		return float64(s.SlabHits) / float64(total)
	}
	return 0
}

// EngineStats reports the mount's I/O and allocator counters. The
// recorder-backed fields are zero unless the mount was created with
// Options.CollectLatency; the I/O-window, retry and hedged-read fields
// are always live.
func (m *Mount) EngineStats() EngineStats {
	var s EngineStats
	if m.rec != nil {
		b := m.rec.Snapshot()
		s = EngineStats{
			BackendIOs:       b.IOs(),
			IOBytes:          b.IOBytes,
			BytesPerIO:       b.BytesPerIO(),
			WriteRuns:        b.Event(metrics.WriteRun),
			ReadRuns:         b.Event(metrics.ReadRun),
			Prefetches:       b.Event(metrics.Prefetch),
			SlabHits:         b.Event(metrics.SlabHit),
			SlabMisses:       b.Event(metrics.SlabMiss),
			LogicalBytes:     b.LogicalBytes,
			StoredBytes:      b.StoredBytes,
			CompressedBlocks: b.Event(metrics.BlockCompressed),
			RawEscapes:       b.Event(metrics.RawEscape),
		}
	}
	iw := m.fs.IOWindowStats()
	s.IOWindow, s.IOInFlight, s.IOPeakInFlight = iw.Window, iw.InFlight, iw.Peak
	if m.shard != nil {
		rs := m.shard.ReplicationStats()
		s.ReplicaWrites, s.FailoverReads = rs.ReplicaWrites, rs.FailoverReads
		s.ScrubRepairs, s.BreakerOpens = rs.ScrubRepairs, rs.BreakerOpens
	}
	for _, as := range m.attempts.snapshot() {
		st := as.Stats()
		s.RetryAttempts += st.Retries
		s.RetriesExhausted += st.Exhausted
		s.HedgeAttempts += st.Hedges
		s.HedgeWins += st.HedgeWins
		s.ReadP50 = max(s.ReadP50, st.P50)
		s.ReadP99 = max(s.ReadP99, st.P99)
	}
	return s
}

// RekeyStats summarizes a key-rotation pass.
type RekeyStats = core.RekeyStats

// RekeyOuter re-seals a file's metadata blocks under a new outer key —
// the paper's fast partial re-key (§2.2). Data blocks and the
// deduplication domain are untouched. Subsequent opens must use a
// Mount configured with the new outer key.
func (m *Mount) RekeyOuter(name string, newOuter Key) (RekeyStats, error) {
	return m.RekeyOuterCtx(nil, name, newOuter)
}

// RekeyOuterCtx is RekeyOuter honoring ctx between segments. A
// canceled rotation is resumable: rerun it from the same mount (still
// configured with the old outer key) and segments already sealed under
// newOuter are detected and skipped. Discard the old key only after a
// pass completes without error.
func (m *Mount) RekeyOuterCtx(ctx context.Context, name string, newOuter Key) (RekeyStats, error) {
	if err := m.guard("rekey-outer", name); err != nil {
		return RekeyStats{}, err
	}
	stats, err := m.fs.RekeyOuterCtx(ctx, name, newOuter)
	return stats, pathErr("rekey-outer", name, err)
}

// RekeyFull re-encrypts a file under a new key pair, moving it to a
// new deduplication isolation zone. The file must be idle. A mount
// created WithKeyDeriver refuses it before any write: its isolation
// zone is the deriver, not the inner key, so rotate its outer key with
// RekeyOuter instead.
func (m *Mount) RekeyFull(name string, newKeys KeyPair) (RekeyStats, error) {
	return m.RekeyFullCtx(nil, name, newKeys)
}

// RekeyFullCtx is RekeyFull honoring ctx between segments; the
// rotation is segment-atomic, so a canceled pass leaves segments split
// between the two key pairs — retain both and rerun to finish
// (already-rotated segments are detected and skipped).
func (m *Mount) RekeyFullCtx(ctx context.Context, name string, newKeys KeyPair) (RekeyStats, error) {
	if err := m.guard("rekey-full", name); err != nil {
		return RekeyStats{}, err
	}
	stats, err := m.fs.RekeyFullCtx(ctx, name, newKeys.Inner, newKeys.Outer)
	return stats, pathErr("rekey-full", name, err)
}

// SpaceOverhead returns the metadata overhead in bytes that Lamassu
// adds to a file of the given logical size (Equations 4–7).
func (m *Mount) SpaceOverhead(logicalSize int64) int64 {
	return m.fs.Geometry().Overhead(logicalSize)
}

// MinOverheadRatio returns the asymptotic space overhead ratio,
// 1/KeysPerSegment (Equation 8) — 0.85 % at the default R = 8.
func (m *Mount) MinOverheadRatio() float64 {
	return m.fs.Geometry().MinOverheadRatio()
}

// LatencySlice is one category of the Figure 9 latency breakdown.
type LatencySlice struct {
	Category string
	Total    time.Duration
	Fraction float64
}

// Latency returns the accumulated latency breakdown (Encrypt, Decrypt,
// GetCEKey, I/O, Misc). It returns nil unless the mount was created
// with Options.CollectLatency.
func (m *Mount) Latency() []LatencySlice {
	if m.rec == nil {
		return nil
	}
	b := m.rec.Snapshot()
	out := make([]LatencySlice, 0, 5)
	for _, c := range metrics.Categories() {
		out = append(out, LatencySlice{
			Category: c.String(),
			Total:    b.Total[c],
			Fraction: b.Fraction(c),
		})
	}
	return out
}

// ResetLatency zeroes the latency accumulators.
func (m *Mount) ResetLatency() {
	if m.rec != nil {
		m.rec.Reset()
	}
}

// NewMemStorage returns an in-memory backing store (the RAM-disk
// configuration of the paper's Figures 8–10).
func NewMemStorage() Storage { return backend.NewMemStore() }

// ObjectStoreParams models the simulated object store's link: a
// per-request round trip (reads RTT, writes WriteRTT when nonzero), a
// wire bandwidth in bytes per second, and an optional deterministic
// two-point latency tail (every TailEvery-th request multiplied by
// TailMult). The zero value charges no latency at all.
type ObjectStoreParams = objstore.ServerParams

// NewMemObjectStorage returns an in-memory S3-style object store as a
// backing Storage — the remote-backend counterpart of NewMemStorage.
// Backing files become objects: reads are ranged GETs, a handle's
// writes accumulate in a multipart upload session that its Sync (or
// Close) completes atomically, and Stat/List map to HEAD and paginated
// LIST. Every request pays the configured round trip, which is the
// regime the pipelining (WithIOWindow) and attempt (WithRetry,
// WithHedgedReads) layers are built for: transport failures are
// classified retryable, so a retry re-issues them, and a slow ranged
// GET can be hedged. Waits are real (wall-clock).
func NewMemObjectStorage(p ObjectStoreParams) Storage {
	return objstore.New(objstore.NewMemserver(p, nil))
}

// ShardOptions tunes NewShardedStorage.
type ShardOptions struct {
	// Vnodes is the virtual-node count per shard on the placement
	// ring; 0 selects the default (64). Placement depends on it, so it
	// must match every time the same deployment is opened.
	Vnodes int
	// StripeBytes, when > 0, stripes ranges of large backing files
	// across shards; 0 places each file whole on one shard. It must be
	// a multiple of the mount's block size so a block write can never
	// straddle two shards (whole-block write atomicity, §2.4); a
	// multiple of the segment physical size additionally keeps each
	// segment's metadata and data together. StripeBytes is part of the
	// placement, so it too must be stable across opens.
	StripeBytes int64
	// Replicas, when >= 2, keeps that many copies of every key, on the
	// next distinct shards clockwise from the owner on the placement
	// ring. Writes fan out to every replica, reads fail over when a
	// copy is unreachable, and Mount.Scrub repairs divergence. The
	// factor is persisted in the layout record and becomes part of the
	// deployment's on-disk identity; it requires at least that many
	// stores. 0 and 1 mean single-copy.
	Replicas int
}

// NewShardedStorage stripes a backing namespace across several
// independent stores — the multi-backend deployment where each shard
// is its own directory, disk or filer. Placement is a consistent-hash
// ring (deterministic across processes; see internal/shard), and a
// Mount over the result reports its traffic per shard (ShardStats)
// automatically. The store order is part of the placement
// contract. Use RebalanceShards, or Mount.StartRebalance under a live
// mount, to add or remove shards.
func NewShardedStorage(stores []Storage, opts *ShardOptions) (Storage, error) {
	var o ShardOptions
	if opts != nil {
		o = *opts
	}
	bs := make([]backend.Store, len(stores))
	copy(bs, stores)
	return shard.New(bs, shard.Config{Vnodes: o.Vnodes, StripeBytes: o.StripeBytes, Replicas: o.Replicas})
}

// SegmentStripeBytes returns a stripe size for ShardOptions that is a
// whole number of segments for the geometry opts implies and is at
// least target bytes (target <= 0 selects ~4 MiB). Segment-aligned
// stripes keep every multiphase commit on a single shard.
func SegmentStripeBytes(opts *Options, target int64) (int64, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	geo, err := o.geometry()
	if err != nil {
		return 0, err
	}
	if target <= 0 {
		target = defaultStripeTarget
	}
	return segmentAlignedStripe(geo, target), nil
}

// geometry validates the block size and R, zero selecting the paper's
// defaults.
func (o Options) geometry() (layout.Geometry, error) {
	bs, r := o.BlockSize, o.ReservedSlots
	if bs == 0 {
		bs = layout.DefaultBlockSize
	}
	if r == 0 {
		r = layout.DefaultReservedSlots
	}
	return layout.NewGeometry(bs, r)
}

// defaultStripeTarget is the approximate stripe size used when no
// explicit target is given: large enough that small files stay whole
// on one shard, small enough that a multi-gigabyte file spreads its
// commit load across every shard.
const defaultStripeTarget = 4 << 20

// segmentAlignedStripe rounds target up to a whole number of segments
// of an already-validated geometry.
func segmentAlignedStripe(geo layout.Geometry, target int64) int64 {
	seg := geo.SegmentPhysBytes()
	n := (target + seg - 1) / seg
	if n < 1 {
		n = 1
	}
	return n * seg
}

// ShardStat is one shard slot's slice of a sharded mount's activity:
// the leaf I/O the placement routed to it and how much of it is in
// flight. Together the entries show whether load is spreading (bytes
// and ops roughly even) and where the bottleneck sits (queue depth
// pinned at one shard = hot spot).
type ShardStat struct {
	// Shard is the shard index, in store order.
	Shard int
	// Reads / Writes / Syncs count backend calls routed to the shard;
	// BytesRead / BytesWritten total the payloads.
	Reads, Writes, Syncs    int64
	BytesRead, BytesWritten int64
	// QueueDepth is the number of leaf reads and writes running on the
	// shard now; each owner of a replicated write counts on its own
	// shard. An unsharded mount reports no ShardStats at all.
	QueueDepth int64
}

// ShardStats reports per-shard activity for a mount over a sharded
// store (NewShardedStorage); nil otherwise. The entries follow the
// store's topology: during an online rebalance they cover both
// epochs' shards, and once it commits, the current epoch's.
func (m *Mount) ShardStats() []ShardStat {
	if m.shard == nil {
		return nil
	}
	io := m.shard.Stats()
	out := make([]ShardStat, len(io))
	for i, s := range io {
		out[i] = ShardStat(s)
	}
	return out
}

// ShardHealth is one shard slot's failover-health snapshot (see
// Mount.ShardHealth).
type ShardHealth = shard.ShardHealth

// ShardHealth reports per-slot failover health for a mount over a
// sharded store: failure/success counts and the state of each slot's
// breaker (a slot with too many consecutive failures is exiled to
// half-open probing until a probe succeeds), at every replication
// factor. Entries with no failures and a closed breaker are the steady
// state; nil for unsharded mounts. The breaker only reroutes traffic
// that has somewhere else to go — a slot is always attempted when it
// is the last hope for a read, as every owner of a single-copy store
// is — so health can never turn a degraded deployment into a failed
// one, and at R=1 it only reports.
func (m *Mount) ShardHealth() []ShardHealth {
	if m.shard == nil {
		return nil
	}
	return m.shard.Health()
}

// ScrubStats summarizes a replica scrub pass (see Mount.Scrub).
type ScrubStats = shard.ScrubStats

// Scrub walks a replicated sharded deployment's whole backing
// namespace, byte-compares every key's replica copies and repairs
// divergence: missing or divergent copies are rewritten from a
// verified source, copies stranded by a missed remove are reaped, and
// copies past the true size are truncated. Run it after a shard
// outage heals to restore full replication. The mount keeps serving
// reads and writes throughout; a pass is mutually exclusive with an
// online rebalance and resumable — cancellation (honored between
// repairs) simply leaves the rest for the next pass. It requires a
// replicated sharded mount (ShardOptions.Replicas >= 2).
func (m *Mount) Scrub(ctx context.Context) (ScrubStats, error) {
	if err := m.guard("scrub", ""); err != nil {
		return ScrubStats{}, err
	}
	if m.shard == nil {
		return ScrubStats{}, errors.New("lamassu: Scrub requires a sharded mount (NewShardedStorage)")
	}
	return m.shard.Scrub(ctx)
}

// ShardRebalanceStats summarizes a RebalanceShards pass.
type ShardRebalanceStats = shard.RebalanceStats

// RebalanceShards migrates a deployment between two sharded-storage
// views of it and waits for the result: the unmounted form of
// Mount.StartRebalance, and the same engine — it opens a placement
// epoch on from towards to's store list, runs the mover, and commits.
// Both arguments must come from NewShardedStorage with the same stripe
// unit, vnode count and replication factor, and to's store list must
// be from's with shards appended (grow) or a suffix removed (shrink);
// a list that replaces or reorders stores, or a different vnode count,
// is refused with an error naming that rule before a byte moves.
// Consistent hashing keeps the copying proportional to the placement
// change, about K/N of the keys when one of N shards is added or
// removed. No Mount on another view of the deployment may be open
// while it runs (use Mount.StartRebalance for a live one).
//
// A rebalance always leaves the deployment's layout record behind — a
// stable record one epoch on, on every shard of the new view — even on
// a deployment that had none: mounting it with the old store list
// afterwards fails instead of silently serving the old placement.
// Treat from as consumed by a successful rebalance, and mount to.
//
// A deployment written with Options.EncryptNames places files by
// their PLAINTEXT names while storing them under encrypted ones, so
// its zone keys MUST be passed here — rebalancing such a store
// without them computes placement from the encrypted names and
// strands files. Plain deployments pass no keys.
func RebalanceShards(from, to Storage, encryptNamesKeys ...KeyPair) (ShardRebalanceStats, error) {
	return RebalanceShardsCtx(nil, from, to, encryptNamesKeys...)
}

// RebalanceShardsCtx is RebalanceShards honoring ctx between key
// copies: a cancellation returns ErrCanceled with the migration cut at
// a copy boundary and persisted — the crash case the engine already
// covers — and rerunning with a live context, in this process or a new
// one, resumes it and converges.
func RebalanceShardsCtx(ctx context.Context, from, to Storage, encryptNamesKeys ...KeyPair) (ShardRebalanceStats, error) {
	fs, ok := from.(*shard.Store)
	if !ok {
		return ShardRebalanceStats{}, errors.New("lamassu: RebalanceShards: from is not a sharded storage")
	}
	ts, ok := to.(*shard.Store)
	if !ok {
		return ShardRebalanceStats{}, errors.New("lamassu: RebalanceShards: to is not a sharded storage")
	}
	switch len(encryptNamesKeys) {
	case 0:
	case 1:
		nameKey := cryptoutil.DeriveSubKey(encryptNamesKeys[0].Outer, "lamassu-name-encryption")
		views, err := wrapShardNames(nameKey, fs, ts)
		if err != nil {
			return ShardRebalanceStats{}, err
		}
		fs, ts = views[0], views[1]
	default:
		return ShardRebalanceStats{}, errors.New("lamassu: RebalanceShards: at most one key pair")
	}
	return shard.RebalanceCtx(ctx, fs, ts)
}

// Rebalance is a handle on a running (or finished) online rebalance
// started with Mount.StartRebalance.
type Rebalance struct {
	done  chan struct{}
	stats ShardRebalanceStats
	err   error
}

// Done returns a channel closed when the mover finishes (successfully
// or not).
func (r *Rebalance) Done() <-chan struct{} { return r.done }

// Wait blocks until the mover finishes and returns its error: nil on
// a committed epoch bump, ErrCanceled if the StartRebalance context
// was canceled (the migration stays active and resumable), or the
// first backend error otherwise.
func (r *Rebalance) Wait() error {
	<-r.done
	return r.err
}

// Err returns the mover's error, or nil while it is still running.
func (r *Rebalance) Err() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

// Stats returns the mover's copy statistics; complete only once Done
// is closed.
func (r *Rebalance) Stats() ShardRebalanceStats {
	select {
	case <-r.done:
		return r.stats
	default:
		return ShardRebalanceStats{}
	}
}

// RebalanceStatus is a snapshot of a mount's placement epoch and — if
// one is active — its online rebalance (see Mount.RebalanceStatus).
type RebalanceStatus struct {
	// Active reports a migration in progress (dual-ring routing on);
	// MoverRunning whether its background mover is currently copying
	// (false between a crash-interrupted migration's reopen and the
	// StartRebalance call that resumes it).
	Active, MoverRunning bool
	// Epoch is the settled placement epoch being served; TargetEpoch
	// the epoch being migrated to (0 unless Active).
	Epoch, TargetEpoch uint64
	// TotalKeys is the number of placement keys (files, or stripes of
	// striped files) the migration must relocate, discovered file by
	// file as the mover walks; MovedKeys how many are confirmed so
	// far; MovedBytes the payload the mover has copied.
	TotalKeys, MovedKeys, MovedBytes int64
	// FallbackReads counts dual-ring reads served by the previous
	// epoch's owner; MirroredWrites counts writes dual-written to it.
	FallbackReads, MirroredWrites int64
}

// RebalanceStatus reports the mount's placement epoch and migration
// progress; the zero value for unsharded mounts.
func (m *Mount) RebalanceStatus() RebalanceStatus {
	if m.shard == nil {
		return RebalanceStatus{}
	}
	st := m.shard.MigrationStatus()
	return RebalanceStatus{
		Active:         st.Active,
		MoverRunning:   st.MoverRunning,
		Epoch:          st.Epoch,
		TargetEpoch:    st.TargetEpoch,
		TotalKeys:      st.TotalKeys,
		MovedKeys:      st.MovedKeys,
		MovedBytes:     st.MovedBytes,
		FallbackReads:  st.FallbackReads,
		MirroredWrites: st.MirroredWrites,
	}
}

// StartRebalance migrates a live sharded mount to a new store
// topology WITHOUT unmounting — RebalanceShards under live traffic,
// through the same engine. newStores is the complete new store list: grow by
// passing the current stores plus the new ones appended, shrink by
// passing a prefix of the current list. The mount keeps serving reads
// and writes throughout: a new placement epoch opens immediately
// (persisted on the shards), writes route by the new ring and mirror
// to the old owner until each key is confirmed, reads are served by
// the new owner once the key is confirmed and fall back to the old
// owner until then, and a background mover copies only the keys whose
// owner changed before atomically committing the epoch bump and
// retiring the old ring.
//
// Cancelling ctx stops the mover between key copies (Wait returns
// ErrCanceled) with the mount still fully consistent in dual-ring
// mode; call StartRebalance again — with the same newStores, or with
// none after reopening an interrupted deployment — to resume, and the
// rerun converges. A crash at ANY point is equally safe: the old
// epoch's copies stay complete until the commit, so the deployment
// reopens on either epoch.
//
// Returns the running migration's handle; Mount.RebalanceStatus
// reports progress. Passing no stores resumes a migration adopted at
// mount time and fails otherwise.
func (m *Mount) StartRebalance(ctx context.Context, newStores ...Storage) (*Rebalance, error) {
	if err := m.guard("rebalance", ""); err != nil {
		return nil, err
	}
	if m.shard == nil {
		return nil, errors.New("lamassu: StartRebalance requires a sharded mount (NewShardedStorage)")
	}
	m.rebMu.Lock()
	defer m.rebMu.Unlock()
	if m.reb != nil {
		select {
		case <-m.reb.done:
		default:
			return nil, errors.New("lamassu: a rebalance is already running on this mount")
		}
	}
	internal, err := m.mapRebalanceStores(newStores)
	if err != nil {
		return nil, err
	}
	hooks := shard.MigrateHooks{Invalidate: m.fs.InvalidateFile}
	if err := m.shard.BeginMigration(ctx, internal, hooks); err != nil {
		return nil, err
	}
	r := &Rebalance{done: make(chan struct{})}
	// Close cancels through this derived context so no mover outlives
	// the mount.
	moverCtx, cancel := context.WithCancel(orDefault(ctx))
	m.reb, m.rebCancel = r, cancel
	go func() {
		defer cancel()
		stats, err := m.shard.RunMover(moverCtx)
		r.stats = ShardRebalanceStats(stats)
		r.err = err
		close(r.done)
	}()
	return r, nil
}

// orDefault maps the package's nil-context convention onto the std
// context tree so a derived cancel works.
func orDefault(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// mapRebalanceStores translates the caller's store handles into the
// mount's internal per-slot stores: handles the mount already serves
// keep their (possibly name-encryption-wrapped) internal identity,
// genuinely new stores are wrapped the same way the mount's were.
func (m *Mount) mapRebalanceStores(newStores []Storage) ([]backend.Store, error) {
	cur := m.shard.Shards()
	if len(newStores) == 0 {
		if !m.shard.Migrating() {
			return nil, errors.New("lamassu: StartRebalance with no stores resumes an interrupted migration; none is active")
		}
		return cur, nil
	}
	wrap := func(st backend.Store) backend.Store {
		if m.wrapped == nil {
			m.wrapped = make(map[backend.Store]backend.Store)
		}
		w, ok := m.wrapped[st]
		if !ok {
			w = m.wrapStore(st)
			m.wrapped[st] = w
		}
		return w
	}
	// A user handle the mount ALREADY serves must map to the same
	// internal store object in every slot: the shard layer's move and
	// reap decisions compare stores by identity, and a second wrapper
	// around one physical store would read as a distinct shard whose
	// "stale" copies are removable. Carve-mode grows (the same store
	// handle repeated into new slots) depend on this.
	existing := func(st backend.Store) (backend.Store, bool) {
		for j, u := range m.shardUser {
			if u == st && j < len(cur) {
				return cur[j], true
			}
		}
		return nil, false
	}
	internal := make([]backend.Store, len(newStores))
	for i, st := range newStores {
		switch {
		case i < len(m.shardUser) && st == m.shardUser[i]:
			if i < len(cur) {
				internal[i] = cur[i]
			} else {
				// Resuming a shrink adopted at mount time: the slot sits
				// beyond the target list; BeginMigration revalidates.
				internal[i] = wrap(st)
			}
		case i < len(m.shardUser):
			return nil, fmt.Errorf("lamassu: StartRebalance store %d differs from the mounted deployment; grow appends stores, shrink removes a suffix", i)
		default:
			if in, ok := existing(st); ok {
				internal[i] = in
			} else {
				internal[i] = wrap(st)
			}
		}
	}
	return internal, nil
}

// wrapShardNames rebuilds sharded views with name encryption pushed
// inside each shard; see wrapShardLeaves for the identity contract.
func wrapShardNames(nameKey Key, views ...*shard.Store) ([]*shard.Store, error) {
	return wrapShardLeaves(func(st backend.Store) backend.Store {
		return namecrypt.New(st, nameKey)
	}, views...)
}

// wrapShardLeaves rebuilds sharded views with wrap applied to each
// leaf store — the layout New uses for EncryptNames and the attempt
// layer, so the sharding seam stays outermost (extent splitting,
// ShardStats) while the wrappers sit on the physical stores.
// Slots and views sharing one physical store share ONE wrapper: the
// shard layer's no-move and stale-copy decisions compare stores by
// identity, and distinct wrappers around the same store would make
// Rebalance treat an owner as removable.
func wrapShardLeaves(wrap func(backend.Store) backend.Store, views ...*shard.Store) ([]*shard.Store, error) {
	wrapped := make(map[backend.Store]backend.Store)
	out := make([]*shard.Store, len(views))
	for vi, ss := range views {
		stores := ss.Shards()
		for i, st := range stores {
			w, ok := wrapped[st]
			if !ok {
				w = wrap(st)
				wrapped[st] = w
			}
			stores[i] = w
		}
		ns, err := shard.New(stores, shard.Config{
			Vnodes:      ss.Ring().Vnodes(),
			StripeBytes: ss.StripeBytes(),
			Replicas:    ss.Replicas(),
		})
		if err != nil {
			return nil, err
		}
		out[vi] = ns
	}
	return out, nil
}

// NewDirStorage returns a backing store over a directory of real
// files; the encrypted backing files in it can be copied, replicated
// or migrated with ordinary tools.
func NewDirStorage(dir string) (Storage, error) { return backend.NewOSStore(dir) }

// IsNotExist reports whether err indicates a missing file.
func IsNotExist(err error) bool { return errors.Is(err, vfs.ErrNotExist) }

// IsIntegrityError reports whether err indicates failed integrity
// verification.
func IsIntegrityError(err error) bool { return errors.Is(err, core.ErrIntegrity) }

// String returns a human-readable summary of the mount's geometry,
// useful for logs.
func (m *Mount) String() string {
	g := m.fs.Geometry()
	return fmt.Sprintf("lamassu(block=%dB, R=%d, keys/segment=%d, min-overhead=%.2f%%, integrity=%s)",
		g.BlockSize, g.Reserved, g.KeysPerSegment(), 100*g.MinOverheadRatio(), m.fs.Integrity())
}
