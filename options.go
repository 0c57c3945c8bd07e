package lamassu

// Functional options — the API v2 construction surface.
//
//	m, err := lamassu.New(store, keys,
//		lamassu.WithCache(4096),
//		lamassu.WithParallelism(0), // GOMAXPROCS
//	)
//
// Every option sets one field of Options; the zero Options is the
// paper's configuration.

// Option configures a Mount at construction.
type Option func(*Options)

// WithBlockSize sets the cipher/layout block size in bytes (default
// 4096, the paper's configuration).
func WithBlockSize(bytes int) Option {
	return func(o *Options) { o.BlockSize = bytes }
}

// WithReservedSlots sets R, the transient key slots per metadata block
// (default 8; see Figures 10 and 11 for the space/batching trade).
func WithReservedSlots(r int) Option {
	return func(o *Options) { o.ReservedSlots = r }
}

// WithIntegrity selects the read-path integrity level (default
// IntegrityFull).
func WithIntegrity(level Integrity) Option {
	return func(o *Options) { o.Integrity = level }
}

// WithLatencyCollection enables the Figure 9 latency-breakdown
// instrumentation (Mount.Latency, Mount.EngineStats).
func WithLatencyCollection() Option {
	return func(o *Options) { o.CollectLatency = true }
}

// WithEncryptedNames additionally encrypts file and directory names on
// the backing store (the §2.1 extension).
func WithEncryptedNames() Option {
	return func(o *Options) { o.EncryptNames = true }
}

// WithKeyDeriver replaces the local convergent KDF with an external
// derivation such as the DupLESS server-aided OPRF.
func WithKeyDeriver(derive func(hash [32]byte) (Key, error)) Option {
	return func(o *Options) { o.KeyDeriver = derive }
}

// WithParallelism bounds the per-block CPU worker pool: Parallelism−1
// helper lanes per mount, plus each caller, which runs its own batch.
// 0 selects GOMAXPROCS, 1 runs the CPU work on the calling goroutine.
// The paper's fully serial engine is WithParallelism(1) with
// WithIOWindow(1).
func WithParallelism(workers int) Option {
	return func(o *Options) { o.Parallelism = workers }
}

// WithCache sizes the per-mount LRU cache of verified plaintext and
// decoded metadata blocks, in blocks; 0 (the default) disables it.
func WithCache(blocks int) Option {
	return func(o *Options) { o.CacheBlocks = blocks }
}

// WithReadahead arms the sequential-read detector to prefetch the next
// n blocks into the cache; New fails without WithCache.
func WithReadahead(blocks int) Option {
	return func(o *Options) { o.Readahead = blocks }
}

// WithRetry wraps the backing store (every shard of a sharded
// deployment) with bounded retry of transient backend failures, per
// policy. Retryable errors (see IsRetryable) are re-issued with
// capped exponential backoff; fatal errors — cancellation included —
// surface immediately. The zero policy selects the defaults.
func WithRetry(policy RetryPolicy) Option {
	return func(o *Options) { o.Retry = &policy }
}

// WithIOWindow bounds the number of backend I/O operations the engine
// keeps in flight at once, independent of WithParallelism's CPU
// budget — the pipelining knob for high-latency stores, where the
// useful request depth is set by the link rather than by core count.
// The data writes of a commit and the extents of a read overlap on the
// wire, sharded or not, and this bound alone limits the operations in
// flight per mount — every handle shares it. An operation is one extent
// read or write; on a store replicated R ways (ShardOptions.Replicas)
// a write reaches its R owners together on the one slot it holds, so
// the leaf stores see at most n × R write requests at once.
// A window of more than one slot also moves who waits for a commit:
// the WriteAt that fills a batch waits for its encode only, and the
// commit's backend writes run behind it, at most n commits per mount.
// Sync, Truncate and Close wait for them; a failed one is returned by
// the handle's next WriteAt and by its next Sync, Truncate or Close.
// 0 (the default) selects a window of 32; 1 serializes backend I/O and
// keeps every commit inside the call that triggers it, the A/B
// baseline. The §2.4 barriers are unchanged at any setting.
func WithIOWindow(n int) Option {
	return func(o *Options) { o.IOWindow = n }
}

// WithHedgedReads wraps every physical backing store with adaptive
// hedged reads: a read outstanding longer than a high quantile of the
// store's observed read latency is duplicated, the first usable
// response wins, and the loser is canceled through its context. Under
// WithRetry too, each retry attempt of a read is one such race. Reads
// only — writes and the §2.4 commit protocol are untouched. The zero
// policy selects the adaptive defaults.
func WithHedgedReads(policy HedgePolicy) Option {
	return func(o *Options) { o.Hedge = &policy }
}

// WithCompression enables deterministic per-block compression in the
// encode path: blocks are compressed with pinned encoder settings,
// then encrypted under the convergent key of the RAW plaintext — so
// deduplication of identical plaintext is preserved — and stored as a
// prefix of their fixed block slot, shrinking the bytes each backend
// read and write moves. Incompressible blocks escape to verbatim
// storage and never cost more than today. Off by default; see
// Options.Compression for the compatibility contract.
func WithCompression() Option {
	return func(o *Options) { o.Compression = true }
}
