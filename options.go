package lamassu

// Functional options — the API v2 construction surface.
//
//	m, err := lamassu.New(store, keys,
//		lamassu.WithShards(8),
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

// WithParallelism bounds the per-block commit worker pool; 0 selects
// GOMAXPROCS, 1 forces the paper's fully serial engine.
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

// WithShards carves the provided store into n logical shards behind a
// consistent-hash placement map (byte-identical layout at any n). For
// sharding across genuinely separate backends use NewShardedStorage
// and no WithShards.
func WithShards(n int) Option {
	return func(o *Options) { o.Shards = n }
}

// WithReplication asserts the mounted deployment's replication factor
// (the factor itself is configured where the topology is built:
// ShardOptions.Replicas in NewShardedStorage). The mount fails unless
// the sharded store it is given maintains exactly r copies of every
// key — a guard against mounting an R-way deployment through a path
// that dropped the factor.
func WithReplication(r int) Option {
	return func(o *Options) { o.Replicas = r }
}

// WithShardVnodes overrides the virtual-node count per shard on the
// placement ring (default 64). The value is part of the placement and
// must be stable across opens.
func WithShardVnodes(vnodes int) Option {
	return func(o *Options) { o.ShardVnodes = vnodes }
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
// read or write; under WithReplication(R) a write reaches its R owners
// together on the one slot it holds, so the leaf stores see at most
// n × R write requests at once.
// A window also moves who waits for a commit: the WriteAt that fills a
// batch waits for its encode only, and the commit's backend writes run
// behind it, at most n commits per mount. Sync, Truncate and Close
// wait for them; a failed one is returned by the handle's next WriteAt
// and by its next Sync, Truncate or Close.
// 0 (the default) keeps backend concurrency on the worker pool and
// every commit inside the call that triggers it; 1 serializes backend
// I/O, the A/B baseline. The §2.4 barriers are unchanged at any
// setting.
func WithIOWindow(n int) Option {
	return func(o *Options) { o.IOWindow = n }
}

// WithHedgedReads wraps every physical backing store with adaptive
// hedged reads: a read outstanding longer than a high quantile of the
// store's observed read latency is duplicated, the first usable
// response wins, and the loser is canceled through its context. Reads
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
