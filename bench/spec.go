package main

// The benchmark's vocabulary: every workload and metric name the
// program emits, in one place. BENCHMARK.json at the repository root
// repeats the names, units, directions and bounds (a test keeps the two
// in step); the layer, the end-to-end metric a per-layer metric should
// move, and whether its count repeats exactly live only here and in
// README.md, because BENCHMARK.json admits no further keys.

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"local-seq", "RAM-disk streaming (paper Fig. 8): cryptoutil and core's commit/read fan-out do all the work; shard, objstore and serve do none"},
	{"local-rand", "cache 32x smaller than the working set, 70/30 read/sync-write mix of small ops (paper Figs. 9-10): per-op cost in core, not streaming"},
	{"objstore-seq-z2", "4 object-store leaves at 2 ms RTT, 2 replicas, compression: round trips decide, so core's I/O planner, shard fan-out and objstore staging show; crypto does not"},
	{"wire-objects", "1 MiB PUT/GET over loopback HTTP on a memory backend: serve (parse, buffer, admission, tenant names) does the work, the backend none"},
}

const (
	higher = "higher"
	lower  = "lower"
)

// e2eSpec is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may worsen before a change is a
// regression. The benchmark is accepted only while the inter-quartile
// spread of ten runs with ten seeds stays inside the bound (a third of it
// is the target). The timings are therefore bounded by what this shared
// two-core box does to a 25-second run — runs within 0.5 % of each other
// in a quiet hour, 6-25 % spread in a noisy one, see README — and not by
// the 8-15 % the issue asked for; the three ratios are counts and carry
// the issue's 0.5 % where they do not move with the seed.
type e2eSpec struct {
	Name, Unit, Better string
	Bound              float64
}

var e2eSpecs = []e2eSpec{
	{"write_mibps", "MiB/s", higher, 0.25},
	{"read_mibps", "MiB/s", higher, 0.25},
	{"write_p50_ms", "ms", lower, 0.25},
	{"write_p90_ms", "ms", lower, 0.25},
	{"read_p50_ms", "ms", lower, 0.25},
	{"read_p90_ms", "ms", lower, 0.25},
	{"cpu_s_per_gib", "s/GiB", lower, 0.25},
	{"stored_per_logical", "ratio", lower, 0.005},
	{"dedup_stored_per_logical", "ratio", lower, 0.03},
	{"wire_bytes_per_logical", "ratio", lower, 0.01},
	{"setup_s", "s", lower, 0.25},
}

// layerSpec is one per-layer metric. Moves names the end-to-end metric
// (and workload) a change in this number should show up in; Exact marks
// counts that repeat bit-for-bit in exact-count mode (-clients 1
// -rounds 1), the only per-layer numbers a later change may rest a count
// claim on.
type layerSpec struct {
	Name, Unit, Better string
	Moves              string
	Exact              bool
}

const (
	movesWire   = "write/read _p50_ms and _mibps on wire-objects"
	movesRandOp = "write/read _p50_ms on local-rand"
	movesObjTP  = "write_mibps, read_mibps on objstore-seq-z2"
	movesCPU    = "cpu_s_per_gib on local-seq and local-rand"
	movesCrypto = "cpu_s_per_gib, write_mibps, read_mibps on local-seq; cpu_s_per_gib only on objstore-seq-z2"
	movesWireB  = "wire_bytes_per_logical on objstore-seq-z2"
	movesDedup  = "dedup_stored_per_logical everywhere"
	movesNone   = "none"
)

var layerSpecs = []layerSpec{
	// serve: RequestCounts, Limiter().Stats(), client timers, in-process twin.
	{"serve.requests", "count", lower, movesWire, false},
	{"serve.rejected_503", "count", lower, "failed ops on wire-objects", false},
	{"serve.peak_inflight", "count", lower, movesWire, false},
	{"serve.range_get_ms_p50", "ms", lower, movesWire, false},
	{"serve.stat_ms_p50", "ms", lower, movesWire, false},
	{"serve.list_ms_p50", "ms", lower, movesWire, false},
	{"serve.put_ms_p99", "ms", lower, "write_p90_ms on wire-objects", false},
	{"serve.get_ms_p99", "ms", lower, "read_p90_ms on wire-objects", false},
	{"serve.wire_gap_put_ms_p50", "ms", lower, "write_p50_ms on wire-objects", false},
	{"serve.wire_gap_get_ms_p50", "ms", lower, "read_p50_ms on wire-objects", false},
	{"serve.wire_gap_share", "ratio", lower, movesWire, false},

	// mount: top spans around the public Mount/File calls.
	{"mount.open_us_p50", "us", lower, movesRandOp, false},
	{"mount.write_call_us_p50", "us", lower, movesRandOp, false},
	{"mount.write_call_us_p99", "us", lower, "write_p90_ms on local-rand", false},
	{"mount.sync_call_us_p50", "us", lower, "write_p50_ms on local-rand", false},
	{"mount.read_call_us_p50", "us", lower, movesRandOp, false},
	{"mount.read_call_us_p99", "us", lower, "read_p90_ms on local-rand", false},
	{"mount.upper_self_share", "ratio", lower, "about 1 on local-*, small on objstore-seq-z2", false},

	// core: EngineStats, CacheStats, PoolStats, MemStats, Latency().
	{"core.backend_ios_per_mib", "1/MiB", lower, movesObjTP, true},
	{"core.bytes_per_io", "B", higher, movesObjTP, false},
	{"core.write_runs", "count", lower, movesObjTP, true},
	{"core.read_runs", "count", lower, movesObjTP, true},
	{"core.cache_hit_rate", "ratio", higher, "read_p50_ms on local-rand", false},
	{"core.prefetches", "count", higher, "read_mibps on local-seq", false},
	{"core.slab_hit_rate", "ratio", higher, movesCPU, false},
	{"core.pool_tasks_per_batch", "count", higher, "write_mibps on local-seq", false},
	{"core.io_peak_inflight", "count", higher, movesObjTP, false},
	{"core.compressed_block_share", "ratio", higher, movesWireB, false},
	{"core.raw_escapes", "count", lower, movesWireB, false},
	{"core.allocs_per_op", "count", lower, movesCPU, false},
	{"core.alloc_kib_per_mib", "KiB/MiB", lower, movesCPU, false},
	{"core.fig9_encrypt_share", "ratio", lower, "write_mibps on local-seq", false},
	{"core.fig9_decrypt_share", "ratio", lower, "read_mibps on local-seq", false},
	{"core.fig9_getcekey_share", "ratio", lower, "write_mibps on local-seq", false},
	{"core.fig9_io_share", "ratio", lower, movesObjTP, false},
	{"core.fig9_misc_share", "ratio", lower, movesCPU, false},

	// cryptoutil: single-thread probe over the workload's own blocks.
	{"cryptoutil.hash_ns_per_block", "ns", lower, movesCrypto, false},
	{"cryptoutil.kdf_ns_per_block", "ns", lower, movesCrypto, false},
	{"cryptoutil.encrypt_ns_per_block", "ns", lower, movesCrypto, false},
	{"cryptoutil.decrypt_ns_per_block", "ns", lower, movesCrypto, false},
	{"cryptoutil.compress_ns_per_block", "ns", lower, "cpu_s_per_gib on objstore-seq-z2", false},
	{"cryptoutil.decompress_ns_per_block", "ns", lower, "cpu_s_per_gib on objstore-seq-z2", false},
	{"cryptoutil.sealmeta_ns", "ns", lower, "write_p50_ms on local-rand", false},
	{"cryptoutil.openmeta_ns", "ns", lower, "read_p50_ms on local-rand", false},
	{"cryptoutil.write_cpu_share", "ratio", lower, movesCrypto, false},
	{"cryptoutil.read_cpu_share", "ratio", lower, movesCrypto, false},

	// shard: EngineStats, ShardStats, route probe.
	{"shard.replica_writes", "count", lower, "write_mibps on objstore-seq-z2; stored_per_logical (xR)", true},
	{"shard.failover_reads", "count", lower, "read_p90_ms on objstore-seq-z2", false},
	{"shard.breaker_opens", "count", lower, "failed ops on objstore-seq-z2", false},
	{"shard.write_imbalance", "ratio", lower, "write_mibps on objstore-seq-z2", false},
	{"shard.peak_queue_depth", "count", lower, "write_mibps on objstore-seq-z2", false},
	{"shard.route_overhead_us_per_op", "us", lower, "cpu_s_per_gib on objstore-seq-z2", false},

	// retry: EngineStats.
	{"retry.attempts", "count", lower, "failed ops; must be 0 on a healthy link", false},
	{"retry.exhausted", "count", lower, "failed ops; must be 0 on a healthy link", false},

	// objstore: Memserver.Stats(), leaf and transport spans.
	{"objstore.requests_per_mib", "1/MiB", lower, movesObjTP, true},
	{"objstore.gets", "count", lower, "read_mibps on objstore-seq-z2", false},
	{"objstore.puts", "count", lower, "write_mibps on objstore-seq-z2", false},
	{"objstore.parts", "count", lower, "write_mibps on objstore-seq-z2", false},
	{"objstore.completes", "count", lower, "write_mibps on objstore-seq-z2", false},
	{"objstore.heads", "count", lower, movesObjTP, false},
	{"objstore.bytes_in_per_logical", "ratio", lower, movesWireB, false},
	{"objstore.bytes_out_per_logical", "ratio", lower, movesWireB, false},
	{"objstore.store_call_ms_p50", "ms", lower, movesObjTP, false},
	{"objstore.transport_ms_p50", "ms", lower, movesObjTP, false},
	{"objstore.self_share", "ratio", lower, "cpu_s_per_gib on objstore-seq-z2", false},
	{"objstore.leaf_busy_share", "ratio", higher, "above 0.5 on objstore-seq-z2: the workload is latency-bound", false},
	{"objstore.rtt_overshoot_ms", "ms", lower, "none: the box's timer noise, not the code's", false},
	{"objstore.open_uploads_end", "count", lower, "correctness: must be 0", false},

	// backend: counting shim over the memory leaf.
	{"backend.ops_per_mib", "1/MiB", lower, "cpu_s_per_gib on local-* and wire-objects", false},
	{"backend.bytes_per_logical", "ratio", lower, "wire_bytes_per_logical on local-* and wire-objects", false},
	{"backend.busy_share", "ratio", lower, "about 0 on local-* and wire-objects", false},

	// dedupe: dedupe.Engine.Scan of every leaf.
	{"dedupe.total_blocks", "count", lower, "stored_per_logical everywhere", false},
	{"dedupe.unique_blocks", "count", lower, movesDedup, false},
	{"dedupe.scan_s", "s", lower, movesNone, false},

	// trace: both halves of the traced run.
	{"trace.spans", "count", lower, movesNone, false},
	{"trace.overhead_share", "ratio", lower, "none; above 0.05 the per-layer numbers are suspect", false},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func e2eUnit(name string) string {
	for _, s := range e2eSpecs {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}

func layerUnit(name string) string {
	for _, s := range layerSpecs {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}

// runSeconds is BENCHMARK.json's run_seconds: about how long the five
// timed rounds of a workload take at the commit that added the
// benchmark.
const runSeconds = 20
