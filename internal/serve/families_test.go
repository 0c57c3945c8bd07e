package serve

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"lamassu"
)

// metricFamilies is every family /metrics exports, as (name, type).
// The unsharded mount emits all but the shard_ and hedge_store_
// families; the replicated, retried and hedged sharded mount emits
// every one.
var metricFamilies = []string{
	"lamassu_backend_io_bytes_total counter",
	"lamassu_backend_ios_total counter",
	"lamassu_backend_prefetches_total counter",
	"lamassu_backend_read_runs_total counter",
	"lamassu_backend_write_runs_total counter",
	"lamassu_breaker_opens_total counter",
	"lamassu_cache_capacity gauge",
	"lamassu_cache_entries gauge",
	"lamassu_cache_hits_total counter",
	"lamassu_cache_misses_total counter",
	"lamassu_compressed_blocks_total counter",
	"lamassu_compression_ratio gauge",
	"lamassu_failover_reads_total counter",
	"lamassu_hedge_attempts_total counter",
	"lamassu_hedge_store_reads_total counter",
	"lamassu_hedge_wins_total counter",
	"lamassu_io_inflight gauge",
	"lamassu_io_inflight_peak gauge",
	"lamassu_io_window gauge",
	"lamassu_latency_seconds_total counter",
	"lamassu_logical_bytes_total counter",
	"lamassu_pool_batches_total counter",
	"lamassu_pool_tasks_total counter",
	"lamassu_pool_width gauge",
	"lamassu_raw_escapes_total counter",
	"lamassu_read_p50_seconds gauge",
	"lamassu_read_p99_seconds gauge",
	"lamassu_rebalance_active gauge",
	"lamassu_rebalance_epoch gauge",
	"lamassu_rebalance_moved_bytes_total counter",
	"lamassu_rebalance_moved_keys_total counter",
	"lamassu_replica_writes_total counter",
	"lamassu_retries_exhausted_total counter",
	"lamassu_retry_attempts_total counter",
	"lamassu_scrub_repairs_total counter",
	"lamassu_serve_inflight gauge",
	"lamassu_serve_inflight_max gauge",
	"lamassu_serve_inflight_peak gauge",
	"lamassu_serve_rejected_total counter",
	"lamassu_serve_requests_total counter",
	"lamassu_shard_breaker_open gauge",
	"lamassu_shard_bytes_read_total counter",
	"lamassu_shard_bytes_written_total counter",
	"lamassu_shard_failures_total counter",
	"lamassu_shard_queue_depth gauge",
	"lamassu_shard_reads_total counter",
	"lamassu_shard_writes_total counter",
	"lamassu_slab_hits_total counter",
	"lamassu_slab_misses_total counter",
	"lamassu_stored_bytes_total counter",
}

// scrapeFamilies writes and reads one file through a server over m,
// then returns the sorted (name, type) pairs of its /metrics document.
func scrapeFamilies(t *testing.T, m *lamassu.Mount) []string {
	t.Helper()
	_, hs := newTestServer(t, Config{Mount: m})
	resp, body := doReq(t, "PUT", hs.URL+"/v1/files/f.bin", tokAlice, make([]byte, 16384), nil)
	wantStatus(t, resp, body, http.StatusNoContent)
	resp, body = doReq(t, "GET", hs.URL+"/v1/files/f.bin", tokAlice, nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	resp, body = doReq(t, "GET", hs.URL+"/metrics", "", nil, nil)
	wantStatus(t, resp, body, http.StatusOK)
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, rest)
		}
	}
	slices.Sort(got)
	return got
}

// TestMetricsFamilies pins the /metrics family list, so a change to
// where a count lives cannot drop or retype an exported family.
func TestMetricsFamilies(t *testing.T) {
	plain, _ := newTestMount(t, lamassu.NewMemStorage())
	var want []string
	for _, f := range metricFamilies {
		if !strings.HasPrefix(f, "lamassu_shard_") && !strings.HasPrefix(f, "lamassu_hedge_store_") {
			want = append(want, f)
		}
	}
	if got := scrapeFamilies(t, plain); !slices.Equal(got, want) {
		t.Errorf("unsharded mount families:\n got %q\nwant %q", got, want)
	}

	stores := make([]lamassu.Storage, 3)
	for i := range stores {
		stores[i] = lamassu.NewMemStorage()
	}
	sharded, err := lamassu.NewShardedStorage(stores, &lamassu.ShardOptions{Replicas: 2})
	if err != nil {
		t.Fatalf("NewShardedStorage: %v", err)
	}
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	m, err := lamassu.New(sharded, keys,
		lamassu.WithLatencyCollection(),
		lamassu.WithRetry(lamassu.RetryPolicy{}),
		lamassu.WithHedgedReads(lamassu.HedgePolicy{}))
	if err != nil {
		t.Fatalf("New sharded mount: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	if got := scrapeFamilies(t, m); !slices.Equal(got, metricFamilies) {
		t.Errorf("sharded mount families:\n got %q\nwant %q", got, metricFamilies)
	}
}
