package lamassu

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// The coalescing acceptance bound through the public API: a sequential
// full-segment append is one run, and costs under a quarter of the
// paper's m+2 backend I/Os for an m-block commit. internal/core's
// iostats_test.go restates that cost model as counts of the engine on
// strided overwrites, where no two blocks are adjacent.
func TestMountCoalescedSegmentCommit(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(NewMemStorage(), keys, WithLatencyCollection())
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 118 // one full segment at the default geometry
	buf := make([]byte, 4096)
	for i := 0; i < blocks; i++ {
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.EngineStats()
	if 4*st.BackendIOs > blocks+2 {
		t.Fatalf("%d backend I/Os for a %d-block append, want under a quarter of the paper's m+2 = %d",
			st.BackendIOs, blocks, blocks+2)
	}
	if st.WriteRuns != 1 {
		t.Fatalf("full-segment append coalesced into %d runs, want 1", st.WriteRuns)
	}
	if st.BytesPerIO <= 4096 {
		t.Fatalf("coalesced BytesPerIO = %.0f, want > one block", st.BytesPerIO)
	}
}

// Coalesced runs must split at shard stripe boundaries: with 2-block
// stripes, a full-segment commit becomes one run per stripe-contiguous
// piece, every piece landing wholly on one shard, and the data must
// round-trip.
func TestMountCoalescedRunsSplitAtStripeBoundary(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const stripe = 2 * 4096
	stores := make([]Storage, 3)
	for i := range stores {
		stores[i] = NewMemStorage()
	}
	storage, err := NewShardedStorage(stores, &ShardOptions{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(storage, keys, WithLatencyCollection(), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 118*4096) // one full segment, written in one call
	rand.New(rand.NewSource(42)).Read(data)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	// Expected runs: data blocks of segment 0 occupy backing offsets
	// [bs, 119*bs); a run breaks wherever a 2-block stripe boundary
	// falls between adjacent blocks.
	wantRuns := int64(0)
	for b := 0; b < 118; b++ {
		off := int64(4096) * int64(1+b)
		if b == 0 || off/stripe != (off-4096)/stripe {
			wantRuns++
		}
	}
	st := m.EngineStats()
	if st.WriteRuns != wantRuns {
		t.Fatalf("WriteRuns = %d, want %d (runs split at every stripe edge)", st.WriteRuns, wantRuns)
	}

	// Every shard that owns stripes saw backend writes and commit
	// tasks charged to its budget.
	active := 0
	for _, s := range m.ShardStats() {
		if s.Writes > 0 {
			active++
			if s.Tasks == 0 {
				t.Fatalf("shard %d received writes but no budget tasks", s.Shard)
			}
		}
	}
	if active < 2 {
		t.Fatalf("only %d shards active; striping is not spreading", active)
	}

	// Round-trip through a cold mount, exercising the coalesced read
	// path across the same stripe boundaries.
	m2, err := New(storage, keys, WithLatencyCollection())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped coalesced round-trip corrupted data")
	}
	if rr := m2.EngineStats().ReadRuns; rr == 0 {
		t.Fatal("coalesced read issued no runs")
	}
}

// WithReadahead: a sequential scan through the mount prefetches ahead
// into the block cache.
func TestMountReadahead(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(NewMemStorage(), keys, WithLatencyCollection(), WithCache(2048), WithReadahead(32))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512*4096)
	rand.New(rand.NewSource(7)).Read(data)
	if err := m.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		off := int64(i%256) * 4096
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+4096]) {
			t.Fatalf("block %d: wrong bytes", i%256)
		}
		if m.EngineStats().Prefetches > 0 || time.Now().After(deadline) {
			break
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if m.EngineStats().Prefetches == 0 {
		t.Fatal("sequential scan issued no prefetch")
	}
}
