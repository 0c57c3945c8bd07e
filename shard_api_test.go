package lamassu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/layout"
)

// carve builds a sharded store out of one physical store repeated n
// times, with the default vnodes and a segment-aligned stripe.
func carve(t testing.TB, store Storage, n int) Storage {
	t.Helper()
	stripe, err := SegmentStripeBytes(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]Storage, n)
	for i := range stores {
		stores[i] = store
	}
	sharded, err := NewShardedStorage(stores, &ShardOptions{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	return sharded
}

// A carve shards one physical store n ways; the backing layout must be
// identical to the unsharded mount at every shard count, so enabling it
// on an existing deployment is safe. Data
// blocks are convergently encrypted and must match byte for byte;
// metadata blocks are GCM-sealed under random nonces (different on
// every run, sharded or not), so for them equivalence is equal
// placement and equal decoded content — which the read-back via a
// fresh unsharded mount checks.
func TestShardsCarveByteIdentical(t *testing.T) {
	keys := mustKeys(t)
	write := func(m *Mount) {
		t.Helper()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4; i++ {
			data := make([]byte, 200000*i+999)
			rng.Read(data)
			if err := m.WriteFile(fmt.Sprintf("f%d", i), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	backing := func(shards int) *backend.MemStore {
		t.Helper()
		mem := backend.NewMemStore()
		m, err := New(carve(t, mem, shards), keys, WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		write(m)
		return mem
	}
	plain := backend.NewMemStore()
	m, err := New(plain, keys)
	if err != nil {
		t.Fatal(err)
	}
	write(m)

	want, err := plain.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8} {
		mem := backing(shards)
		names, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("Shards=%d: namespace %v, want %v", shards, names, want)
		}
		geo := layout.Default()
		for _, n := range names {
			a, _ := backend.ReadFile(plain, n)
			b, _ := backend.ReadFile(mem, n)
			if len(a) != len(b) {
				t.Fatalf("Shards=%d: %s physical size %d, want %d", shards, n, len(b), len(a))
			}
			bs := geo.BlockSize
			for blk := 0; blk*bs < len(a); blk++ {
				if int64(blk)%int64(geo.SegmentBlocks()) == 0 {
					continue // metadata block: random GCM nonce
				}
				lo, hi := blk*bs, (blk+1)*bs
				if hi > len(a) {
					hi = len(a)
				}
				if !bytes.Equal(a[lo:hi], b[lo:hi]) {
					t.Fatalf("Shards=%d: %s data block %d differs from unsharded mount", shards, n, blk)
				}
			}
		}
		// The sharded bytes decrypt through a fresh UNSHARDED mount:
		// the carve changed nothing the engine can observe.
		um, err := New(mem, keys)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4; i++ {
			wantData := make([]byte, 200000*i+999)
			rng.Read(wantData)
			got, err := um.ReadFile(fmt.Sprintf("f%d", i))
			if err != nil || !bytes.Equal(got, wantData) {
				t.Fatalf("Shards=%d: f%d unreadable through unsharded mount: %v", shards, i, err)
			}
		}
	}
}

// A mount over NewShardedStorage spreads data and reports per-shard
// stats; round trips and audits stay clean.
func TestShardedStorageMount(t *testing.T) {
	keys := mustKeys(t)
	stores := make([]Storage, 4)
	mems := make([]*backend.MemStore, 4)
	for i := range stores {
		mems[i] = backend.NewMemStore()
		stores[i] = mems[i]
	}
	stripe, err := SegmentStripeBytes(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if stripe%4096 != 0 {
		t.Fatalf("SegmentStripeBytes = %d, not block-aligned", stripe)
	}
	storage, err := NewShardedStorage(stores, &ShardOptions{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(storage, keys, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("vm-%d.img", i)
		data := make([]byte, int(stripe)*i/2+5000)
		rng.Read(data)
		contents[name] = data
		if err := m.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range contents {
		got, err := m.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
		rep, err := m.Check(name)
		if err != nil || !rep.Clean() {
			t.Fatalf("%s: audit: %+v, %v", name, rep, err)
		}
	}

	stats := m.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats = %d entries, want 4", len(stats))
	}
	var wrote int
	for _, s := range stats {
		if s.BytesWritten > 0 {
			wrote++
		}
		if s.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d at idle", s.Shard, s.QueueDepth)
		}
	}
	if wrote < 2 {
		t.Fatalf("writes reached only %d shards", wrote)
	}

	// An unsharded mount reports no shard stats.
	plain, err := New(NewMemStorage(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.ShardStats(); s != nil {
		t.Fatalf("unsharded mount ShardStats = %v, want nil", s)
	}
}

// EncryptNames must compose with a sharded store: name encryption is
// pushed inside each shard so the engine still sees the sharding seam
// (ShardStats) while the backing file names are encrypted.
func TestEncryptNamesOverShardedStorage(t *testing.T) {
	keys := mustKeys(t)
	mems := []*backend.MemStore{backend.NewMemStore(), backend.NewMemStore(), backend.NewMemStore()}
	storage, err := NewShardedStorage([]Storage{mems[0], mems[1], mems[2]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(storage, keys, WithEncryptedNames(), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("secret"), 5000)
	if err := m.WriteFile("visible-name", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("visible-name")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	names, err := m.List()
	if err != nil || len(names) != 1 || names[0] != "visible-name" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// The seam engaged: ShardStats has an entry per shard.
	stats := m.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("ShardStats = %d entries, want 3 (sharding lost behind namecrypt?)", len(stats))
	}
	// And the backing names really are encrypted on every shard.
	for i, mem := range mems {
		raw, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range raw {
			if n == "visible-name" {
				t.Fatalf("shard %d stores the plaintext name", i)
			}
		}
	}
}

// Rebalancing a deployment written with EncryptNames: the zone keys
// give RebalanceShards the same plaintext-name placement view the
// mount used, so every file survives the migration.
func TestRebalanceShardsEncryptedNames(t *testing.T) {
	for _, replicas := range []int{0, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			var so *ShardOptions
			if replicas > 0 {
				so = &ShardOptions{Replicas: replicas}
			}
			keys := mustKeys(t)
			stores := []Storage{NewMemStorage(), NewMemStorage(), NewMemStorage()}
			old, err := NewShardedStorage(stores, so)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(old, keys, WithEncryptedNames())
			if err != nil {
				t.Fatal(err)
			}
			contents := map[string][]byte{}
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("secret-doc-%d", i)
				data := make([]byte, 7000+i*450)
				rng.Read(data)
				contents[name] = data
				if err := m.WriteFile(name, data); err != nil {
					t.Fatal(err)
				}
			}

			grown, err := NewShardedStorage(append(stores, NewMemStorage()), so)
			if err != nil {
				t.Fatal(err)
			}
			st, err := RebalanceShards(old, grown, keys)
			if err != nil {
				t.Fatal(err)
			}
			if st.Files != len(contents) {
				t.Fatalf("rebalance examined %d files, want %d", st.Files, len(contents))
			}

			m2, err := New(grown, keys, WithEncryptedNames())
			if err != nil {
				t.Fatal(err)
			}
			names, err := m2.List()
			if err != nil || len(names) != len(contents) {
				t.Fatalf("List after rebalance = %d files (%v), want %d", len(names), err, len(contents))
			}
			for name, want := range contents {
				got, err := m2.ReadFile(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: read after rebalance: %v", name, err)
				}
			}
			if _, err := RebalanceShards(old, grown, keys, keys); err == nil {
				t.Fatal("two key pairs accepted")
			}
		})
	}
}

// Growing a sharded deployment through the public API: rebalance,
// then mount the grown view and read everything back.
func TestRebalanceShardsPublicAPI(t *testing.T) {
	keys := mustKeys(t)
	stores := []Storage{NewMemStorage(), NewMemStorage()}
	old, err := NewShardedStorage(stores, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(old, keys)
	if err != nil {
		t.Fatal(err)
	}
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("doc-%d", i)
		data := make([]byte, 9000+i*777)
		rng.Read(data)
		contents[name] = data
		if err := m.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}

	grown, err := NewShardedStorage(append(stores, NewMemStorage()), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RebalanceShards(old, grown)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != len(contents) {
		t.Fatalf("rebalance examined %d files, want %d", st.Files, len(contents))
	}

	m2, err := New(grown, keys)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range contents {
		got, err := m2.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read after rebalance: %v", name, err)
		}
	}

	if _, err := RebalanceShards(NewMemStorage(), grown); err == nil {
		t.Fatal("RebalanceShards accepted a non-sharded store")
	}
}

func TestShardOptionErrors(t *testing.T) {
	keys := mustKeys(t)
	// A stripe that is not a multiple of the block size would let a
	// block write straddle two shards, breaking the §2.4 whole-block
	// atomicity assumption; the mount must refuse it.
	misaligned, err := NewShardedStorage(
		[]Storage{NewMemStorage(), NewMemStorage()},
		&ShardOptions{StripeBytes: 3000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(misaligned, keys); err == nil {
		t.Fatal("block-straddling stripe accepted")
	}
	if _, err := NewShardedStorage(nil, nil); err == nil {
		t.Fatal("empty store list accepted")
	}
}
