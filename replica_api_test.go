package lamassu

// Public-surface acceptance test for R-way replication: the loss of a
// shard mid-workload is invisible at R=2 and visible at R=1, and
// Mount.Scrub restores full redundancy once the shard returns.
// internal/shard's TestReplicatedShardLossAndScrubRepair covers the
// router below; this covers Mount.Scrub and the EngineStats wiring.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lamassu/internal/faultfs"
	"lamassu/internal/shard"
)

func TestReplicaShardLossFailoverAndScrub(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	stripe, err := SegmentStripeBytes(nil, 1) // one segment per stripe
	if err != nil {
		t.Fatal(err)
	}
	const nFiles, shards = 8, 3
	files := make([][]byte, nFiles)
	rng := rand.New(rand.NewSource(8))
	for i := range files {
		files[i] = make([]byte, 3*stripe/2) // two stripes each
		rng.Read(files[i])
	}
	name := func(i int) string { return fmt.Sprintf("f%d", i) }

	// build mounts a fresh 3-shard deployment at replication r over
	// zero-latency object stores, each behind a fault injector. The
	// victim is f0's PRIMARY owner, so the loss provably sits in the
	// preferred read path — a shard holding only secondary copies could
	// die with every read still served from its primary.
	build := func(r int) (m *Mount, faults []*faultfs.Store, victim int) {
		stores := make([]Storage, shards)
		faults = make([]*faultfs.Store, shards)
		for i := range stores {
			faults[i] = faultfs.New(NewMemObjectStorage(ObjectStoreParams{}))
			stores[i] = faults[i]
		}
		storage, err := NewShardedStorage(stores, &ShardOptions{StripeBytes: stripe, Replicas: r})
		if err != nil {
			t.Fatal(err)
		}
		lay := storage.(*shard.Store).Layout()
		victim = lay.Owners(lay.KeyOf(name(0), 0))[0]
		m, err = NewMount(storage, keys, &Options{Parallelism: 4, Replicas: r})
		if err != nil {
			t.Fatal(err)
		}
		return m, faults, victim
	}
	readAll := func(m *Mount, when string) {
		t.Helper()
		for i, data := range files {
			got, err := m.ReadFile(name(i))
			if err != nil {
				t.Fatalf("%s: read %s: %v", when, name(i), err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: readback of %s differs from the written bytes", when, name(i))
			}
		}
	}

	// R=2: the shard dies halfway through the writes and nobody notices.
	m, faults, victim := build(2)
	for i, data := range files {
		if i == nFiles/2 {
			faults[victim].ArmDownAll()
		}
		if err := m.WriteFile(name(i), data); err != nil {
			t.Fatalf("R=2 write %s with shard %d down: %v", name(i), victim, err)
		}
	}
	readAll(m, fmt.Sprintf("R=2 with shard %d down", victim))
	if st := m.EngineStats(); st.FailoverReads == 0 {
		t.Fatal("R=2 run recorded no failover reads; the outage was never on a read path")
	}

	// The shard returns with whatever it held at death; Scrub restores
	// full redundancy: ANY single shard can then die and every byte is
	// still served.
	faults[victim].DisarmDown()
	scrub, err := m.Scrub(context.Background())
	if err != nil {
		t.Fatalf("scrub after the shard returned: %v", err)
	}
	if scrub.Repairs == 0 || scrub.Unrepaired != 0 {
		t.Fatalf("scrub with every shard live: %+v, want Repairs > 0 and Unrepaired == 0", scrub)
	}
	for k := range faults {
		faults[k].ArmDownAll()
		readAll(m, fmt.Sprintf("post-scrub with shard %d down", k))
		faults[k].DisarmDown()
	}

	// R=1 control: the same loss must surface.
	mc, cfaults, victim := build(1)
	for i, data := range files {
		if err := mc.WriteFile(name(i), data); err != nil {
			t.Fatalf("R=1 pre-outage write %s: %v", name(i), err)
		}
	}
	cfaults[victim].ArmDownAll()
	if _, err := mc.ReadFile(name(0)); err == nil {
		t.Fatalf("R=1 control served %s with its only owner, shard %d, down", name(0), victim)
	}
}
