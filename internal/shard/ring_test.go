package shard

import (
	"fmt"
	"testing"
)

// Placement is part of the on-disk format of a sharded deployment: a
// ring built from the same (shards, vnodes) must place every key
// identically in every process, forever. The golden values pin the
// hash construction — if this test fails, the change breaks every
// existing sharded deployment and needs a Rebalance story, not a
// golden update.
func TestRingGoldenPlacement(t *testing.T) {
	r, err := NewRing(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]int{
		"a":                        1,
		"alpha":                    2,
		"file-001":                 3,
		"file-002":                 3,
		"vm/disk0.img":             1,
		"some/deep/path/block.dat": 2,
		"zeta":                     4,
		"f\x001":                   0, // stripe keys (name NUL index)
		"f\x0042":                  2,
	}
	for k, want := range golden {
		if got := r.Lookup(k); got != want {
			t.Errorf("Lookup(%q) = %d, want %d", k, got, want)
		}
	}
}

// RelocationGolden pins what a relocation leaves on the stores: the
// SHA-256 of the sorted (slot, name, bytes) raw dump after rebalancing
// relocationFixture (rebalance_test.go) across each topology change.
// The digests were captured from the offline Rebalance pass this
// repository carried until PR 18 — a second, independently written
// relocation routine — immediately before it was deleted, so they are
// a reference the surviving mover did not produce. Where bytes land,
// which stale ranges are wiped and which copies are reaped are all
// deployment-visible: a failure here means rebalanced deployments would
// come out different, not a stale test.
var RelocationGolden = map[string]string{
	"2->3/r=1/stripe=0":    "8f60698f3c1163f8271cda64e8f34465316680676e8cd38eeba45c2b39a8405b",
	"2->3/r=1/stripe=4096": "7571b7ced36e59694a184c1af5a8a2c35d73eb38cbd05410e1727ee267e1bc5d",
	"4->3/r=1/stripe=0":    "8f60698f3c1163f8271cda64e8f34465316680676e8cd38eeba45c2b39a8405b",
	"4->3/r=1/stripe=4096": "55535d723b7b60e0bddb1d8b2bf76d9a89b812a6a7a1e0569df5c4587420ed5c",
	"3->4/r=2/stripe=0":    "1f048d0605f92a13c81ff80261d544105dff16354cd1fc2314d9c4b04a839e31",
	"3->4/r=2/stripe=4096": "cc90241bc7bf56293962b2b6e5c593009b9495dc671d405f33fa232f4561428a",
	"4->3/r=2/stripe=0":    "7ef3323b1535b11f077b12e18ced95a347157afbe26c52d32a9b75816e160de0",
	"4->3/r=2/stripe=4096": "8157a8189beb535b594eb06b9ca2f08b080c30240f88c0d7a3d84faf3cf76a43",
}

// Replica placement is equally part of the on-disk format: the next R
// distinct shards clockwise from the owner hold the copies, so a ring
// built from the same parameters must produce the same owner LIST for
// every key, forever. Slot 0 of every list is the Lookup owner — the
// replicated layout is a strict extension of the single-copy one, so
// R=1 deployments are untouched by the replication code. Like the
// golden above, a failure here means broken deployments, not a stale
// test.
func TestRingGoldenOwners(t *testing.T) {
	r, err := NewRing(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]struct{ r2, r3 []int }{
		"a":                        {[]int{1, 4}, []int{1, 4, 2}},
		"alpha":                    {[]int{2, 0}, []int{2, 0, 4}},
		"file-001":                 {[]int{3, 4}, []int{3, 4, 1}},
		"file-002":                 {[]int{3, 0}, []int{3, 0, 1}},
		"vm/disk0.img":             {[]int{1, 0}, []int{1, 0, 3}},
		"some/deep/path/block.dat": {[]int{2, 3}, []int{2, 3, 1}},
		"zeta":                     {[]int{4, 1}, []int{4, 1, 0}},
		"f\x001":                   {[]int{0, 4}, []int{0, 4, 3}},
		"f\x0042":                  {[]int{2, 3}, []int{2, 3, 4}},
	}
	for k, want := range golden {
		if got := r.LookupN(k, 2); !equalInts(got, want.r2) {
			t.Errorf("LookupN(%q, 2) = %v, want %v", k, got, want.r2)
		}
		if got := r.LookupN(k, 3); !equalInts(got, want.r3) {
			t.Errorf("LookupN(%q, 3) = %v, want %v", k, got, want.r3)
		}
		if got := r.LookupN(k, 1); len(got) != 1 || got[0] != r.Lookup(k) {
			t.Errorf("LookupN(%q, 1) = %v, want [%d]", k, got, r.Lookup(k))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Two rings with the same parameters agree on every key (the in-
// process half of determinism; the golden test covers cross-process).
func TestRingDeterminism(t *testing.T) {
	a, err := NewRing(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("object-%d", i)
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("rings with identical parameters disagree on %q", k)
		}
	}
}

// At the default vnode count the load imbalance across shards stays
// within a factor of ~2 of fair share (measured ±25%; the factor-2
// bound leaves headroom for key-set variation).
func TestRingDistribution(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		r, err := NewRing(shards, 0) // 0 selects DefaultVnodes
		if err != nil {
			t.Fatal(err)
		}
		if r.Vnodes() != DefaultVnodes {
			t.Fatalf("Vnodes = %d, want default %d", r.Vnodes(), DefaultVnodes)
		}
		const keys = 10000
		counts := make([]int, shards)
		for i := 0; i < keys; i++ {
			counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
		}
		fair := keys / shards
		for s, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Errorf("shards=%d: shard %d holds %d keys (fair %d); distribution too skewed: %v",
					shards, s, c, fair, counts)
			}
		}
	}
}

// The consistent-hashing contract: growing N shards to N+1 moves keys
// only onto the new shard, and only about 1/(N+1) of them.
func TestRingGrowthMovesOnlyToNewShard(t *testing.T) {
	const keys = 8192
	for n := 1; n <= 8; n++ {
		old, err := NewRing(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := NewRing(n+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%d", i)
			o, g := old.Lookup(k), grown.Lookup(k)
			if o != g {
				moved++
				if g != n {
					t.Fatalf("n=%d: key %q moved %d -> %d, not to the new shard %d", n, k, o, g, n)
				}
			}
		}
		fair := keys / (n + 1)
		if moved > fair*5/2 {
			t.Errorf("n=%d: %d keys moved, more than 2.5x the fair share %d", n, moved, fair)
		}
		if moved == 0 {
			t.Errorf("n=%d: no keys moved to the new shard at all", n)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r, err := NewRing(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a", "anything at all"} {
		if r.Lookup(k) != 0 {
			t.Fatalf("single-shard ring sent %q to shard %d", k, r.Lookup(k))
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(0, 8); err == nil {
		t.Fatal("NewRing(0, 8) succeeded")
	}
	if _, err := NewRing(-1, 8); err == nil {
		t.Fatal("NewRing(-1, 8) succeeded")
	}
}
