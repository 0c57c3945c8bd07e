package layout

import (
	"bytes"
	"fmt"
	"testing"

	"lamassu/internal/backend"
)

// The record encoding is on-disk format shared by every process that
// opens a deployment; the goldens pin it byte for byte. A failure
// here means existing deployments stop recognizing their own epoch —
// it needs a format-versioning story, not a golden update.
var recordGoldens = []struct {
	rec  Record
	want string
}{
	{
		rec: Record{Epoch: 0, State: StateStable, Shards: 3, Vnodes: 64, StripeBytes: 4325376},
		want: "lamassu-layout v1\n" +
			"epoch 0\n" +
			"state stable\n" +
			"shards 3\n" +
			"vnodes 64\n" +
			"stripe 4325376\n",
	},
	{
		rec: Record{Epoch: 7, State: StateMigrating, Shards: 4, Vnodes: 64, StripeBytes: 0,
			PrevShards: 3, PrevVnodes: 64},
		want: "lamassu-layout v1\n" +
			"epoch 7\n" +
			"state migrating\n" +
			"shards 4\n" +
			"vnodes 64\n" +
			"stripe 0\n" +
			"prev-shards 3\n" +
			"prev-vnodes 64\n",
	},
	{
		rec: Record{Epoch: 2, State: StateReaping, Shards: 2, Vnodes: 32, StripeBytes: 8192,
			PrevShards: 5, PrevVnodes: 32},
		want: "lamassu-layout v1\n" +
			"epoch 2\n" +
			"state reaping\n" +
			"shards 2\n" +
			"vnodes 32\n" +
			"stripe 8192\n" +
			"prev-shards 5\n" +
			"prev-vnodes 32\n",
	},
	// Replicated records encode as v2; the replicas field sits
	// between stripe and the prev-* block.
	{
		rec: Record{Epoch: 1, State: StateStable, Shards: 4, Vnodes: 64, StripeBytes: 8192,
			Replicas: 2},
		want: "lamassu-layout v2\n" +
			"epoch 1\n" +
			"state stable\n" +
			"shards 4\n" +
			"vnodes 64\n" +
			"stripe 8192\n" +
			"replicas 2\n",
	},
	{
		rec: Record{Epoch: 3, State: StateMigrating, Shards: 5, Vnodes: 64, StripeBytes: 0,
			PrevShards: 4, PrevVnodes: 64, Replicas: 3},
		want: "lamassu-layout v2\n" +
			"epoch 3\n" +
			"state migrating\n" +
			"shards 5\n" +
			"vnodes 64\n" +
			"stripe 0\n" +
			"replicas 3\n" +
			"prev-shards 4\n" +
			"prev-vnodes 64\n",
	},
}

func TestRecordGolden(t *testing.T) {
	for i, c := range recordGoldens {
		got := c.rec.Encode()
		if !bytes.Equal(got, []byte(c.want)) {
			t.Errorf("case %d: Encode mismatch:\ngot:\n%swant:\n%s", i, got, c.want)
		}
		back, err := DecodeRecord(got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if back != c.rec {
			t.Errorf("case %d: round trip %+v -> %+v", i, c.rec, back)
		}
	}
	// v1 decodes must leave Replicas at the zero value so existing
	// deployments adopt as single-copy (ReplicaCount normalizes).
	v1, err := DecodeRecord(recordGoldens[0].rec.Encode())
	if err != nil || v1.Replicas != 0 || v1.ReplicaCount() != 1 {
		t.Fatalf("v1 decode: Replicas=%d ReplicaCount=%d err=%v", v1.Replicas, v1.ReplicaCount(), err)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	bad := []string{
		"",
		"not-a-record\n",
		"lamassu-layout v2\nepoch 0\nstate stable\nshards 1\nvnodes 64\nstripe 0\n",                                   // v2 without replicas
		"lamassu-layout v2\nepoch 0\nstate stable\nshards 2\nvnodes 64\nstripe 0\nreplicas 1\n",                       // v2 with single-copy factor
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 2\nvnodes 64\nstripe 0\nreplicas 2\n",                       // replicas is not a v1 field
		"lamassu-layout v3\nepoch 0\nstate stable\nshards 1\nvnodes 64\nstripe 0\n",                                   // unknown version
		"lamassu-layout v1\nepoch 0\nstate stable\nvnodes 64\nstripe 0\n",                                             // missing shards
		"lamassu-layout v1\nepoch 0\nstate wat\nshards 1\nvnodes 64\nstripe 0\n",                                      // bad state
		"lamassu-layout v1\nepoch 0\nstate migrating\nshards 2\nvnodes 64\nstripe 0\n",                                // migrating without prev
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 1\nshards 1\nvnodes 64\nstripe 0\n",                         // dup field
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 1\nvnodes 64\nstripe 0\nfuture-field 1\n",                   // unknown field
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 2\nvnodes -4\nstripe 0\n",                                   // negative vnodes
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 2\nvnodes 64\nstripe -9\n",                                  // negative stripe
		"lamassu-layout v2\nepoch 0\nstate stable\nshards 2\nvnodes 64\nstripe 0\nreplicas 7\n",                       // more replicas than shards
		"lamassu-layout v1\nepoch 0\nstate stable\nshards 2\nvnodes 64\nstripe 0\nprev-shards 3\n",                    // stable with a previous epoch
		"lamassu-layout v1\nepoch 2\nstate migrating\nshards 2\nvnodes 64\nstripe 0\nprev-shards 3\nprev-vnodes -1\n", // negative prev-vnodes
	}
	for i, s := range bad {
		if _, err := DecodeRecord([]byte(s)); err == nil {
			t.Errorf("case %d: decode of %q succeeded", i, s)
		}
	}
}

// FuzzDecodeRecord feeds the record parser arbitrary bytes: it must
// never panic, and every record it accepts is in range and survives
// an Encode/Decode round trip unchanged — so what a deployment reads
// back is exactly what it would have written.
func FuzzDecodeRecord(f *testing.F) {
	for _, c := range recordGoldens {
		f.Add([]byte(c.want))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		back, err := DecodeRecord(r.Encode())
		if err != nil || back != r {
			t.Fatalf("accepted %q as %+v, which round-trips to %+v, %v", data, r, back, err)
		}
		prevOK := r.PrevShards >= 1 && r.PrevVnodes >= 0
		if r.State == StateStable {
			prevOK = r.PrevShards == 0 && r.PrevVnodes == 0
		}
		if r.Shards < 1 || r.Vnodes < 0 || r.StripeBytes < 0 || !prevOK ||
			r.Replicas < 0 || r.Replicas == 1 || r.Replicas > r.Shards {
			t.Fatalf("accepted %q as out-of-range %+v", data, r)
		}
	})
}

// The resolver ordering after a crash mid-record-fanout:
// stable(E) < migrating(E+1) < reaping(E+1) < stable(E+1) < migrating(E+2).
func TestRecordNewerOrdering(t *testing.T) {
	seq := []Record{
		{Epoch: 1, State: StateStable, Shards: 2},
		{Epoch: 2, State: StateMigrating, Shards: 3, PrevShards: 2},
		{Epoch: 2, State: StateReaping, Shards: 3, PrevShards: 2},
		{Epoch: 2, State: StateStable, Shards: 3},
		{Epoch: 3, State: StateMigrating, Shards: 4, PrevShards: 3},
	}
	for i := range seq {
		for j := range seq {
			got := seq[j].Newer(seq[i])
			if want := j > i; got != want {
				t.Errorf("Newer(%d over %d) = %v, want %v", j, i, got, want)
			}
		}
	}
}

// A Layout routes exactly like its ring (the epoch never perturbs the
// hash), and stripe keys derive identically.
func TestLayoutRoutesLikeRing(t *testing.T) {
	ring, err := NewRing(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []uint64{0, 1, 42} {
		lay, err := New(epoch, 5, 64, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if lay.Epoch() != epoch {
			t.Fatalf("Epoch = %d, want %d", lay.Epoch(), epoch)
		}
		for i := 0; i < 512; i++ {
			name := fmt.Sprintf("file-%03d", i)
			off := int64(i) * 4096
			key := StripeKey(name, off/8192)
			if got, want := lay.Owner(lay.KeyOf(name, off)), ring.Lookup(key); got != want {
				t.Fatalf("epoch %d: Owner(KeyOf(%q, %d)) = %d, ring says %d", epoch, name, off, got, want)
			}
			if got, want := lay.Owner(key), ring.Lookup(key); got != want {
				t.Fatalf("Owner(%q) = %d, ring says %d", key, got, want)
			}
		}
	}
	// Whole-file placement keys are the names themselves.
	lay, err := New(0, 5, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lay.KeyOf("abc", 1<<30) != "abc" {
		t.Fatalf("whole-file KeyOf = %q", lay.KeyOf("abc", 1<<30))
	}
	if lay.Owner(lay.KeyOf("abc", 1<<30)) != ring.Lookup("abc") {
		t.Fatal("whole-file owner diverges from ring")
	}
}

// Replica sets: Owners[0] is always the single-copy owner, owners are
// distinct, stable under clamping, and WithReplicas shares the ring.
func TestLayoutOwners(t *testing.T) {
	lay, err := New(0, 5, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := lay.WithReplicas(2)
	if r2.Ring() != lay.Ring() {
		t.Fatal("WithReplicas must share the ring")
	}
	if lay.Replicas() != 1 || r2.Replicas() != 2 {
		t.Fatalf("Replicas = %d / %d", lay.Replicas(), r2.Replicas())
	}
	if lay.WithReplicas(1) != lay {
		t.Fatal("WithReplicas(same) should return the receiver")
	}
	if lay.SamePlacement(r2) {
		t.Fatal("SamePlacement must distinguish replication factors")
	}
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("file-%03d", i)
		owners := r2.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q) = %v, want 2 owners", key, owners)
		}
		if owners[0] != lay.Owner(key) {
			t.Fatalf("Owners(%q)[0] = %d, single-copy owner is %d", key, owners[0], lay.Owner(key))
		}
		if owners[0] == owners[1] {
			t.Fatalf("Owners(%q) = %v, owners must be distinct", key, owners)
		}
	}
	// Clamping: more replicas than shards degrades to all shards, and
	// the full set is a permutation of 0..shards-1.
	all := lay.WithReplicas(99)
	if all.Replicas() != 5 {
		t.Fatalf("WithReplicas(99).Replicas() = %d, want 5", all.Replicas())
	}
	seen := map[int]bool{}
	for _, s := range all.Owners("k") {
		seen[s] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Owners at R=shards covers %d shards, want 5", len(seen))
	}
	// A single-shard ring has exactly one owner no matter the factor.
	one, _ := New(0, 1, 64, 0)
	if got := one.WithReplicas(3).Owners("k"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-shard Owners = %v", got)
	}
}

func TestLayoutWithEpoch(t *testing.T) {
	lay, err := New(0, 3, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	bumped := lay.WithEpoch(9)
	if bumped.Epoch() != 9 || bumped.Ring() != lay.Ring() {
		t.Fatalf("WithEpoch: epoch %d, ring shared %v", bumped.Epoch(), bumped.Ring() == lay.Ring())
	}
	if lay.WithEpoch(0) != lay {
		t.Fatal("WithEpoch(same) should return the receiver")
	}
	if !lay.SamePlacement(bumped) {
		t.Fatal("SamePlacement must ignore epochs")
	}
	other, _ := New(0, 4, 64, 0)
	if lay.SamePlacement(other) {
		t.Fatal("SamePlacement across shard counts")
	}
}

// Records round-trip through a backend store, and RemoveRecord /
// a missing record are clean.
func TestRecordStoreRoundTrip(t *testing.T) {
	st := backend.NewMemStore()
	if _, ok, err := ReadRecord(nil, st); err != nil || ok {
		t.Fatalf("fresh store: ok=%v err=%v", ok, err)
	}
	rec := Record{Epoch: 3, State: StateStable, Shards: 2, Vnodes: 64, StripeBytes: 512}
	if err := WriteRecord(nil, st, rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadRecord(nil, st)
	if err != nil || !ok || got != rec {
		t.Fatalf("ReadRecord = %+v, %v, %v", got, ok, err)
	}
	if err := RemoveRecord(nil, st); err != nil {
		t.Fatal(err)
	}
	if err := RemoveRecord(nil, st); err != nil {
		t.Fatalf("double RemoveRecord: %v", err)
	}
	if _, ok, _ := ReadRecord(nil, st); ok {
		t.Fatal("record survived RemoveRecord")
	}
}

// TestLookupNAllocs guards the placement hot path, which the shard
// layer walks for every stripe operation: hashing a key allocates
// nothing, and LookupN allocates only the owner slice it returns.
func TestLookupNAllocs(t *testing.T) {
	r, err := NewRing(4, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	key := "segment-file\x0042"
	if a := testing.AllocsPerRun(100, func() { hashKey(key) }); a != 0 {
		t.Errorf("hashKey: %v allocations per call, want 0", a)
	}
	for _, n := range []int{1, 2, 4} {
		if a := testing.AllocsPerRun(100, func() { r.LookupN(key, n) }); a != 1 {
			t.Errorf("LookupN(key, %d): %v allocations per call, want 1 (the owner slice)", n, a)
		}
	}
}
