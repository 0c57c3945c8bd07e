package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/fstest"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

func testKey(b byte) cryptoutil.Key {
	var k cryptoutil.Key
	for i := range k {
		k[i] = b ^ byte(i*11)
	}
	return k
}

func memStores(n int) ([]backend.Store, []*backend.MemStore) {
	stores := make([]backend.Store, n)
	mems := make([]*backend.MemStore, n)
	for i := range stores {
		mems[i] = backend.NewMemStore()
		stores[i] = mems[i]
	}
	return stores, mems
}

func newShardStore(t *testing.T, n int, stripe int64) (*shard.Store, []*backend.MemStore) {
	t.Helper()
	stores, mems := memStores(n)
	s, err := shard.New(stores, shard.Config{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	return s, mems
}

// Whole-file placement: each file lives entirely on the shard owning
// its name, and the namespace operations see one coherent store.
func TestWholeFilePlacement(t *testing.T) {
	s, mems := newShardStore(t, 4, 0)
	contents := map[string][]byte{}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("file-%02d", i)
		data := bytes.Repeat([]byte{byte(i)}, 100+i*37)
		contents[name] = data
		if err := backend.WriteFile(s, name, data); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range contents {
		got, err := backend.ReadFile(s, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
		// Exactly one shard holds the file, and it is the ring owner.
		owner := s.Layout().Owner(s.Layout().KeyOf(name, 0))
		holders := 0
		for i, m := range mems {
			if _, err := m.Stat(name); err == nil {
				holders++
				if i != owner {
					t.Fatalf("%s: found on shard %d, owner is %d", name, i, owner)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("%s: on %d shards, want exactly 1", name, holders)
		}
		sz, err := s.Stat(name)
		if err != nil || sz != int64(len(want)) {
			t.Fatalf("%s: Stat = %d, %v", name, sz, err)
		}
	}
	// Placement actually spreads: with 32 files over 4 shards every
	// shard should see at least one.
	for i, m := range mems {
		names, err := m.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) == 0 {
			t.Errorf("shard %d received no files from 32 placements", i)
		}
	}
	names, err := s.List()
	if err != nil || len(names) != len(contents) {
		t.Fatalf("List = %d names, %v; want %d", len(names), err, len(contents))
	}
	for _, n := range names {
		if err := s.Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("file-00"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Remove(removed) = %v, want ErrNotExist", err)
	}
}

// Striped placement: a large file's ranges land on different shards,
// keep their global offsets, and read back through the union view,
// with zero-fill holes preserved across shard boundaries.
func TestStripedReadWrite(t *testing.T) {
	const stripe = 1024
	s, mems := newShardStore(t, 4, stripe)

	data := make([]byte, 16*stripe+123)
	rand.New(rand.NewSource(5)).Read(data)
	if err := backend.WriteFile(s, "big", data); err != nil {
		t.Fatal(err)
	}
	got, err := backend.ReadFile(s, "big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("striped round trip failed: %v", err)
	}
	// More than one shard must hold part of the file.
	holders := 0
	for _, m := range mems {
		if _, err := m.Stat("big"); err == nil {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("striped file landed on %d shards, want >= 2", holders)
	}
	if sz, err := s.Stat("big"); err != nil || sz != int64(len(data)) {
		t.Fatalf("Stat = %d, %v, want %d", sz, err, len(data))
	}

	// A sparse write far past EOF: the gap reads as zeros even though
	// the intervening stripes belong to shards that never saw a byte.
	f, err := s.Open("sparse", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	tail := []byte("tail")
	if _, err := f.WriteAt(tail, 10*stripe); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10*stripe+len(tail))
	if err := backend.ReadFull(f, buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*stripe; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, buf[i])
		}
	}
	if !bytes.Equal(buf[10*stripe:], tail) {
		t.Fatal("tail corrupted")
	}
	if sz, err := f.Size(); err != nil || sz != 10*stripe+int64(len(tail)) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	// Reads crossing EOF return io.EOF like any other backend file.
	if _, err := f.ReadAt(make([]byte, 8), 10*stripe+int64(len(tail))-2); !errors.Is(err, io.EOF) {
		t.Fatalf("read across EOF: %v, want io.EOF", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, backend.ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

// Reading holes must not materialize stripe files: only writes may
// create a shard's copy of a file.
func TestReadDoesNotMaterializeStripes(t *testing.T) {
	const stripe = 1024
	s, mems := newShardStore(t, 4, stripe)
	f, err := s.Open("sparse", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("end"), 12*stripe); err != nil {
		t.Fatal(err)
	}
	holders := func() int {
		n := 0
		for _, m := range mems {
			if _, err := m.Stat("sparse"); err == nil {
				n++
			}
		}
		return n
	}
	before := holders()
	// Sweep the whole file, including every hole stripe, through both
	// the writable handle and a fresh read-only one.
	buf := make([]byte, 12*stripe+3)
	if err := backend.ReadFull(f, buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("sparse", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.ReadFull(r, buf, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if after := holders(); after != before {
		t.Fatalf("reads materialized stripe files: %d holders -> %d", before, after)
	}
}

// Truncate across stripes: shrink cuts every shard's copy, re-grow
// zero-fills, and the global size tracks exactly.
func TestStripedTruncate(t *testing.T) {
	const stripe = 1024
	s, _ := newShardStore(t, 3, stripe)
	data := make([]byte, 8*stripe)
	rand.New(rand.NewSource(6)).Read(data)
	if err := backend.WriteFile(s, "t", data); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("t", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, size := range []int64{5*stripe + 7, 2 * stripe, 0, 3*stripe + 1} {
		if err := f.Truncate(size); err != nil {
			t.Fatalf("Truncate(%d): %v", size, err)
		}
		if sz, err := f.Size(); err != nil || sz != size {
			t.Fatalf("after Truncate(%d): Size = %d, %v", size, sz, err)
		}
		if st, err := s.Stat("t"); err != nil || st != size {
			t.Fatalf("after Truncate(%d): Stat = %d, %v", size, st, err)
		}
	}
	// The final grow from 0 re-exposed only zeros.
	buf := make([]byte, 3*stripe+1)
	if err := backend.ReadFull(f, buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("regrown byte %d = %#x, want 0", i, b)
		}
	}
}

// Carving N logical shards out of ONE physical store must be
// byte-for-byte invisible: same names, same bytes as writing the
// store directly. This is the property that makes Options.Shards safe
// to enable on an existing deployment.
func TestSameStoreCarveIsByteIdentical(t *testing.T) {
	writeAll := func(s backend.Store) {
		t.Helper()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 8; i++ {
			data := make([]byte, 3000*i+17)
			rng.Read(data)
			if err := backend.WriteFile(s, fmt.Sprintf("f%d", i), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := backend.NewMemStore()
	writeAll(plain)

	carved := backend.NewMemStore()
	cs, err := shard.New(
		[]backend.Store{carved, carved, carved, carved},
		shard.Config{StripeBytes: 1024},
	)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(cs)

	plainNames, _ := plain.List()
	carvedNames, _ := carved.List()
	if fmt.Sprint(plainNames) != fmt.Sprint(carvedNames) {
		t.Fatalf("namespaces differ: %v vs %v", plainNames, carvedNames)
	}
	for _, n := range plainNames {
		a, _ := backend.ReadFile(plain, n)
		b, _ := backend.ReadFile(carved, n)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: carved bytes differ from direct bytes", n)
		}
	}
}

// Rename across shards moves the data to the new name's placement.
func TestRenameMovesPlacement(t *testing.T) {
	for _, stripe := range []int64{0, 1024} {
		s, mems := newShardStore(t, 4, stripe)
		data := make([]byte, 5000)
		rand.New(rand.NewSource(8)).Read(data)
		if err := backend.WriteFile(s, "old-name", data); err != nil {
			t.Fatal(err)
		}
		if err := s.Rename("old-name", "new-name"); err != nil {
			t.Fatal(err)
		}
		got, err := backend.ReadFile(s, "new-name")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("stripe=%d: rename lost data: %v", stripe, err)
		}
		if _, err := s.Stat("old-name"); !errors.Is(err, backend.ErrNotExist) {
			t.Fatalf("stripe=%d: old name still visible: %v", stripe, err)
		}
		for i, m := range mems {
			if _, err := m.Stat("old-name"); err == nil {
				t.Fatalf("stripe=%d: shard %d still holds the old name", stripe, i)
			}
		}
		names, _ := s.List()
		if len(names) != 1 || names[0] != "new-name" {
			t.Fatalf("stripe=%d: List = %v", stripe, names)
		}
	}
}

// Per-shard I/O counters attribute traffic to the shards that served
// it.
func TestStoreStats(t *testing.T) {
	s, _ := newShardStore(t, 3, 1024)
	data := make([]byte, 10*1024)
	rand.New(rand.NewSource(12)).Read(data)
	if err := backend.WriteFile(s, "f", data); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.ReadFile(s, "f"); err != nil {
		t.Fatal(err)
	}
	var wr, rd int64
	for _, st := range s.Stats() {
		wr += st.BytesWritten
		rd += st.BytesRead
	}
	if wr != int64(len(data)) {
		t.Fatalf("BytesWritten total = %d, want %d", wr, len(data))
	}
	if rd != int64(len(data)) {
		t.Fatalf("BytesRead total = %d, want %d", rd, len(data))
	}
	spread := 0
	for _, st := range s.Stats() {
		if st.BytesWritten > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("write traffic hit %d shards, want >= 2", spread)
	}
}

// The full LamassuFS conformance suite over sharded stores: whole-file
// placement, aggressive 2-block striping, and a parallel engine with
// cache — the sharded store must be semantically invisible to the
// engine in every configuration.
func TestConformanceThroughCore(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		stripe int64
		cfg    func(core.Config) core.Config
	}{
		{"WholeFile3Shards", 3, 0, nil},
		{"Striped2Blocks4Shards", 4, 8192, nil},
		{"Striped1Shard", 1, 8192, nil},
		{"StripedParallelCached", 4, 8192, func(c core.Config) core.Config {
			c.Parallelism = 4
			c.CacheBlocks = 64
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fstest.Conformance(t, func(t *testing.T) vfs.FS {
				stores, _ := memStores(tc.shards)
				s, err := shard.New(stores, shard.Config{StripeBytes: tc.stripe})
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{Inner: testKey(1), Outer: testKey(2)}
				if tc.cfg != nil {
					cfg = tc.cfg(cfg)
				}
				fs, err := core.New(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			})
		})
	}
}

// A sharded mount's commits and reads reach several shards, and each
// slot counts its own leaf reads and writes, with none in flight at
// idle.
func TestShardBudgetsThroughCore(t *testing.T) {
	stores, _ := memStores(4)
	segBytes := layout.Default().SegmentPhysBytes()
	s, err := shard.New(stores, shard.Config{StripeBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.New(s, core.Config{Inner: testKey(1), Outer: testKey(2), Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Spread several segments so multiple shards see commits.
	data := make([]byte, 6*segBytes)
	rand.New(rand.NewSource(13)).Read(data)
	if err := vfs.WriteAll(fs, "f", data[:fs.Geometry().SegmentDataBytes()*6]); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadAll(fs, "f"); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if len(stats) != 4 {
		t.Fatalf("Stats len = %d, want 4", len(stats))
	}
	active := 0
	for _, st := range stats {
		if st.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth = %d at idle, want 0", st.Shard, st.QueueDepth)
		}
		if (st.Reads > 0) != (st.Writes > 0) {
			t.Fatalf("shard %d: %d reads, %d writes; a shard written to must serve the read-back", st.Shard, st.Reads, st.Writes)
		}
		if st.Writes > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("%d shards saw traffic, want the segments spread over several", active)
	}
}
