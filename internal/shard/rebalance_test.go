package shard_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/faultfs"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

// populate writes a mix of whole-file and striped files through a
// LamassuFS over the sharded store and returns the plaintext contents.
func populate(t *testing.T, s *shard.Store, seed int64) map[string][]byte {
	t.Helper()
	fs, err := core.New(s, core.Config{Inner: testKey(1), Outer: testKey(2)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	contents := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("file-%02d", i)
		// Sizes straddle the stripe unit so some files stay whole and
		// some spread across shards; one file is empty.
		size := i * 2500
		data := make([]byte, size)
		rng.Read(data)
		if err := vfs.WriteAll(fs, name, data); err != nil {
			t.Fatal(err)
		}
		contents[name] = data
	}
	return contents
}

// verify opens a LamassuFS over the sharded store and checks that
// every file decrypts, hash-verifies and matches its content.
func verify(t *testing.T, s *shard.Store, contents map[string][]byte) {
	t.Helper()
	fs, err := core.New(s, core.Config{Inner: testKey(1), Outer: testKey(2)})
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(contents) {
		t.Fatalf("List = %d files, want %d (%v)", len(names), len(contents), names)
	}
	for name, want := range contents {
		got, err := vfs.ReadAll(fs, name)
		if err != nil {
			t.Fatalf("%s: read after rebalance: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content diverged after rebalance", name)
		}
		rep, err := fs.Check(name)
		if err != nil || !rep.Clean() {
			t.Fatalf("%s: audit after rebalance: %+v, %v", name, rep, err)
		}
	}
	// The reads above prove one copy per key; the placement oracle
	// proves every owner's. Mid-migration the new owners are still
	// being filled, so it applies to settled stores only.
	if !s.Migrating() {
		raw := make(map[string][]byte, len(contents))
		for name := range contents {
			if raw[name], err = backend.ReadFile(s, name); err != nil {
				t.Fatal(err)
			}
		}
		verifyPlacement(t, s, raw)
	}
}

// verifyRaw is verify for files written straight through the store:
// the namespace and every byte read back match, and a settled store
// passes the placement oracle.
func verifyRaw(t *testing.T, s *shard.Store, raw map[string][]byte) {
	t.Helper()
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(raw) {
		t.Fatalf("List = %d files, want %d (%v)", len(names), len(raw), names)
	}
	for name, want := range raw {
		got, err := backend.ReadFile(s, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: raw read-back diverged: %v", name, err)
		}
	}
	if !s.Migrating() {
		verifyPlacement(t, s, raw)
	}
}

// verifyPlacement is the relocation oracle, derived from Layout.Owners
// alone — no mover, no reaper, no routing code: given each file's raw
// backing bytes, every owner of every placement key holds the source
// bytes of that key's range (a copy that ends early reads as zeros, the
// sparse layout's hole rule), the owners of the final byte are exactly
// the physical size long, and a store owning no key of the file holds
// no copy of it.
func verifyPlacement(t *testing.T, s *shard.Store, raw map[string][]byte) {
	t.Helper()
	lay, stores := s.Layout(), s.Shards()
	for name, src := range raw {
		phys := int64(len(src))
		copies := map[backend.Store][]byte{}
		for _, st := range stores {
			data, err := backend.ReadFile(st, name)
			if err == nil {
				copies[st] = data
			} else if !errors.Is(err, backend.ErrNotExist) {
				t.Fatal(err)
			}
		}
		owners := map[backend.Store]bool{}
		for _, sl := range lay.Owners(lay.KeyOf(name, 0)) {
			owners[stores[sl]] = true
			if _, ok := copies[stores[sl]]; !ok {
				t.Fatalf("%s: home owner slot %d holds no copy", name, sl)
			}
		}
		stripe := lay.StripeBytes()
		if stripe <= 0 {
			stripe = max(phys, 1)
		}
		for lo := int64(0); lo < phys; lo += stripe {
			hi := min(lo+stripe, phys)
			for _, sl := range lay.Owners(lay.KeyOf(name, lo)) {
				owners[stores[sl]] = true
				got := make([]byte, hi-lo)
				if c := copies[stores[sl]]; int64(len(c)) > lo {
					copy(got, c[lo:])
				}
				if !bytes.Equal(got, src[lo:hi]) {
					t.Fatalf("%s: owner slot %d diverges from the source in [%d,%d)", name, sl, lo, hi)
				}
				if hi == phys && int64(len(copies[stores[sl]])) != phys {
					t.Fatalf("%s: final-byte owner slot %d is %d bytes long, want %d",
						name, sl, len(copies[stores[sl]]), phys)
				}
			}
		}
		for sl, st := range stores {
			if _, held := copies[st]; held && !owners[st] {
				t.Fatalf("%s: slot %d owns no key of the file but holds a copy", name, sl)
			}
		}
	}
}

// relocationFixture writes a deterministic file set straight through
// the sharded store — raw seeded bytes, not a LamassuFS, whose sealed
// metadata carries fresh nonces and so never reproduces byte for byte.
// Sizes straddle the stripe unit, one file is empty, and one ends in
// two hole stripes (the final-byte anchor case).
func relocationFixture(t *testing.T, s *shard.Store) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	raw := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("raw-%02d", i)
		data := make([]byte, i*2500)
		rng.Read(data)
		if err := backend.WriteFile(s, name, data); err != nil {
			t.Fatal(err)
		}
		raw[name] = data
	}
	head := make([]byte, 5000)
	rng.Read(head)
	f, err := s.Open("raw-hole", backend.OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(13000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw["raw-hole"] = append(head, make([]byte, 8000)...)
	return raw
}

// dumpDigest is the SHA-256 over the sorted (slot, name, bytes) raw
// dump of a deployment, layout records excluded.
func dumpDigest(t *testing.T, stores []backend.Store) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	for slot, files := range rawDump(t, stores) {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			put(uint64(slot))
			put(uint64(len(name)))
			h.Write([]byte(name))
			put(uint64(len(files[name])))
			h.Write(files[name])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relocationRow is one topology change of the relocation golden.
type relocationRow struct {
	from, to, replicas int
	stripe             int64
}

func (r relocationRow) String() string {
	return fmt.Sprintf("%d->%d/r=%d/stripe=%d", r.from, r.to, r.replicas, r.stripe)
}

// build lays the fixture out over the first r.from of max(from, to)
// fresh stores and returns all of them, the shard config and the
// fixture bytes.
func (r relocationRow) build(t *testing.T) (all []backend.Store, cfg shard.Config, raw map[string][]byte) {
	t.Helper()
	cfg = shard.Config{StripeBytes: r.stripe, Replicas: r.replicas}
	all, _ = memStores(max(r.from, r.to))
	src, err := shard.New(all[:r.from], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return all, cfg, relocationFixture(t, src)
}

// assertRelocated checks a finished relocation of r both ways: the raw
// dump matches the pinned digest, and the settled store passes the
// placement oracle.
func (r relocationRow) assertRelocated(t *testing.T, label string, all []backend.Store, settled *shard.Store, raw map[string][]byte) {
	t.Helper()
	if got, want := dumpDigest(t, all), shard.RelocationGolden[r.String()]; got != want {
		t.Fatalf("%s: %s: raw dump digest %s, golden %s", label, r, got, want)
	}
	verifyPlacement(t, settled, raw)
}

var relocationRows = []relocationRow{
	{2, 3, 1, 0}, {2, 3, 1, 4096}, {4, 3, 1, 0}, {4, 3, 1, 4096},
	{3, 4, 2, 0}, {3, 4, 2, 4096}, {4, 3, 2, 0}, {4, 3, 2, 4096},
}

// The one relocation engine reproduces, byte for byte, what the
// retired offline pass produced on the same fixture — grow and shrink,
// whole-file and striped, single-copy and 2-way replicated — and the
// result satisfies the placement oracle; a rerun over the settled
// deployment with fresh Store objects moves nothing.
func TestRebalanceRelocationGolden(t *testing.T) {
	for _, r := range relocationRows {
		t.Run(r.String(), func(t *testing.T) {
			all, cfg, raw := r.build(t)
			views := func() (from, to *shard.Store) {
				from, err := shard.New(all[:r.from], cfg)
				if err != nil {
					t.Fatal(err)
				}
				to, err = shard.New(all[:r.to], cfg)
				if err != nil {
					t.Fatal(err)
				}
				return from, to
			}
			from, to := views()
			st, err := shard.RebalanceCtx(context.Background(), from, to)
			if err != nil {
				t.Fatal(err)
			}
			if st.Files != len(raw) || st.MovedStripes == 0 {
				t.Fatalf("stats %+v over %d files", st, len(raw))
			}
			if from.Migrating() || from.Epoch() == 0 || len(from.Shards()) != r.to {
				t.Fatalf("from did not settle on the new placement: epoch %d, %d shards, migrating %v",
					from.Epoch(), len(from.Shards()), from.Migrating())
			}
			r.assertRelocated(t, "first pass", all, from, raw)

			// A new process holding the OLD list is refused (the record
			// the pass left behind), one holding the new list is a no-op.
			stale, fresh := views()
			if _, err := shard.RebalanceCtx(context.Background(), stale, fresh); err == nil {
				t.Fatal("rebalancing again from the stale store list succeeded")
			}
			_, fresh2 := views()
			st, err = shard.RebalanceCtx(context.Background(), fresh, fresh2)
			if err != nil || st != (shard.RebalanceStats{}) {
				t.Fatalf("settled rerun: %+v, %v", st, err)
			}
			r.assertRelocated(t, "settled rerun", all, fresh, raw)
		})
	}
}

// A copy no home owner vouches for under either epoch — the leftover of
// an older placement — is invisible to the namespace and is removed by
// the epoch commit's reaper, the only code that deletes copies.
func TestRebalanceReapsUnreachableCopies(t *testing.T) {
	stores, _ := memStores(3)
	cfg := shard.Config{StripeBytes: 4096}
	from, err := shard.New(stores[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := relocationFixture(t, from)
	// Growth moves homes only onto the new store, so the old store that
	// is not the ghost's home is its home under neither epoch.
	stray := stores[1-from.Layout().Owner(from.Layout().KeyOf("ghost", 0))]
	if err := backend.WriteFile(stray, "ghost", []byte("left behind")); err != nil {
		t.Fatal(err)
	}
	to, err := shard.New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.Rebalance(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stray.Stat("ghost"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("unreachable copy survived the rebalance: %v", err)
	}
	if st.RemovedCopies == 0 {
		t.Fatal("the reaped copy was not counted")
	}
	verifyRaw(t, from, raw)
}

// Shapes the one engine does not relocate are refused before a byte
// moves, with an error naming the rule.
func TestRebalanceRejectsOtherShapes(t *testing.T) {
	stores, _ := memStores(4)
	swapped := []backend.Store{stores[0], backend.NewMemStore(), stores[2]}
	for _, tc := range []struct {
		name     string
		from, to []backend.Store
		toCfg    shard.Config
	}{
		{"vnode count changed", stores[:3], stores[:4], shard.Config{Vnodes: 32}},
		{"middle store swapped", stores[:3], swapped, shard.Config{}},
		{"middle store swapped while growing", stores[:3], append(swapped[:3:3], stores[3]), shard.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from, err := shard.New(tc.from, shard.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := backend.WriteFile(from, "f", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			before := rawDump(t, stores)
			to, err := shard.New(tc.to, tc.toCfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = shard.Rebalance(from, to)
			if err == nil || !strings.Contains(err.Error(), "grows by appending shards or shrinks by removing a suffix") {
				t.Fatalf("error %v does not name the prefix rule", err)
			}
			if from.Migrating() {
				t.Fatal("a rejected rebalance left a migration open")
			}
			compareDumps(t, "rejected rebalance", rawDump(t, stores), before)
		})
	}
}

func TestRebalanceGrow(t *testing.T) {
	for _, stripe := range []int64{0, 4096} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			stores, _ := memStores(3)
			old, err := shard.New(stores, shard.Config{StripeBytes: stripe})
			if err != nil {
				t.Fatal(err)
			}
			contents := populate(t, old, 21)

			// Count placement keys before migrating, for the
			// proportionality bound below.
			var totalKeys int64
			names, err := old.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if stripe == 0 {
					totalKeys++
					continue
				}
				phys, err := old.Stat(n)
				if err != nil {
					t.Fatal(err)
				}
				totalKeys += (phys + stripe - 1) / stripe
			}

			grownStores := append(append([]backend.Store(nil), stores...), backend.NewMemStore())
			grown, err := shard.New(grownStores, shard.Config{StripeBytes: stripe})
			if err != nil {
				t.Fatal(err)
			}
			st, err := shard.Rebalance(old, grown)
			if err != nil {
				t.Fatal(err)
			}
			if st.Files != len(contents) {
				t.Fatalf("examined %d files, want %d", st.Files, len(contents))
			}
			if st.MovedFiles == 0 {
				t.Fatal("growth moved nothing; new shard would stay empty")
			}
			// Consistent hashing: most data must NOT move. With 3 -> 4
			// shards the fair share is 1/4 of the placement keys
			// (files, or stripes of striped files); allow 2x.
			if st.MovedStripes > totalKeys/2 {
				t.Fatalf("moved %d of %d placement keys; growth should move ~1/4",
					st.MovedStripes, totalKeys)
			}
			verify(t, grown, contents)
		})
	}
}

func TestRebalanceShrink(t *testing.T) {
	stores, _ := memStores(4)
	old, err := shard.New(stores, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, old, 22)

	shrunk, err := shard.New(stores[:3], shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Rebalance(old, shrunk); err != nil {
		t.Fatal(err)
	}
	verify(t, shrunk, contents)
	// The removed shard must hold nothing afterwards.
	leftover, err := stores[3].List()
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("removed shard still holds %v", leftover)
	}
}

// Identical placements migrate nothing — the "only keys whose
// placement changed" contract.
func TestRebalanceIdenticalIsNoOp(t *testing.T) {
	stores, _ := memStores(3)
	old, err := shard.New(stores, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, old, 23)
	same, err := shard.New(stores, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.Rebalance(old, same)
	if err != nil {
		t.Fatal(err)
	}
	if st.MovedStripes != 0 || st.MovedBytes != 0 || st.RemovedCopies != 0 {
		t.Fatalf("identical rings migrated data: %+v", st)
	}
	verify(t, same, contents)
}

// A carve grow relocates keys only between aliases — slots over the one
// physical store — so it moves nothing: no file or stripe counts as
// moved, and a mid-migration write to an alias key reaches the store
// once, not once per alias.
func TestRebalanceCarveAliasMovesNothing(t *testing.T) {
	const stripe = 4096
	sched := faultfs.NewScheduler(faultfs.Policy{})
	leaf := sched.Leaf(0, backend.NewMemStore())
	carve := func(n int) []backend.Store { return slices.Repeat([]backend.Store{leaf}, n) }
	from, err := shard.New(carve(2), shard.Config{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	raw := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("alias-%d", i)
		raw[name] = make([]byte, 40000)
		rng.Read(raw[name])
		if err := backend.WriteFile(from, name, raw[name]); err != nil {
			t.Fatal(err)
		}
	}
	to, err := shard.New(carve(3), shard.Config{StripeBytes: stripe})
	if err != nil {
		t.Fatal(err)
	}
	prev := from.Layout()
	if err := from.BeginMigration(context.Background(), carve(3), shard.MigrateHooks{}); err != nil {
		t.Fatal(err)
	}
	off := int64(-1)
	for o := int64(0); o < 40000 && off < 0; o += stripe {
		if cur := from.Layout(); prev.Owner(prev.KeyOf("alias-0", o)) != cur.Owner(cur.KeyOf("alias-0", o)) {
			off = o
		}
	}
	if off < 0 {
		t.Fatal("no stripe of alias-0 changes slot; pick another name")
	}
	f, err := from.Open("alias-0", backend.OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	sched.Take()
	if _, err := f.WriteAt([]byte("alias"), off); err != nil {
		t.Fatal(err)
	}
	if got := faultfs.Count(sched.Take(), faultfs.OpWrite); got != 1 {
		t.Errorf("a mid-migration write to an alias key issued %d leaf writes, want 1", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	copy(raw["alias-0"][off:], "alias")

	st, err := shard.Rebalance(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if st.MovedFiles != 0 || st.MovedStripes != 0 || st.MovedBytes != 0 {
		t.Errorf("an alias-only carve grow reported moves: %+v", st)
	}
	verifyRaw(t, from, raw)
}

func TestRebalanceStripeMismatch(t *testing.T) {
	a, _ := newShardStore(t, 2, 1024)
	b, _ := newShardStore(t, 2, 2048)
	if _, err := shard.Rebalance(a, b); err == nil {
		t.Fatal("rebalance across stripe units succeeded")
	}
}

// Rebalance is resumable: interrupting it midway (here: stopping a
// copy by rerunning from the half-migrated state) and running it again
// converges to the same verified layout.
func TestRebalanceRerunConverges(t *testing.T) {
	stores, _ := memStores(2)
	old, err := shard.New(stores, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	contents := populate(t, old, 24)
	grownStores := append(append([]backend.Store(nil), stores...), backend.NewMemStore())
	grown, err := shard.New(grownStores, shard.Config{StripeBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Rebalance(old, grown); err != nil {
		t.Fatal(err)
	}
	// Resuming the SAME migration — the crash-recovery story — must
	// not disturb the moved data: source copies that pass 1 already
	// removed must not be mistaken for holes and wipe the moved bytes.
	if _, err := shard.Rebalance(old, grown); err != nil {
		t.Fatal(err)
	}
	verify(t, grown, contents)
	// And a pass over the settled state moves nothing at all.
	st3, err := shard.Rebalance(grown, grown)
	if err != nil {
		t.Fatal(err)
	}
	if st3.MovedStripes != 0 {
		t.Fatalf("settled pass moved %d stripes", st3.MovedStripes)
	}
	verify(t, grown, contents)
}
