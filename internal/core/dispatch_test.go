package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/faultfs"
	"lamassu/internal/layout"
	"lamassu/internal/shard"
	"lamassu/internal/vfs"
)

// shortBlocks is the dispatch tests' workload: n compressible 4 KiB
// blocks, each different, so a compressed commit stores every one short
// and a cold read of the file is n single-block extents — the shape of
// the benchmark's remote workload, where the dispatch rule decides how
// many round trips a read waits through.
func shortBlocks(n int) []byte {
	const bs = 4096
	data := make([]byte, n*bs)
	for i := 0; i < n; i++ {
		copy(data[i*bs:], compressibleBytes(int64(100+i), bs, 0.1))
	}
	return data
}

// writeShortBlocks commits data as file "f" through lfs and returns the
// data reads a cold whole-file read must issue, derived from the sealed
// length table exactly as TestCompressedExtentPlan derives them: one
// read per block (every block is short, so no two merge), at the
// block's slot offset, of its stored length.
func writeShortBlocks(t *testing.T, lfs *FS, data []byte) []planOp {
	t.Helper()
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bf, err := lfs.store.Open("f", backend.OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	meta, err := lfs.readMeta(nil, bf, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs := lfs.geo.BlockSize
	var want []planOp
	for i := 0; i < len(data)/bs; i++ {
		stored := meta.StoredLen(i) * layout.LenUnit
		if stored <= 0 || stored >= bs {
			t.Fatalf("block %d stored %d bytes; the workload needs every block short", i, stored)
		}
		want = append(want, planOp{off: lfs.geo.DataBlockOffset(int64(i)), n: stored})
	}
	return want
}

// parkAll parks every operation of kind op on the scheduler's leaves —
// those at segment 0's metadata offset only if meta — so the
// scheduler's Rounds counts an operation's critical path in rounds of
// backend round trips instead of timing it.
func parkAll(op faultfs.Op, meta bool) faultfs.Policy {
	metaOff := layout.Default().MetaBlockOffset(0)
	return faultfs.When(func(ev *faultfs.Event) bool { return ev.Op == op && (meta || ev.Off != metaOff) }, faultfs.Park)
}

// fillsWindow fails the test unless the widest of rounds is the whole
// window, each slot one engine operation of width leaf requests: a
// round never outgrows the window, so the window was full.
func fillsWindow(t *testing.T, lfs *FS, rounds []int, width int) {
	t.Helper()
	if st := lfs.IOWindowStats(); len(rounds) == 0 || slices.Max(rounds) != st.Window*width {
		t.Fatalf("widest round of %v on a window of %d slots, %d leaf requests each", rounds, st.Window, width)
	}
}

// TestShardedWindowedReadRounds pins the dispatch rule's critical path
// by count. A cold read of one compressed segment of 64 short blocks is
// 64 single-block extents; the scheduler parks every data read until
// the round is released, so the number of rounds IS the number of
// sequential round trips the read waits through on a remote store, and
// a round's size is the overlap. A round closes by count, and the
// widest one is the whole window. A read fills the window, sharded or
// not, inside one stripe or across two: 2 rounds of 32 on a window of
// 32. A no-window row configures none (IOWindow 0) and so reads on the
// default window: 32 deep whatever Parallelism is (4 and 8 here), so
// also 2 rounds of 32. The serial engine (Parallelism 1, IOWindow 1)
// waits through all 64 — the count behind "a deep window beats window 1
// on a 2 ms link".
// The reads issued are the same multiset whatever the dispatch: the
// plan is not the dispatcher's to change.
func TestShardedWindowedReadRounds(t *testing.T) {
	const bs, nblocks = 4096, 64
	data := shortBlocks(nblocks)
	repeat := func(size, times int) []int {
		out := make([]int, times)
		for i := range out {
			out[i] = size
		}
		return out
	}
	for _, tc := range []struct {
		name                string
		stripe              int64 // bytes; 0 = unsharded
		window, parallelism int
		rounds              []int
	}{
		// Physical block 0 is the segment's metadata block, so a
		// 128-block stripe holds all 64 data blocks and a 33-block
		// stripe splits them 32 / 32 between the two shards.
		{"sharded-one-stripe-window-32", 128 * bs, 32, 0, repeat(32, 2)},
		{"sharded-two-stripes-window-32", 33 * bs, 32, 0, repeat(32, 2)},
		{"sharded-one-stripe-no-window", 128 * bs, 0, 4, repeat(32, 2)},
		{"sharded-two-stripes-no-window", 33 * bs, 0, 8, repeat(32, 2)},
		{"unsharded-window-32", 0, 32, 0, repeat(32, 2)},
		{"unsharded-window-1", 0, 1, 1, repeat(1, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := faultfs.NewScheduler(parkAll(faultfs.OpRead, false))
			ps := &planStore{Store: sched.Leaf(0, backend.NewMemStore()), stripe: tc.stripe}
			var store backend.Store = ps
			if tc.stripe > 0 {
				store = stripedPlanStore{ps}
			}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			cfg.Parallelism = tc.parallelism
			lfs := newFS(t, store, cfg)
			want := writeShortBlocks(t, lfs, data)
			ps.take()

			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := make([]byte, len(data))
			var rerr error
			rounds := sched.Rounds(t, func() {
				if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
					rerr = err
				}
			}, tc.rounds...)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			fillsWindow(t, lfs, rounds, 1)
			reads, _ := ps.take()
			var dataReads []planOp
			for _, op := range reads {
				if op.off != layout.Default().MetaBlockOffset(0) {
					dataReads = append(dataReads, op)
				}
			}
			if !reflect.DeepEqual(dataReads, want) {
				t.Fatalf("data reads (off, len):\n got  %v\n want %v", dataReads, want)
			}
		})
	}
}

// TestWindowSharedByConcurrentReaders is the benchmark's real shape: two
// handles read 64 short extents each, concurrently, over one sharded +
// compressed FS on a window of 32. Every request now asks for the whole
// window, so the window is a mount-wide bound: the data reads parked
// together reach exactly 32 — never 64 — in every round, the window's
// own gauge peaks at 32, and both buffers come back byte-exact.
func TestWindowSharedByConcurrentReaders(t *testing.T) {
	const bs, nblocks, window = 4096, 64, 32
	names := []string{"a", "b"}
	data := shortBlocks(len(names) * nblocks)
	sched := faultfs.NewScheduler(parkAll(faultfs.OpRead, false))
	store := stripedPlanStore{&planStore{Store: sched.Leaf(0, backend.NewMemStore()), stripe: 33 * bs}}
	cfg := compressedConfig()
	for i, name := range names {
		// No window on the writer: the reading FS below starts with cold
		// window gauges, so its peak is the reads' alone.
		if err := vfs.WriteAll(newFS(t, store, cfg), name, data[i*nblocks*bs:(i+1)*nblocks*bs]); err != nil {
			t.Fatal(err)
		}
	}
	cfg.IOWindow = window
	lfs := newFS(t, store, cfg)

	got := make([]byte, len(data))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		r, err := lfs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.ReadAt(got[i*nblocks*bs:(i+1)*nblocks*bs], 0); err != nil && err != io.EOF {
				errs[i] = err
			}
		}()
	}
	sched.Rounds(t, wg.Wait, slices.Repeat([]int{window}, len(names)*nblocks/window)...)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %q: %v", names[i], err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if st := lfs.IOWindowStats(); st.Peak != window || st.InFlight != 0 {
		t.Fatalf("window gauges after the reads: %+v, want peak %d and nothing in flight", st, window)
	}
}

// TestWindowedCommitRounds is the commit direction of the same count:
// phase 2 of a fresh segment of 64 short blocks is 64 single-block
// extents, and the scheduler now parks the data writes. On a
// window of 32 the commit waits through 2 rounds of 32; with none
// configured, on the default window, through the same 2 rounds of 32 at
// Parallelism 4 (the default depth does not follow the pool), and
// through 64 under the serial engine (Parallelism 1, IOWindow 1). All
// write the same plan and the same bytes.
//
// The replicated rows run the same commit over a shard.Store with R=2 on
// two scheduled leaves, metadata writes parked as well, and count LEAF
// requests: a key's owners are written together, so each of the two
// rounds of 32 extents is 64 leaf writes in flight and each metadata
// barrier is one round of 2 (one owner after the other, the same 128 + 4
// leaf writes took 4 rounds of 32 and 2 rounds of 1 per barrier). That
// is the window's meaning under replication — 32 engine operations, each
// R leaf requests wide — and the window-1 row is why it cannot be 32 leaf
// requests: an owner write takes no slot of its own, or a full window
// would wait on itself and this row would never return.
func TestWindowedCommitRounds(t *testing.T) {
	const bs, nblocks = 4096, 64
	data := shortBlocks(nblocks)
	for _, tc := range []struct {
		name                string
		window, parallelism int
		replicas            int // > 0: shard.Store over this many scheduled leaves
		rounds              []int
	}{
		{"window-32", 32, 1, 0, []int{32, 32}},
		{"no-window-4", 0, 4, 0, []int{32, 32}},
		{"serial-window-1", 1, 1, 0, slices.Repeat([]int{1}, nblocks)},
		{"replicated-window-32", 32, 1, 2, []int{2, 64, 64, 2}},
		{"replicated-window-1", 1, 1, 2, slices.Repeat([]int{2}, nblocks+2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := faultfs.NewScheduler(parkAll(faultfs.OpWrite, tc.replicas > 0))
			// copies are the unsharded stores that must each hold the
			// whole file afterwards, leaves the recorders in front of them.
			var copies []backend.Store
			var leaves []*planStore
			var store backend.Store
			if tc.replicas == 0 {
				mem := backend.NewMemStore()
				copies = []backend.Store{mem}
				leaves = []*planStore{{Store: sched.Leaf(0, mem)}}
				store = leaves[0]
			} else {
				owners := make([]backend.Store, tc.replicas)
				for i := range owners {
					mem := backend.NewMemStore()
					ps := &planStore{Store: sched.Leaf(i, mem)}
					copies, leaves, owners[i] = append(copies, mem), append(leaves, ps), ps
				}
				// R == leaves: every leaf owns every key, at its global
				// offset, so each is a whole unsharded copy.
				ss, err := shard.New(owners, shard.Config{StripeBytes: 128 * bs, Replicas: tc.replicas})
				if err != nil {
					t.Fatal(err)
				}
				store = ss
			}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			cfg.Parallelism = tc.parallelism
			lfs := newFS(t, store, cfg)

			var werr error
			rounds := sched.Rounds(t, func() { werr = vfs.WriteAll(lfs, "f", data) }, tc.rounds...)
			if werr != nil {
				t.Fatal(werr)
			}
			fillsWindow(t, lfs, rounds, max(1, tc.replicas))
			dataWrites, metaWrites := 0, 0
			for _, ps := range leaves {
				_, writes := ps.take()
				for _, op := range writes {
					if op.off != layout.Default().MetaBlockOffset(0) {
						dataWrites++
					} else {
						metaWrites++
					}
				}
			}
			if want := nblocks * len(copies); dataWrites != want {
				t.Fatalf("%d data writes, want one per short block per copy = %d", dataWrites, want)
			}
			if want := 2 * tc.replicas; tc.replicas > 0 && metaWrites != want {
				t.Fatalf("%d metadata writes, want phase 1 and phase 3 on each owner = %d", metaWrites, want)
			}
			for i, c := range copies {
				got, err := vfs.ReadAll(newFS(t, c, cfg), "f")
				if err != nil {
					t.Fatalf("copy %d: %v", i, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("copy %d: round trip mismatch", i)
				}
			}
		})
	}
}

var (
	errLoExtent = errors.New("injected: lower extent")
	errHiExtent = errors.New("injected: higher extent")
)

// TestReadFailurePosition pins readSpans' failure contract on every
// window shape (a no-window row runs on the default window): when
// extents 5 and 9 of a read both fail — and, where the window runs
// them concurrently, both are parked together, 9 is failed FIRST, and 5
// only once 9's read has returned —
// ReadAt returns the buffer position of extent 5, its error, and p[:n]
// holding exactly the plaintext that precedes it.
func TestReadFailurePosition(t *testing.T) {
	const bs, nblocks, lo, hi = 4096, 64, 5, 9
	data := shortBlocks(nblocks)
	for _, tc := range []struct {
		name                string
		stripe              int64
		window, parallelism int
		ordered             bool // extents lo and hi can be in flight together
	}{
		{"sharded-windowed", 128 * bs, 32, 0, true},
		{"sharded-two-stripes-windowed", 33 * bs, 32, 0, true},
		{"unsharded-windowed", 0, 32, 0, true},
		{"sharded-no-window", 128 * bs, 0, 4, true},
		{"unsharded-no-window", 0, 0, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := layout.Default()
			sched := faultfs.NewScheduler(faultfs.Policy{})
			ps := &planStore{Store: sched.Leaf(0, backend.NewMemStore()), stripe: tc.stripe}
			var store backend.Store = ps
			if tc.stripe > 0 {
				store = stripedPlanStore{ps}
			}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			cfg.Parallelism = tc.parallelism
			lfs := newFS(t, store, cfg)
			writeShortBlocks(t, lfs, data)

			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			loOff, hiOff := geo.DataBlockOffset(lo), geo.DataBlockOffset(hi)
			hiFailed := make(chan struct{})
			sched.SetPolicy(faultfs.Policy{
				Issue: func(ev *faultfs.Event) faultfs.Verdict {
					switch {
					case ev.Op != faultfs.OpRead || (ev.Off != loOff && ev.Off != hiOff):
						return faultfs.Pass
					case tc.ordered:
						return faultfs.Park
					case ev.Off == hiOff:
						return faultfs.Fail(errHiExtent)
					}
					return faultfs.Fail(errLoExtent)
				},
				Return: func(ev *faultfs.Event) {
					if tc.ordered && ev.Op == faultfs.OpRead && ev.Off == hiOff {
						close(hiFailed)
					}
				},
			})
			got := bytes.Repeat([]byte{0xA5}, len(data))
			var n int
			done := make(chan struct{})
			go func() {
				defer close(done)
				n, err = r.ReadAt(got, 0)
			}()
			if tc.ordered {
				evs := sched.Await(t, 2)
				slices.SortFunc(evs, func(a, b *faultfs.Event) int { return cmp.Compare(b.Off, a.Off) })
				if len(evs) != 2 || evs[0].Off != hiOff || evs[1].Off != loOff {
					t.Fatalf("parked %v, want the reads of extents %d and %d", evs, lo, hi)
				}
				// Extent 9's error is on its way back to its lane before
				// extent 5's read is let go.
				evs[0].Fail(errHiExtent)
				<-hiFailed
				evs[1].Fail(errLoExtent)
			}
			<-done
			if !errors.Is(err, errLoExtent) {
				t.Fatalf("error %v, want extent %d's", err, lo)
			}
			if n != lo*bs {
				t.Fatalf("n = %d, want %d (the buffer position of extent %d)", n, lo*bs, lo)
			}
			if !bytes.Equal(got[:n], data[:n]) {
				t.Fatal("bytes before the failure position are not the plaintext")
			}
		})
	}
}

// TestReadFailurePositionUnderCancel sweeps a cancellation across a
// sharded + compressed + windowed read: the ctx dies as the k-th backend
// read is issued, for every k. Whatever was in flight, ReadAtCtx reports
// ErrCanceled with n leading valid bytes; nothing touches p after it
// returns (the test scribbles over p at once — under -race a straggling
// lane would be a reported race); and a retry on the same handle with a
// live ctx returns the right bytes (no lock or window slot leaked).
func TestReadFailurePositionUnderCancel(t *testing.T) {
	geo := layout.Default()
	cfg := compressedConfig()
	cfg.IOWindow = 32
	// Two segments on a real shard.Store striping by segment: the first
	// read of the sweep straddles the segment edge and so both shards
	// (40 extents on a window of 32), the second stays in one (24, all
	// in flight at once).
	kps := geo.KeysPerSegment()
	nblocks := kps + 40
	data := shortBlocks(nblocks)
	sched := faultfs.NewScheduler(faultfs.Policy{})
	lfs := newFS(t, cancelFixture(t, geo, true, sched, memLeaf), cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, span := range []struct {
		name     string
		off, len int
	}{
		{"two-shards", (kps - 20) * geo.BlockSize, 40 * geo.BlockSize},
		{"one-shard", 3 * geo.BlockSize, 24 * geo.BlockSize},
	} {
		t.Run(span.name, func(t *testing.T) {
			want := data[span.off : span.off+span.len]
			p := make([]byte, span.len)
			// attempt reads the span through a cold handle — so every
			// attempt issues the same backend reads, metadata included —
			// canceling as the k-th of them is issued (k == 0: never),
			// checks the outcome, retries on the same handle with a live
			// ctx, and returns how many backend reads the first read
			// issued.
			attempt := func(ctx context.Context, k int, cancel context.CancelFunc) (reads int) {
				r, err := lfs.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				for i := range p {
					p[i] = 0xA5
				}
				sched.Take()
				sched.SetPolicy(faultfs.CancelBefore(faultfs.OpRead, k, cancel))
				n, err := r.ReadAtCtx(ctx, p, int64(span.off))
				sched.SetPolicy(faultfs.Policy{})
				reads = faultfs.Count(sched.Take(), faultfs.OpRead)
				if ctx.Err() == nil {
					if (err != nil && err != io.EOF) || n != span.len || !bytes.Equal(p, want) {
						t.Fatalf("live ctx: n=%d err=%v", n, err)
					}
					return reads
				}
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: n=%d err=%v, want ErrCanceled", k, n, err)
				}
				if n < 0 || n >= span.len || !bytes.Equal(p[:n], want[:n]) {
					t.Fatalf("k=%d: n=%d is not a count of leading valid bytes", k, n)
				}
				// No lane may still be writing into p.
				for i := range p {
					p[i] = 0x5A
				}
				if n, err := r.ReadAtCtx(context.Background(), p, int64(span.off)); (err != nil && err != io.EOF) ||
					n != span.len || !bytes.Equal(p, want) {
					t.Fatalf("k=%d: retry with a live ctx: n=%d err=%v", k, n, err)
				}
				return reads
			}
			// Dry run: count the read's backend reads.
			total := attempt(context.Background(), 0, nil)
			if total < span.len/geo.BlockSize {
				t.Fatalf("read issued only %d backend reads for %d short blocks", total, span.len/geo.BlockSize)
			}
			for k := 0; k <= total; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				if k == 0 {
					cancel() // dead on entry
				}
				attempt(ctx, k, cancel)
				if ctx.Err() == nil {
					t.Fatalf("k=%d of %d: the trigger never fired", k, total)
				}
				cancel()
			}
		})
	}
}

// leafCall is one leaf call that costs a round trip on a remote leaf:
// Stat and Open by name, and ReadAt, WriteAt and Truncate (at its size)
// on a handle. (Size is local on every backend in the tree; Sync is the
// barrier itself.)
type leafCall struct {
	kind string // "stat", "open", "read", "write", "truncate"
	off  int64
}

// roundTrips returns the leaf calls among evs, in issue order.
func roundTrips(evs []faultfs.Event) []leafCall {
	var calls []leafCall
	for _, ev := range evs {
		switch ev.Op {
		case faultfs.OpStat, faultfs.OpOpen, faultfs.OpRead, faultfs.OpWrite, faultfs.OpTruncate:
			calls = append(calls, leafCall{ev.Op.String(), ev.Off})
		}
	}
	return calls
}

// TestCommitAsksNoSizes: a §2.4 commit costs its two metadata writes and
// its data writes — the paper's point in embedding the metadata — and on
// a striped, replicated store no size round trips on top. A fresh
// 118-block compressed segment on a shard.Store, R=2 over 4 leaves,
// window 32: between the first phase-1 and the last phase-3 metadata
// write the leaves see exactly the planned data writes, one per block per
// owner, plus at most the two owners' Truncate that pads the extent; no
// leaf is asked anything by name. The engine does ask its backing file's
// Size twice per commit; the handle answers from the stores it has
// already probed, so the second segment on the same handle — same stripe,
// same owners — adds no Stat and no Open anywhere in its commit.
func TestCommitAsksNoSizes(t *testing.T) {
	geo := layout.Default()
	nblocks := geo.KeysPerSegment()
	data := shortBlocks(2 * nblocks)
	segBytes := nblocks * geo.BlockSize

	sched := faultfs.NewScheduler(faultfs.Policy{})
	leaves := make([]backend.Store, 4)
	for i := range leaves {
		leaves[i] = sched.Leaf(i, backend.NewMemStore())
	}
	const replicas = 2
	ss, err := shard.New(leaves, shard.Config{StripeBytes: 2 * geo.SegmentPhysBytes(), Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.IOWindow = 32
	lfs := newFS(t, ss, cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	for seg := 0; seg < 2; seg++ {
		sched.Take()
		if _, err := f.WriteAt(data[seg*segBytes:(seg+1)*segBytes], int64(seg*segBytes)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		calls := roundTrips(sched.Take())
		metaOff := geo.MetaBlockOffset(int64(seg))
		isMeta := func(c leafCall) bool { return c.kind == "write" && c.off == metaOff }
		first := slices.IndexFunc(calls, isMeta)
		if first < 0 {
			t.Fatalf("segment %d: no metadata write among %d leaf calls", seg, len(calls))
		}
		last := len(calls) - 1
		for !isMeta(calls[last]) {
			last--
		}
		count := make(map[string]int)
		for _, c := range calls[first : last+1] {
			if isMeta(c) {
				count["meta"]++
			} else {
				count[c.kind]++
			}
		}
		truncates := count["truncate"]
		delete(count, "truncate")
		want := map[string]int{"meta": 2 * replicas, "write": nblocks * replicas}
		if !reflect.DeepEqual(count, want) || truncates > replicas {
			t.Errorf("segment %d, leaf calls from phase 1 to phase 3:\n got  %v and %d truncate\n want %v and at most %d truncate",
				seg, count, truncates, want, replicas)
		}
		all := make(map[string]int)
		for _, c := range calls {
			all[c.kind]++
		}
		if all["stat"] != 0 || (seg > 0 && all["open"] != 0) {
			t.Errorf("segment %d: %d Stat and %d Open over the whole commit; a commit asks no leaf by name", seg, all["stat"], all["open"])
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v, equal %v", err, bytes.Equal(got, data))
	}
}

// behindWrite is one WriteAt of the write-behind tests' workload.
type behindWrite struct {
	off  int64
	data []byte
}

// behindWorkload is the write-behind tests' sequential-plus-overwrite
// workload (default geometry): segments 0 and 1 written whole, a write
// each; an overwrite of blocks 10–17 of segment 0, whose live blocks
// fill the transient slots and trigger a commit; and three blocks of
// segment 2, which only Close commits.
func behindWorkload() []behindWrite {
	geo := layout.Default()
	bs, kps := geo.BlockSize, geo.KeysPerSegment()
	block := func(b int) int64 { return int64(b * bs) }
	return []behindWrite{
		{block(0), compressibleBytes(51, kps*bs, 0.5)},
		{block(kps), compressibleBytes(52, kps*bs, 0.5)},
		{block(10), compressibleBytes(53, 8*bs, 0.5)},
		{block(2 * kps), compressibleBytes(54, 3*bs, 0.5)},
	}
}

// writeBehind writes p at off through f and fails the test unless the
// WriteAt returns while the backend holds the writes of the commit it
// triggers.
func writeBehind(t *testing.T, f vfs.File, p []byte, off int64) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(p, off)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the WriteAt at %d waited for its commit's round trips", off)
	}
}

// TestWriteBehindOverlapsCommits pins on scheduled leaves who waits for
// a commit's round trips. On a window of 8 the WriteAt that fills
// segment 0 returns while the commit's phase-1 write is still parked, so
// long before its phase 3 is admitted; the next WriteAt fills segment 1
// meanwhile, and that commit's phase-1 write is in flight in the same
// round as segment 0's phase-2 extent. The default window (IOWindow 0,
// 32 slots) hands off alike: its WriteAt returns while phase 1 is
// parked. On a window of 1 nothing is handed off: the call log is the
// inline engine's, every commit's three writes in order inside the
// WriteAt that triggers it.
func TestWriteBehindOverlapsCommits(t *testing.T) {
	geo := layout.Default()
	bs, kps := geo.BlockSize, geo.KeysPerSegment()
	meta := geo.MetaBlockOffset
	data := func(b int) int64 { return geo.DataBlockOffset(int64(b)) }

	t.Run("window-8", func(t *testing.T) {
		sched := faultfs.NewScheduler(parkAll(faultfs.OpWrite, true))
		cfg := testConfig()
		cfg.IOWindow = 8
		lfs := newFS(t, sched.Leaf(0, backend.NewMemStore()), cfg)
		f, err := lfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		segs := compressibleBytes(55, 2*kps*bs, 1)
		// write fills segment si; with the rounds held, a WriteAt that
		// waits for its commit never returns.
		write := func(si int) {
			t.Helper()
			writeBehind(t, f, segs[si*kps*bs:(si+1)*kps*bs], int64(si*kps*bs))
		}
		// step checks the next round: n writes parked, at want
		// (ascending); release lets the round go.
		var held []*faultfs.Event
		step := func(n int, want ...int64) {
			t.Helper()
			held = append(held, sched.Await(t, n-len(held))...)
			var got []int64
			for _, ev := range held {
				got = append(got, ev.Off)
			}
			if slices.Sort(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("writes in flight together: got offsets %v, want %v", got, want)
			}
		}
		release := func() {
			faultfs.Release(held...)
			held = nil
		}

		write(0)
		step(1, meta(0)) // phase 1 of segment 0, and the writer is back
		release()
		step(1, data(0)) // its phase 2: one extent of the whole segment
		write(1)
		step(2, data(0), meta(1)) // segment 1's phase 1 joins that round
		release()
		step(2, meta(0), data(kps)) // phase 3 of 0 beside phase 2 of 1
		release()
		step(1, meta(1))
		release()

		var cerr error
		sched.Rounds(t, func() { cerr = f.Close() }) // no more rounds of writes
		if cerr != nil {
			t.Fatalf("Close: %v", cerr)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil || !bytes.Equal(got, segs) {
			t.Fatalf("round trip: %v, equal %v", err, bytes.Equal(got, segs))
		}
	})

	t.Run("window-default", func(t *testing.T) {
		sched := faultfs.NewScheduler(parkAll(faultfs.OpWrite, true))
		lfs := newFS(t, sched.Leaf(0, backend.NewMemStore()), testConfig())
		f, err := lfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		seg := compressibleBytes(56, kps*bs, 1)
		writeBehind(t, f, seg, 0)
		evs := sched.Await(t, 1)
		if len(evs) != 1 || evs[0].Off != meta(0) {
			t.Fatalf("writes parked after the WriteAt returned: %v, want segment 0's phase 1", evs)
		}
		sched.Stop()
		evs[0].Release()
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil || !bytes.Equal(got, seg) {
			t.Fatalf("round trip: %v, equal %v", err, bytes.Equal(got, seg))
		}
	})

	t.Run("window-1", func(t *testing.T) {
		sched := faultfs.NewScheduler(faultfs.Policy{})
		cfg := testConfig()
		cfg.IOWindow = 1
		lfs := newFS(t, sched.Leaf(0, backend.NewMemStore()), cfg)
		f, err := lfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range behindWorkload() {
			if _, err := f.WriteAt(w.data, w.off); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		commit := func(si int64, first int) []leafCall {
			return []leafCall{{"write", meta(si)}, {"write", data(first)}, {"write", meta(si)}}
		}
		want := []leafCall{{"open", 0}}
		want = append(want, commit(0, 0)...)
		want = append(want, commit(1, kps)...)
		want = append(want, commit(0, 10)...)
		want = append(want, commit(2, 2*kps)...)
		if got := roundTrips(sched.Take()); !reflect.DeepEqual(got, want) {
			t.Fatalf("leaf calls on a window of 1:\n got  %v\n want %v", got, want)
		}
	})
}

// TestWriteBehindSameBytes: write-behind changes who waits, never what
// lands. The sequential-plus-overwrite workload leaves the same data
// blocks (compared with the metadata blocks masked, as the
// compression-off golden compares them) and the same decoded metadata
// on a window of 8 as on a window of 1, which hands nothing off, raw and
// compressed.
func TestWriteBehindSameBytes(t *testing.T) {
	geo := layout.Default()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"raw", testConfig()},
		{"compressed", compressedConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var raws [2][]byte
			for i, window := range []int{8, 1} {
				store := backend.NewMemStore()
				cfg := tc.cfg
				cfg.IOWindow = window
				f, err := newFS(t, store, cfg).Create("f")
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range behindWorkload() {
					if _, err := f.WriteAt(w.data, w.off); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if raws[i], err = backend.ReadFile(store, "f"); err != nil {
					t.Fatal(err)
				}
			}
			if len(raws[0]) != len(raws[1]) {
				t.Fatalf("backing file is %d bytes on window 8, %d on window 1", len(raws[0]), len(raws[1]))
			}
			if !bytes.Equal(maskMetaBlocks(raws[0]), maskMetaBlocks(raws[1])) {
				t.Fatal("data blocks differ between window 8 and window 1")
			}
			bs := int64(geo.BlockSize)
			for si := int64(0); geo.MetaBlockOffset(si) < int64(len(raws[0])); si++ {
				var metas [2]*layout.MetaBlock
				for i, raw := range raws {
					off := geo.MetaBlockOffset(si)
					m, err := layout.DecodeMetaBlock(geo, raw[off:off+bs], cryptoutil.NewMetaSealer(tc.cfg.Outer), uint64(si))
					if err != nil {
						t.Fatalf("segment %d: %v", si, err)
					}
					metas[i] = m
				}
				if !reflect.DeepEqual(metas[0], metas[1]) {
					t.Fatalf("segment %d: decoded metadata differs:\n window 8 %+v\n window 1 %+v", si, metas[0], metas[1])
				}
			}
		})
	}
}

// parkFirstWrites parks the first write at each of offs and passes
// everything else.
func parkFirstWrites(offs ...int64) faultfs.Policy {
	return faultfs.Policy{Issue: func(ev *faultfs.Event) faultfs.Verdict {
		if i := slices.Index(offs, ev.Off); ev.Op == faultfs.OpWrite && i >= 0 {
			offs = slices.Delete(offs, i, i+1)
			return faultfs.Park
		}
		return faultfs.Pass
	}}
}

// padWait is how long TestWriteBehindPadWaitsForPhase1 watches for a
// truncate that must not come. The memory store answers in
// microseconds, so the margin is three orders of magnitude.
const padWait = 50 * time.Millisecond

// TestWriteBehindPadWaitsForPhase1: a compressed commit pads the backing
// file up to its last slot by probing the size and cutting to it, and
// with write-behind a later segment's commit may be in flight meanwhile.
// Segment 1's phase-1 write, the first past segment 0's pad, is held in
// flight while segment 0 finishes phase 2: the pad must not cut the file
// while that write can still land beyond the cut. It waits for it, and
// then, with the file already reaching past its end, cuts nothing.
func TestWriteBehindPadWaitsForPhase1(t *testing.T) {
	geo := layout.Default()
	bs, kps := geo.BlockSize, geo.KeysPerSegment()
	// Every block of segment 0 is stored full-slot but the last, which
	// is short: phase 2 is one extent, and the pad has slack to cover.
	data := compressibleBytes(61, 2*kps*bs, 1)
	copy(data[(kps-1)*bs:kps*bs], compressibleBytes(62, bs, 0.1))
	sched := faultfs.NewScheduler(parkFirstWrites(geo.DataBlockOffset(0), geo.MetaBlockOffset(1)))
	cfg := compressedConfig()
	cfg.IOWindow = 8
	lfs := newFS(t, sched.Leaf(0, backend.NewMemStore()), cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	writeBehind(t, f, data[:kps*bs], 0)
	phase2 := sched.Await(t, 1)[0]
	writeBehind(t, f, data[kps*bs:], int64(kps*bs))
	phase1 := sched.Await(t, 1)[0]
	phase2.Release()
	// The one wait in these tests that no count can replace: the check is
	// that a truncate does NOT come while phase 1 is in flight.
	time.Sleep(padWait)
	if n := faultfs.Count(sched.Take(), faultfs.OpTruncate); n != 0 {
		t.Fatal("segment 0's pad cut the file while segment 1's phase-1 write was in flight")
	}
	phase1.Release()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := faultfs.Count(sched.Take(), faultfs.OpTruncate); n != 0 {
		t.Fatalf("%d truncates; segment 1's phase 1 already covers segment 0's pad", n)
	}
	if rep, err := lfs.Check("f"); err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
	got, err := vfs.ReadAll(lfs, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v, equal %v", err, bytes.Equal(got, data))
	}
}

// TestReadFailurePositionCorruptLane pins the failure contract where a
// full-integrity read verifies a run in hash groups (one BlockHashes
// call per group): one flipped ciphertext byte in lane 5 of a group of a
// 48-block extent makes ReadAt return ErrIntegrity at that block's
// buffer position with the plaintext before it in p[:n] — also when the
// read starts mid-block, so the group's leading partial span decodes
// through scratch. No block of the failed group enters the cache, and a
// second read — which groups the uncached rest of the run anew — fails
// at the same place.
func TestReadFailurePositionCorruptLane(t *testing.T) {
	const bs, nblocks = 4096, 3 * cryptoutil.HashLanes
	for _, tc := range []struct {
		name string
		bad  int   // corrupted block
		off  int64 // where the read starts
	}{
		{"middle-group", cryptoutil.HashLanes + 5, 0},
		{"first-group-unaligned", 5, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := layout.Default()
			cfg := testConfig()
			cfg.Parallelism = 2
			cfg.CacheBlocks = 2 * nblocks
			store := backend.NewMemStore()
			data := shortBlocks(nblocks)
			w, err := newFS(t, store, cfg).Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			bf, err := store.Open("f", backend.OpenWrite)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			off := geo.DataBlockOffset(int64(tc.bad)) + 7
			if _, err := bf.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := bf.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
			if err := bf.Close(); err != nil {
				t.Fatal(err)
			}

			lfs := newFS(t, store, cfg)
			if g := lfs.hashGroups(nblocks); g != 3 {
				t.Fatalf("%d hash groups over %d blocks, want 3 full ones", g, nblocks)
			}
			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := tc.bad*bs - int(tc.off)
			first := tc.bad / cryptoutil.HashLanes * cryptoutil.HashLanes
			for attempt := range 2 {
				got := bytes.Repeat([]byte{0xA5}, len(data)-int(tc.off))
				n, err := r.ReadAt(got, tc.off)
				if !errors.Is(err, ErrIntegrity) {
					t.Fatalf("read %d: error %v, want ErrIntegrity", attempt, err)
				}
				if n != want {
					t.Fatalf("read %d: n = %d, want %d (block %d's buffer position)", attempt, n, want, tc.bad)
				}
				if !bytes.Equal(got[:n], data[tc.off:tc.off+int64(n)]) {
					t.Fatalf("read %d: bytes before the failure position are not the plaintext", attempt)
				}
				if attempt > 0 {
					break
				}
				block := make([]byte, bs)
				for i := first; i < first+cryptoutil.HashLanes; i++ {
					if lfs.cache.getData("f", int64(i), block) {
						t.Fatalf("block %d of the failed group entered the cache", i)
					}
				}
			}
		})
	}
}

// TestColdReadRounds pins by count how many round trips a cold read
// waits through on a default-config mount: every leaf ReadAt is parked,
// metadata reads included, and a round closes once the read has parked
// all it can issue before one returns. Today a read of N segments loads
// each segment's metadata in turn, one round each, and then fetches the
// N segments' data in one round: N + 1 rounds (ROADMAP item 20 takes it
// to 2, then 1).
func TestColdReadRounds(t *testing.T) {
	geo := layout.Default()
	segBytes := geo.KeysPerSegment() * geo.BlockSize
	for _, n := range []int{1, 3, 9} {
		t.Run(fmt.Sprintf("segments-%d", n), func(t *testing.T) {
			mem := backend.NewMemStore()
			data := compressibleBytes(int64(80+n), n*segBytes, 0.5)
			if err := vfs.WriteAll(newFS(t, mem, testConfig()), "f", data); err != nil {
				t.Fatal(err)
			}
			sched := faultfs.NewScheduler(faultfs.Policy{})
			lfs := newFS(t, sched.Leaf(0, mem), testConfig())
			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sched.SetPolicy(parkAll(faultfs.OpRead, true))
			got := make([]byte, len(data))
			var rerr error
			sched.Rounds(t, func() {
				if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
					rerr = err
				}
			}, append(slices.Repeat([]int{1}, n), n)...)
			if rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("cold read: %v, equal %v", rerr, bytes.Equal(got, data))
			}
		})
	}
}
