package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
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

// rendezvousSettle is how long the rendezvous driver waits without a
// new arrival before it takes the parked reads to be a whole round. It
// only ever decides the FIRST round of a run (and a round after a lane
// ran out of work): every other round is released the moment as many
// reads have parked as the round before, by count. The memory store
// answers in microseconds, so the margin is three orders of magnitude.
const rendezvousSettle = 50 * time.Millisecond

// rendezvousStore parks every data ReadAt — or, with parkWrites, every
// data WriteAt instead — until the test's driver releases the round,
// and records how many were parked together, so a test counts an
// operation's critical path in rounds of backend round trips instead of
// timing it.
type rendezvousStore struct {
	backend.Store
	metaOff    int64 // I/O at this offset (the metadata block) passes through
	parkWrites bool  // park data writes and let data reads through
	parkMeta   bool  // with parkWrites: park the metadata writes as well
	// sizes, when set, is the size the test expects of each round in
	// turn: round i is released the moment sizes[i] operations have
	// parked, so rounds of different sizes need no settling. A run that
	// never gets there still settles, and reports what it did instead.
	sizes []int

	mu     sync.Mutex
	parked int
	offs   []int64       // the offsets of the parked operations
	round  chan struct{} // closed to release the reads parked on it
	wake   chan struct{} // cap 1: an arrival nudges the driver
}

func newRendezvousStore(inner backend.Store, metaOff int64) *rendezvousStore {
	return &rendezvousStore{Store: inner, metaOff: metaOff,
		round: make(chan struct{}), wake: make(chan struct{}, 1)}
}

func (s *rendezvousStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	return s.leaf(s.Store).Open(name, flag)
}

// leaf returns inner behind this rendezvous: the leaves of one sharded
// store park on one driver, so a round counts leaf requests across all
// of them.
func (s *rendezvousStore) leaf(inner backend.Store) backend.Store {
	return rendezvousLeaf{Store: inner, s: s}
}

type rendezvousLeaf struct {
	backend.Store
	s *rendezvousStore
}

func (l rendezvousLeaf) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := l.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &rendezvousFile{File: f, s: l.s}, nil
}

type rendezvousFile struct {
	backend.File
	s *rendezvousStore
}

func (f *rendezvousFile) ReadAt(p []byte, off int64) (int, error) {
	if off != f.s.metaOff && !f.s.parkWrites {
		f.s.park(off)
	}
	return f.File.ReadAt(p, off)
}

func (f *rendezvousFile) WriteAt(p []byte, off int64) (int, error) {
	if (off != f.s.metaOff || f.s.parkMeta) && f.s.parkWrites {
		f.s.park(off)
	}
	return f.File.WriteAt(p, off)
}

// park blocks the caller, an operation at off, until the driver
// releases the round it arrived in.
func (s *rendezvousStore) park(off int64) {
	s.mu.Lock()
	// Counting the arrival and picking the channel it waits on are one
	// critical section with the driver's release, so every arrival is
	// counted in exactly the round that releases it.
	s.parked++
	s.offs = append(s.offs, off)
	round := s.round
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-round
}

// drive releases rounds until done closes and returns each round's
// size. A round is complete when as many reads are parked as the round
// before released (the lanes that were let go have all come back), or
// when nothing new has arrived for rendezvousSettle.
func (s *rendezvousStore) drive(done <-chan struct{}) []int {
	var rounds []int
	for {
		settled := false
		select {
		case <-done:
			return rounds
		case <-s.wake:
		case <-time.After(rendezvousSettle):
			settled = true
		}
		s.mu.Lock()
		want := -1
		switch {
		case len(rounds) < len(s.sizes):
			want = s.sizes[len(rounds)]
		case len(rounds) > 0:
			want = rounds[len(rounds)-1]
		}
		if n := s.parked; n > 0 && (settled || n == want) {
			rounds = append(rounds, n)
			s.releaseLocked()
		}
		s.mu.Unlock()
	}
}

func (s *rendezvousStore) releaseLocked() {
	s.parked, s.offs = 0, nil
	close(s.round)
	s.round = make(chan struct{})
}

// await is the hand-driven alternative to drive: it waits until n
// operations are parked and returns their offsets in ascending order,
// releasing nothing.
func (s *rendezvousStore) await(t *testing.T, n int) []int64 {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		if s.parked >= n {
			offs := slices.Sorted(slices.Values(s.offs))
			s.mu.Unlock()
			return offs
		}
		parked := slices.Clone(s.offs)
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-timeout:
			t.Fatalf("waited for %d parked operations; %d arrived, at %v", n, len(parked), parked)
		}
	}
}

// release lets every parked operation go.
func (s *rendezvousStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked()
}

// TestShardedWindowedReadRounds pins the dispatch rule's critical path
// by count. A cold read of one compressed segment of 64 short blocks is
// 64 single-block extents; the rendezvous store holds every data read
// until the round is released, so the number of rounds IS the number of
// sequential round trips the read waits through on a remote store, and
// a round's size is the overlap. With a window a read fills it, sharded
// or not, inside one stripe or across two: 2 rounds of 32 (the sharded
// rows were 16 rounds of 4 and 8 of 8 at a depth per owning shard, and
// 64 rounds of 1 before that). Without a window a sharded read keeps
// its one lane per shard and an unsharded one waits through all 64 —
// the count behind "a deep window beats window 1 on a 2 ms link". The
// reads issued are the same multiset whatever the dispatch: the plan is
// not the dispatcher's to change.
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
		name   string
		stripe int64 // bytes; 0 = unsharded
		window int
		rounds []int
	}{
		// Physical block 0 is the segment's metadata block, so a
		// 128-block stripe holds all 64 data blocks and a 33-block
		// stripe splits them 32 / 32 between the two shards.
		{"sharded-one-stripe-window-32", 128 * bs, 32, repeat(32, 2)},
		{"sharded-two-stripes-window-32", 33 * bs, 32, repeat(32, 2)},
		{"sharded-one-stripe-no-window", 128 * bs, 0, repeat(1, 64)},
		{"sharded-two-stripes-no-window", 33 * bs, 0, repeat(2, 32)},
		{"unsharded-window-32", 0, 32, repeat(32, 2)},
		{"unsharded-no-window", 0, 0, repeat(1, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := newRendezvousStore(backend.NewMemStore(), layout.Default().MetaBlockOffset(0))
			ps := &planStore{Store: rs, stripe: tc.stripe}
			var store backend.Store = ps
			if tc.stripe > 0 {
				store = stripedPlanStore{ps}
			}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			lfs := newFS(t, store, cfg)
			want := writeShortBlocks(t, lfs, data)
			ps.take()

			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := make([]byte, len(data))
			done := make(chan struct{})
			var rerr error
			go func() {
				defer close(done)
				if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
					rerr = err
				}
			}()
			rounds := rs.drive(done)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			if !reflect.DeepEqual(rounds, tc.rounds) {
				t.Fatalf("rounds of data reads in flight together:\n got  %d rounds %v\n want %d rounds %v",
					len(rounds), rounds, len(tc.rounds), tc.rounds)
			}
			reads, _ := ps.take()
			var dataReads []planOp
			for _, op := range reads {
				if op.off != rs.metaOff {
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
	rs := newRendezvousStore(backend.NewMemStore(), layout.Default().MetaBlockOffset(0))
	store := stripedPlanStore{&planStore{Store: rs, stripe: 33 * bs}}
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rounds := rs.drive(done)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %q: %v", names[i], err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if want := slices.Repeat([]int{window}, len(names)*nblocks/window); !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds of data reads in flight together:\n got  %d rounds %v\n want %d rounds %v",
			len(rounds), rounds, len(want), want)
	}
	if st := lfs.IOWindowStats(); st.Peak != window || st.InFlight != 0 {
		t.Fatalf("window gauges after the reads: %+v, want peak %d and nothing in flight", st, window)
	}
}

// TestWindowedCommitChargesShards: a commit dispatched on the I/O window
// never passes through runSharded, so writeExtents charges each extent
// to its owning shard itself. The same 64 extents, 32 per shard, report
// the same per-shard Tasks and ShardTask events with and without a
// window — counted once on either path — and QueueDepth returns to 0.
func TestWindowedCommitChargesShards(t *testing.T) {
	const bs, nblocks = 4096, 64
	data := shortBlocks(nblocks)
	want := []ShardStats{{Shard: 0, Tasks: 32}, {Shard: 1, Tasks: 32}}
	for _, tc := range []struct {
		name                string
		window, parallelism int
	}{
		{"window-32", 32, 4},
		{"window-32-serial-pool", 32, 1},
		{"no-window", 0, 4},
		{"no-window-serial-pool", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := stripedPlanStore{&planStore{Store: backend.NewMemStore(), stripe: 33 * bs}}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			cfg.Parallelism = tc.parallelism
			cfg.Recorder = metrics.New()
			lfs := newFS(t, store, cfg)
			if err := vfs.WriteAll(lfs, "f", data); err != nil {
				t.Fatal(err)
			}
			got := lfs.ShardStats()
			for i := range got {
				got[i].Budget = 0 // the carve follows Parallelism, not the dispatch
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("per-shard gauges after one commit of %d extents:\n got  %+v\n want %+v", nblocks, got, want)
			}
			if n := cfg.Recorder.Snapshot().Event(metrics.ShardTask); n != nblocks {
				t.Fatalf("ShardTask events = %d, want %d", n, nblocks)
			}
		})
	}
}

// TestWindowedCommitRounds is the commit direction of the same count:
// phase 2 of a fresh segment of 64 short blocks is 64 single-block
// extents, and the rendezvous store now holds the data writes. On a
// window of 32 the commit waits through 2 rounds of 32; the serial
// engine without one through 64. Both write the same plan and the same
// bytes.
//
// The replicated rows run the same commit over a shard.Store with R=2 on
// two rendezvous leaves, metadata writes parked as well, and count LEAF
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
		name     string
		window   int
		replicas int // > 0: shard.Store over this many rendezvous leaves
		rounds   []int
	}{
		{"window-32", 32, 0, []int{32, 32}},
		{"serial-no-window", 0, 0, slices.Repeat([]int{1}, nblocks)},
		{"replicated-window-32", 32, 2, []int{2, 64, 64, 2}},
		{"replicated-window-1", 1, 2, slices.Repeat([]int{2}, nblocks+2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := newRendezvousStore(nil, layout.Default().MetaBlockOffset(0))
			rs.parkWrites = true
			// copies are the unsharded stores that must each hold the
			// whole file afterwards, leaves the recorders in front of them.
			var copies []backend.Store
			var leaves []*planStore
			var store backend.Store
			if tc.replicas == 0 {
				rs.Store = backend.NewMemStore()
				copies = []backend.Store{rs.Store}
				leaves = []*planStore{{Store: rs}}
				store = leaves[0]
			} else {
				rs.parkMeta, rs.sizes = true, tc.rounds
				owners := make([]backend.Store, tc.replicas)
				for i := range owners {
					mem := backend.NewMemStore()
					ps := &planStore{Store: rs.leaf(mem)}
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
			cfg.Parallelism = 1
			lfs := newFS(t, store, cfg)

			done := make(chan struct{})
			var werr error
			go func() {
				defer close(done)
				werr = vfs.WriteAll(lfs, "f", data)
			}()
			rounds := rs.drive(done)
			if werr != nil {
				t.Fatal(werr)
			}
			if !reflect.DeepEqual(rounds, tc.rounds) {
				t.Fatalf("rounds of writes in flight together:\n got  %d rounds %v\n want %d rounds %v",
					len(rounds), rounds, len(tc.rounds), tc.rounds)
			}
			dataWrites, metaWrites := 0, 0
			for _, ps := range leaves {
				_, writes := ps.take()
				for _, op := range writes {
					if op.off != rs.metaOff {
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

// failingReadStore fails the data reads at two offsets, in a chosen
// order in time: the read at loOff returns errLo, the read at hiOff
// returns errHi, and when ordered the lower one waits until the higher
// has failed — the adversarial schedule for "lowest position wins".
type failingReadStore struct {
	backend.Store
	loOff, hiOff int64
	ordered      bool
	hiFailed     chan struct{}
	once         sync.Once
}

var (
	errLoExtent = errors.New("injected: lower extent")
	errHiExtent = errors.New("injected: higher extent")
)

func (s *failingReadStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &failingReadFile{File: f, s: s}, nil
}

type failingReadFile struct {
	backend.File
	s *failingReadStore
}

func (f *failingReadFile) ReadAt(p []byte, off int64) (int, error) {
	switch off {
	case f.s.hiOff:
		f.s.once.Do(func() { close(f.s.hiFailed) })
		return 0, errHiExtent
	case f.s.loOff:
		if f.s.ordered {
			<-f.s.hiFailed
		}
		return 0, errLoExtent
	}
	return f.File.ReadAt(p, off)
}

// TestReadFailurePosition pins readSpans' failure contract on every
// dispatch form: when extents 5 and 9 of a read both fail — and, where
// the dispatcher runs them concurrently, 9 fails FIRST in time — ReadAt
// returns the buffer position of extent 5, its error, and p[:n] holding
// exactly the plaintext that precedes it.
func TestReadFailurePosition(t *testing.T) {
	const bs, nblocks, lo, hi = 4096, 64, 5, 9
	data := shortBlocks(nblocks)
	for _, tc := range []struct {
		name    string
		stripe  int64
		window  int
		ordered bool // extents lo and hi can be in flight together
	}{
		{"sharded-windowed", 128 * bs, 32, true},
		{"sharded-two-stripes-windowed", 33 * bs, 32, true},
		{"unsharded-windowed", 0, 32, true},
		{"sharded-no-window", 128 * bs, 0, false},
		{"unsharded-no-window", 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := layout.Default()
			frs := &failingReadStore{Store: backend.NewMemStore(), ordered: tc.ordered,
				loOff: -1, hiOff: -1, hiFailed: make(chan struct{})}
			ps := &planStore{Store: frs, stripe: tc.stripe}
			var store backend.Store = ps
			if tc.stripe > 0 {
				store = stripedPlanStore{ps}
			}
			cfg := compressedConfig()
			cfg.IOWindow = tc.window
			lfs := newFS(t, store, cfg)
			writeShortBlocks(t, lfs, data)

			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			frs.loOff, frs.hiOff = geo.DataBlockOffset(lo), geo.DataBlockOffset(hi)
			got := bytes.Repeat([]byte{0xA5}, len(data))
			n, err := r.ReadAt(got, 0)
			if !errors.Is(err, errLoExtent) {
				t.Fatalf("error %v, want extent %d's", err, lo)
			}
			if n != lo*bs {
				t.Fatalf("n = %d, want %d (the buffer position of extent %d)", n, lo*bs, lo)
			}
			if !bytes.Equal(got[:n], data[:n]) {
				t.Fatal("bytes before the failure position are not the plaintext")
			}
			if tc.ordered {
				select {
				case <-frs.hiFailed:
				default:
					t.Fatalf("extent %d never ran: the schedule under test did not happen", hi)
				}
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
	trig := &cancelTrigger{}
	store := cancelFixture(t, geo, true, trig)
	lfs := newFS(t, store, cfg)
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
			// with the trigger armed to cancel as the k-th of them is
			// issued (k == 0: count only), checks the outcome, and retries
			// on the same handle with a live ctx.
			attempt := func(ctx context.Context, k int64, cancel context.CancelFunc) {
				r, err := lfs.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				for i := range p {
					p[i] = 0xA5
				}
				trig.armReads(k, cancel)
				n, err := r.ReadAtCtx(ctx, p, int64(span.off))
				trig.disarm()
				if ctx.Err() == nil {
					if (err != nil && err != io.EOF) || n != span.len || !bytes.Equal(p, want) {
						t.Fatalf("live ctx: n=%d err=%v", n, err)
					}
					return
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
			}
			// Dry run: count the read's context-aware backend reads.
			attempt(context.Background(), 0, nil)
			total := trig.reads()
			if total < int64(span.len/geo.BlockSize) {
				t.Fatalf("read issued only %d ctx reads for %d short blocks", total, span.len/geo.BlockSize)
			}
			for k := int64(0); k <= total; k++ {
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

// leafLog records, in order, the calls the leaves of one sharded store
// see that cost a round trip on a remote leaf: Stat and Open by name,
// and ReadAt, WriteAt and Truncate on a handle. (Size is local on every
// backend in the tree; Sync is the barrier itself.)
type leafLog struct {
	mu    sync.Mutex
	calls []leafCall
}

type leafCall struct {
	kind string // "stat", "open", "read", "write", "truncate"
	off  int64
}

func (l *leafLog) note(kind string, off int64) {
	l.mu.Lock()
	l.calls = append(l.calls, leafCall{kind, off})
	l.mu.Unlock()
}

func (l *leafLog) take() []leafCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

type loggedLeaf struct {
	backend.Store
	log *leafLog
}

func (l loggedLeaf) Stat(name string) (int64, error) {
	l.log.note("stat", 0)
	return l.Store.Stat(name)
}

func (l loggedLeaf) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	l.log.note("open", 0)
	f, err := l.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return loggedFile{File: f, log: l.log}, nil
}

type loggedFile struct {
	backend.File
	log *leafLog
}

func (f loggedFile) ReadAt(p []byte, off int64) (int, error) {
	f.log.note("read", off)
	return f.File.ReadAt(p, off)
}

func (f loggedFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.note("write", off)
	return f.File.WriteAt(p, off)
}

func (f loggedFile) Truncate(size int64) error {
	f.log.note("truncate", size)
	return f.File.Truncate(size)
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

	log := &leafLog{}
	leaves := make([]backend.Store, 4)
	for i := range leaves {
		leaves[i] = loggedLeaf{Store: backend.NewMemStore(), log: log}
	}
	const replicas = 2
	ss, err := shard.New(leaves, shard.Config{StripeBytes: 2 * geo.SegmentPhysBytes(), Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.IOWindow = 32
	cfg.Parallelism = 1
	lfs := newFS(t, ss, cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	for seg := 0; seg < 2; seg++ {
		log.take()
		if _, err := f.WriteAt(data[seg*segBytes:(seg+1)*segBytes], int64(seg*segBytes)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		calls := log.take()
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

// TestWriteBehindOverlapsCommits pins on rendezvous leaves who waits for
// a commit's round trips. On a window of 8 the WriteAt that fills
// segment 0 returns while the commit's phase-1 write is still parked, so
// long before its phase 3 is admitted; the next WriteAt fills segment 1
// meanwhile, and that commit's phase-1 write is in flight in the same
// round as segment 0's phase-2 extent. Without a window nothing is
// handed off: the call log is the inline engine's, every commit's three
// writes in order inside the WriteAt that triggers it.
func TestWriteBehindOverlapsCommits(t *testing.T) {
	geo := layout.Default()
	bs, kps := geo.BlockSize, geo.KeysPerSegment()
	meta := geo.MetaBlockOffset
	data := func(b int) int64 { return geo.DataBlockOffset(int64(b)) }

	t.Run("window-8", func(t *testing.T) {
		rs := newRendezvousStore(backend.NewMemStore(), meta(0))
		rs.parkWrites, rs.parkMeta = true, true
		cfg := testConfig()
		cfg.IOWindow = 8
		lfs := newFS(t, rs, cfg)
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
		// step checks the next round: n writes, at want (ascending).
		step := func(n int, want ...int64) {
			t.Helper()
			if got := rs.await(t, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("writes in flight together: got offsets %v, want %v", got, want)
			}
		}

		write(0)
		step(1, meta(0)) // phase 1 of segment 0, and the writer is back
		rs.release()
		step(1, data(0)) // its phase 2: one extent of the whole segment
		write(1)
		step(2, data(0), meta(1)) // segment 1's phase 1 joins that round
		rs.release()
		step(2, meta(0), data(kps)) // phase 3 of 0 beside phase 2 of 1
		rs.release()
		step(1, meta(1))
		rs.release()

		done := make(chan struct{})
		var cerr error
		go func() {
			defer close(done)
			cerr = f.Close()
		}()
		if rounds := rs.drive(done); cerr != nil || len(rounds) != 0 {
			t.Fatalf("Close: %v after %d more rounds of writes, want none", cerr, len(rounds))
		}
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil || !bytes.Equal(got, segs) {
			t.Fatalf("round trip: %v, equal %v", err, bytes.Equal(got, segs))
		}
	})

	t.Run("window-0", func(t *testing.T) {
		log := &leafLog{}
		lfs := newFS(t, loggedLeaf{Store: backend.NewMemStore(), log: log}, testConfig())
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
		if got := log.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("leaf calls without a window:\n got  %v\n want %v", got, want)
		}
	})
}

// TestWriteBehindSameBytes: write-behind changes who waits, never what
// lands. The sequential-plus-overwrite workload leaves the same data
// blocks (compared with the metadata blocks masked, as the
// compression-off golden compares them) and the same decoded metadata
// on a window of 8 as without a window, raw and compressed.
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
			for i, window := range []int{8, 0} {
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
				t.Fatalf("backing file is %d bytes on window 8, %d without a window", len(raws[0]), len(raws[1]))
			}
			if !bytes.Equal(maskMetaBlocks(raws[0]), maskMetaBlocks(raws[1])) {
				t.Fatal("data blocks differ between window 8 and no window")
			}
			bs := int64(geo.BlockSize)
			for si := int64(0); geo.MetaBlockOffset(si) < int64(len(raws[0])); si++ {
				var metas [2]*layout.MetaBlock
				for i, raw := range raws {
					off := geo.MetaBlockOffset(si)
					m, err := layout.DecodeMetaBlock(geo, raw[off:off+bs], tc.cfg.Outer, uint64(si))
					if err != nil {
						t.Fatalf("segment %d: %v", si, err)
					}
					metas[i] = m
				}
				if !reflect.DeepEqual(metas[0], metas[1]) {
					t.Fatalf("segment %d: decoded metadata differs:\n window 8 %+v\n none     %+v", si, metas[0], metas[1])
				}
			}
		})
	}
}

// gateStore holds the write at each gated offset until the test opens
// that gate, and signals every Truncate that reaches the store.
type gateStore struct {
	backend.Store
	gates     map[int64]*writeGate
	truncated chan struct{} // one send per Truncate; buffered for the test's count
}

// writeGate holds one write. arrived closes when the write reaches the
// gate, canceled when its ctx dies while it is held; the write lands
// once open closes, whatever its ctx.
type writeGate struct {
	once                    sync.Once
	arrived, canceled, open chan struct{}
}

func newWriteGate() *writeGate {
	return &writeGate{arrived: make(chan struct{}), canceled: make(chan struct{}), open: make(chan struct{})}
}

func (s *gateStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, s: s}, nil
}

type gateFile struct {
	backend.File
	s *gateStore
}

func (f gateFile) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtCtx(nil, p, off) }

func (f gateFile) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if err := backend.CtxErr(ctx); err != nil {
		return 0, err
	}
	if g := f.s.gates[off]; g != nil {
		first := false
		g.once.Do(func() { first = true; close(g.arrived) })
		if first {
			var dead <-chan struct{}
			if ctx != nil {
				dead = ctx.Done()
			}
			select {
			case <-g.open:
			case <-dead:
				close(g.canceled)
				<-g.open
			}
		}
	}
	return f.File.WriteAt(p, off)
}

func (f gateFile) Truncate(size int64) error { return f.TruncateCtx(nil, size) }

func (f gateFile) TruncateCtx(ctx context.Context, size int64) error {
	if err := backend.CtxErr(ctx); err != nil {
		return err
	}
	f.s.truncated <- struct{}{}
	return f.File.Truncate(size)
}

func (f gateFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return backend.ReadAtCtx(ctx, f.File, p, off)
}

func (f gateFile) SyncCtx(ctx context.Context) error { return backend.SyncCtx(ctx, f.File) }

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
	phase2, phase1 := newWriteGate(), newWriteGate()
	gs := &gateStore{Store: backend.NewMemStore(), truncated: make(chan struct{}, 16),
		gates: map[int64]*writeGate{geo.DataBlockOffset(0): phase2, geo.MetaBlockOffset(1): phase1}}
	cfg := compressedConfig()
	cfg.IOWindow = 8
	lfs := newFS(t, gs, cfg)
	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	writeBehind(t, f, data[:kps*bs], 0)
	<-phase2.arrived
	writeBehind(t, f, data[kps*bs:], int64(kps*bs))
	<-phase1.arrived
	close(phase2.open)
	select {
	case <-gs.truncated:
		t.Fatal("segment 0's pad cut the file while segment 1's phase-1 write was in flight")
	case <-time.After(rendezvousSettle):
	}
	close(phase1.open)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(gs.truncated); n != 0 {
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
