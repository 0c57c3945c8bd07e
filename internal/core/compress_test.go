package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/fstest"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/vfs"
)

// compressibleBytes builds n deterministic bytes at roughly the given
// incompressible fraction: a PRNG prefix followed by a repeated phrase.
func compressibleBytes(seed int64, n int, randFrac float64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	cut := int(float64(n) * randFrac)
	rng.Read(b[:cut])
	phrase := []byte("lamassu compressible payload ")
	for i := cut; i < n; i++ {
		b[i] = phrase[(i-cut)%len(phrase)]
	}
	return b
}

func compressedConfig() Config {
	cfg := testConfig()
	cfg.Compression = true
	return cfg
}

// The full conformance suite over the compressed engine, coalesced and
// per-block: compression must be invisible at the vfs.FS surface.
func TestConformanceCompressed(t *testing.T) {
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), compressedConfig())
	})
}

func TestConformanceCompressedPerBlock(t *testing.T) {
	cfg := compressedConfig()
	cfg.DisableCoalescing = true
	fstest.Conformance(t, func(t *testing.T) vfs.FS {
		return newFS(t, backend.NewMemStore(), cfg)
	})
}

// TestCompressionRejectsBadGeometry: enabling compression requires a
// geometry whose reserved region can cede the length-table slots.
func TestCompressionRejectsBadGeometry(t *testing.T) {
	geo, err := layout.NewGeometry(512, 1) // LenSlots(512)=1, leaves 0 transients
	if err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.Geometry = geo
	if _, err := New(backend.NewMemStore(), cfg); err == nil {
		t.Fatal("compression accepted over a geometry with no transient slots left")
	}
}

// maskMetaBlocks returns raw with every metadata block zeroed: the
// GCM metadata seal uses a fresh random nonce per write, so only the
// data-block regions are comparable across mounts.
func maskMetaBlocks(raw []byte) []byte {
	geo := layout.Default()
	out := append([]byte(nil), raw...)
	for si := int64(0); ; si++ {
		off := geo.MetaBlockOffset(si)
		if off >= int64(len(out)) {
			break
		}
		end := off + int64(geo.BlockSize)
		if end > int64(len(out)) {
			end = int64(len(out))
		}
		zero(out[off:end])
	}
	return out
}

// TestCompressionPreservesDedup is the determinism contract end to end:
// two independent mounts (separate stores, same zone keys, compression
// on) writing identical plaintext must produce byte-identical data
// blocks on the backing store — same convergent keys, same compressed
// frames — so cross-host deduplication of compressed data still works
// exactly as §3's convergent-encryption argument requires. (Metadata
// blocks are sealed under a per-write random nonce and are excluded,
// as they are from deduplication itself.)
func TestCompressionPreservesDedup(t *testing.T) {
	data := compressibleBytes(11, 300*4096, 0.3)
	var files [2][]byte
	for i := range files {
		store := backend.NewMemStore()
		lfs := newFS(t, store, compressedConfig())
		if err := vfs.WriteAll(lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		raw, err := backend.ReadFile(store, "f")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = maskMetaBlocks(raw)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("identical plaintext produced different backing data blocks under compression")
	}
}

// TestCompressionOffGolden pins the data-block bytes a compression-OFF
// mount produces for a fixed workload (metadata blocks are masked —
// their seal nonce is random). The raw encode path must stay
// byte-identical across releases — compression is opt-in, and a mount
// that never opts in must keep producing exactly the pre-compression
// format. Regenerate only for a deliberate, versioned format change.
func TestCompressionOffGolden(t *testing.T) {
	const wantHash = "30fae6648416062e0360b24205fb46f9edc0fedc2fd9f23b8524da28afdc4dcf"
	store := backend.NewMemStore()
	lfs := newFS(t, store, testConfig())
	data := compressibleBytes(5, 200*4096+1234, 0.4)
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}
	raw, err := backend.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(maskMetaBlocks(raw))
	if got := hex.EncodeToString(sum[:]); got != wantHash {
		t.Fatalf("compression-off backing bytes drifted:\n  got  %s (len %d)\n  want %s",
			got, len(raw), wantHash)
	}
}

// TestCompressionCrossModeInterop: either setting must read files the
// other wrote, and a compression-off FS keeps a compressed segment's
// length table consistent when writing into it.
func TestCompressionCrossModeInterop(t *testing.T) {
	data := compressibleBytes(21, 250*4096, 0.25)

	// Compressed writer, raw reader.
	store := backend.NewMemStore()
	if err := vfs.WriteAll(newFS(t, store, compressedConfig()), "f", data); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadAll(newFS(t, store, testConfig()), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compression-off FS misread a compressed file")
	}

	// Raw writer, compressed reader. The file stays raw — only commits
	// from a compression-on FS flip segments.
	store2 := backend.NewMemStore()
	if err := vfs.WriteAll(newFS(t, store2, testConfig()), "f", data); err != nil {
		t.Fatal(err)
	}
	cfs := newFS(t, store2, compressedConfig())
	got, err = vfs.ReadAll(cfs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compression-on FS misread a raw file")
	}
	rep, err := cfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit: %+v, %v", rep, err)
	}
}

// TestCompressionOffWriterIntoCompressedSegment drives the chunked
// commit: a compression-off FS batches up to R live overwrites, but a
// compressed segment has only CompressedReserved transient slots, so
// one batch must split into multiple phase 1–3 commits.
func TestCompressionOffWriterIntoCompressedSegment(t *testing.T) {
	geo := layout.Default()
	if geo.Reserved <= geo.CompressedReserved() {
		t.Fatal("test needs R > CompressedReserved to force chunking")
	}
	store := backend.NewMemStore()
	data := compressibleBytes(31, 100*4096, 0.2)
	if err := vfs.WriteAll(newFS(t, store, compressedConfig()), "f", data); err != nil {
		t.Fatal(err)
	}

	// Overwrite R live blocks in one batch through a compression-off
	// FS; its trigger fires at exactly R live overwrites, above the
	// compressed segment's transient capacity.
	rfs := newFS(t, store, testConfig())
	f, err := rfs.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < geo.Reserved; i++ {
		chunk := make([]byte, 4096)
		rng.Read(chunk)
		off := int64(i * 2 * 4096)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], chunk)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{testConfig(), compressedConfig()} {
		got, err := vfs.ReadAll(newFS(t, store, cfg), "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("content wrong after chunked commit (compression=%v)", cfg.Compression)
		}
	}
	rep, err := rfs.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after chunked commit: %+v, %v", rep, err)
	}
}

// TestCompressionBytesOnWire: compressible data must move strictly
// fewer payload bytes than its logical size on both the write and the
// read path, and incompressible data must cost exactly what the raw
// engine charges (the raw-escape guarantee).
func TestCompressionBytesOnWire(t *testing.T) {
	run := func(data []byte) (wr, rd metrics.Breakdown) {
		store := backend.NewMemStore()
		cfg := compressedConfig()
		rec := metrics.New()
		cfg.Recorder = rec
		lfs := newFS(t, store, cfg)
		if err := vfs.WriteAll(lfs, "f", data); err != nil {
			t.Fatal(err)
		}
		wr = rec.Snapshot()
		rec.Reset()
		got, err := vfs.ReadAll(lfs, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		return wr, rec.Snapshot()
	}

	const n = 200 * 4096
	cw, cr := run(compressibleBytes(41, n, 0.2))
	for _, b := range []struct {
		name string
		bd   metrics.Breakdown
	}{{"write", cw}, {"read", cr}} {
		if b.bd.LogicalBytes != n {
			t.Fatalf("%s: LogicalBytes = %d, want %d", b.name, b.bd.LogicalBytes, n)
		}
		if b.bd.StoredBytes >= b.bd.LogicalBytes {
			t.Fatalf("%s: compressible data moved %d stored bytes for %d logical",
				b.name, b.bd.StoredBytes, b.bd.LogicalBytes)
		}
		if r := b.bd.CompressionRatio(); r < 1.5 {
			t.Fatalf("%s: compression ratio %.2f, want >= 1.5 on this data", b.name, r)
		}
	}
	if cw.Event(metrics.BlockCompressed) == 0 {
		t.Fatal("no blocks recorded as compressed")
	}

	iw, ir := run(compressibleBytes(43, n, 1.0)) // pure noise
	if iw.StoredBytes != iw.LogicalBytes || ir.StoredBytes != ir.LogicalBytes {
		t.Fatalf("incompressible data: stored %d/%d bytes != logical %d/%d",
			iw.StoredBytes, ir.StoredBytes, iw.LogicalBytes, ir.LogicalBytes)
	}
	if iw.Event(metrics.RawEscape) == 0 {
		t.Fatal("no raw escapes recorded on incompressible data")
	}
}

// TestCompressionRekey: both rekey flavors over compressed files. The
// outer reseal must preserve the length table verbatim; the full
// rotation re-encodes every block in the rotating FS's mode.
func TestCompressionRekey(t *testing.T) {
	data := compressibleBytes(51, 150*4096, 0.3)
	store := backend.NewMemStore()
	lfs := newFS(t, store, compressedConfig())
	if err := vfs.WriteAll(lfs, "f", data); err != nil {
		t.Fatal(err)
	}

	newOuter := testKey(9)
	if _, err := lfs.RekeyOuter("f", newOuter); err != nil {
		t.Fatal(err)
	}
	cfg := compressedConfig()
	cfg.Outer = newOuter
	lfs2 := newFS(t, store, cfg)
	got, err := vfs.ReadAll(lfs2, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after outer rekey: %v", err)
	}

	newInner := testKey(8)
	if _, err := lfs2.RekeyFull("f", newInner, testKey(7)); err != nil {
		t.Fatal(err)
	}
	cfg.Inner, cfg.Outer = newInner, testKey(7)
	lfs3 := newFS(t, store, cfg)
	got, err = vfs.ReadAll(lfs3, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after full rekey: %v", err)
	}
	rep, err := lfs3.Check("f")
	if err != nil || !rep.Clean() {
		t.Fatalf("audit after full rekey: %+v, %v", rep, err)
	}

	// A compression-off FS rotating a compressed file rewrites it raw.
	rawCfg := testConfig()
	rawCfg.Inner, rawCfg.Outer = newInner, testKey(7)
	rfs := newFS(t, store, rawCfg)
	if _, err := rfs.RekeyFull("f", testKey(6), testKey(5)); err != nil {
		t.Fatal(err)
	}
	rawCfg.Inner, rawCfg.Outer = testKey(6), testKey(5)
	got, err = vfs.ReadAll(newFS(t, store, rawCfg), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after raw-mode full rekey: %v", err)
	}
}

// planStore records every backend ReadAt/WriteAt a mount issues, so a
// test can pin the engine's I/O plan — which extents, not just how many
// bytes. With stripe > 0 it also answers core's sharded-store seam as a
// two-shard store striping at that granularity (the bytes still live in
// the one inner store; only the planner's view changes).
type planStore struct {
	backend.Store
	stripe int64

	mu     sync.Mutex
	reads  []planOp
	writes []planOp
}

type planOp struct {
	off int64
	n   int
}

func (s *planStore) Open(name string, flag backend.OpenFlag) (backend.File, error) {
	f, err := s.Store.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &planFile{File: f, s: s}, nil
}

// take returns the recorded ops sorted by offset and resets the log.
func (s *planStore) take() (reads, writes []planOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reads, writes = s.reads, s.writes
	s.reads, s.writes = nil, nil
	for _, ops := range [][]planOp{reads, writes} {
		sort.Slice(ops, func(i, j int) bool { return ops[i].off < ops[j].off })
	}
	return reads, writes
}

type planFile struct {
	backend.File
	s *planStore
}

func (f *planFile) ReadAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	f.s.reads = append(f.s.reads, planOp{off, len(p)})
	f.s.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (f *planFile) WriteAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	f.s.writes = append(f.s.writes, planOp{off, len(p)})
	f.s.mu.Unlock()
	return f.File.WriteAt(p, off)
}

// stripedPlanStore is a planStore that core detects as sharded.
type stripedPlanStore struct{ *planStore }

func (s stripedPlanStore) NumShards() int     { return 2 }
func (s stripedPlanStore) StripeBytes() int64 { return s.stripe }
func (s stripedPlanStore) ShardOf(_ string, off int64) int {
	return int(off / s.stripe % 2)
}

// TestCompressedExtentPlan pins the compressed engine's I/O plan over
// one segment holding a fixed mix of full-slot (incompressible) and
// short (compressible) blocks: the exact phase-2 WriteAt offsets and
// lengths of the commit, and the exact data ReadAts of a whole-segment
// read. An extent ends after every short block (the slack behind its
// payload is not contiguous with the next slot) and at every stripe
// edge; its length is the full slots before its last block plus that
// block's stored length. The read plan is the write plan.
func TestCompressedExtentPlan(t *testing.T) {
	const bs = 4096
	// F = stored full-slot (raw escape), S = stored short.
	const mix = "FFSFFFSSFFFS"
	data := make([]byte, len(mix)*bs)
	rng := rand.New(rand.NewSource(61))
	for i, c := range mix {
		blk := data[i*bs : (i+1)*bs]
		if c == 'F' {
			rng.Read(blk)
		} else {
			copy(blk, compressibleBytes(int64(100+i), bs, 0.1))
		}
	}

	for _, tc := range []struct {
		name     string
		stripe   int64 // bytes; 0 = unsharded
		perBlock bool
		extents  [][2]int // [lo, hi) block ranges, in disk order
	}{
		{"unsharded", 0, false,
			[][2]int{{0, 3}, {3, 7}, {7, 8}, {8, 12}}},
		// Data block i is physical block i+1 (the metadata block leads
		// the segment), so 2-block stripes end after blocks 0, 2, 4, ...
		{"stripe-2-blocks", 2 * bs, false,
			[][2]int{{0, 1}, {1, 3}, {3, 5}, {5, 7}, {7, 8}, {8, 9}, {9, 11}, {11, 12}}},
		{"per-block", 0, true,
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := &planStore{Store: backend.NewMemStore(), stripe: tc.stripe}
			var store backend.Store = ps
			if tc.stripe > 0 {
				store = stripedPlanStore{ps}
			}
			cfg := compressedConfig()
			cfg.DisableCoalescing = tc.perBlock
			lfs := newFS(t, store, cfg)
			geo := lfs.geo

			// One commit of all twelve fresh blocks (at Sync; the
			// per-block engine commits every CompressedReserved writes,
			// which plans the same one-extent-per-block writes).
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
			_, writes := ps.take()

			// Expected extents from the sealed length table.
			bf, err := store.Open("f", backend.OpenRead)
			if err != nil {
				t.Fatal(err)
			}
			meta, err := lfs.readMeta(nil, bf, 0)
			bf.Close()
			if err != nil {
				t.Fatal(err)
			}
			ps.take()
			for i, c := range mix {
				if full := meta.StoredLen(i)*layout.LenUnit == bs; full != (c == 'F') {
					t.Fatalf("block %d: stored %d units, mix says %c", i, meta.StoredLen(i), c)
				}
			}
			var want []planOp
			for _, e := range tc.extents {
				want = append(want, planOp{
					off: geo.DataBlockOffset(int64(e[0])),
					n:   (e[1]-e[0]-1)*bs + meta.StoredLen(e[1]-1)*layout.LenUnit,
				})
			}
			dataOps := func(ops []planOp) []planOp {
				var out []planOp
				for _, op := range ops {
					if op.off != geo.MetaBlockOffset(0) {
						out = append(out, op)
					}
				}
				return out
			}
			if got := dataOps(writes); !reflect.DeepEqual(got, want) {
				t.Fatalf("phase-2 writes (off, len):\n got  %v\n want %v", got, want)
			}

			// Whole-segment read through a cold handle.
			r, err := lfs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := make([]byte, len(data))
			if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			reads, _ := ps.take()
			if got := dataOps(reads); !reflect.DeepEqual(got, want) {
				t.Fatalf("data reads (off, len):\n got  %v\n want %v", got, want)
			}
		})
	}
}
