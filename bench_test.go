package lamassu

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), one per experiment, plus micro-benchmarks and
// ablations of the design choices DESIGN.md calls out. Each figure
// benchmark runs the corresponding experiment at a reduced size
// (shapes are size-independent; see DESIGN.md §3) and reports the
// headline quantities through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the rows the paper reports. cmd/lmsbench prints the figure
// experiments as full text tables at configurable sizes.

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/dedupe"
	"lamassu/internal/dupless"
	"lamassu/internal/experiments"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
)

// benchBytes is the workload size for the figure benchmarks.
const benchBytes = 8 << 20

func benchKeys(b *testing.B) KeyPair {
	b.Helper()
	keys, err := GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	return keys
}

// --- Figure 6 ---------------------------------------------------

func BenchmarkFig6StorageEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchBytes, []float64{0.10, 0.30, 0.50})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.LamassuFS, fmt.Sprintf("lamassu-relusage-%%@α=%.0f%%", r.Alpha*100))
			}
		}
	}
}

// --- Table 1 ----------------------------------------------------

func BenchmarkTable1VMImages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(256)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, r := range rows {
				if r.OverheadPct > worst {
					worst = r.OverheadPct
				}
			}
			b.ReportMetric(worst, "max-overhead-%")
		}
	}
}

// --- Figure 7 ---------------------------------------------------

func BenchmarkFig7NFSThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig7(benchBytes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tab.Get("PlainFS", "seq-write"), "plain-seqwrite-MB/s")
			b.ReportMetric(tab.Get("EncFS", "seq-write"), "encfs-seqwrite-MB/s")
			b.ReportMetric(tab.Get("LamassuFS", "seq-write"), "lamassu-seqwrite-MB/s")
			b.ReportMetric(tab.Get("LamassuFS", "seq-read"), "lamassu-seqread-MB/s")
		}
	}
}

// --- Figure 8 ---------------------------------------------------

func BenchmarkFig8RAMThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8(benchBytes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tab.Get("PlainFS", "seq-read"), "plain-seqread-MB/s")
			b.ReportMetric(tab.Get("EncFS", "seq-read"), "encfs-seqread-MB/s")
			b.ReportMetric(tab.Get("LamassuFS", "seq-read"), "lamassu-full-seqread-MB/s")
			b.ReportMetric(tab.Get("LamassuFS(meta-only)", "seq-read"), "lamassu-meta-seqread-MB/s")
		}
	}
}

// --- Figure 9 ---------------------------------------------------

func BenchmarkFig9LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchBytes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Mode == "full" {
					frac := 0.0
					if r.TotalOp > 0 {
						frac = 100 * float64(r.PerOp["GetCEKey"]) / float64(r.TotalOp)
					}
					b.ReportMetric(frac, "getcekey-%-of-"+r.Workload)
				}
			}
		}
	}
}

// --- Figure 10 --------------------------------------------------

func BenchmarkFig10VaryR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchBytes, []int{1, 8, 48})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && rows[0].SeqWrite > 0 {
			b.ReportMetric(rows[2].SeqWrite/rows[0].SeqWrite, "seqwrite-speedup-R48/R1")
		}
	}
}

// --- Figure 11 --------------------------------------------------

func BenchmarkFig11SpaceVsR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchBytes, []int{1, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].PctByAlpha[0], "data-%-R1-α0")
			b.ReportMetric(rows[1].PctByAlpha[0.5], "data-%-R60-α50")
		}
	}
}

// --- Micro-benchmarks on the public API -------------------------

func BenchmarkWrite4KThroughMount(b *testing.B) {
	bench := func(b *testing.B, opts ...Option) {
		m, err := New(NewMemStorage(), benchKeys(b), opts...)
		if err != nil {
			b.Fatal(err)
		}
		f, err := m.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if err := f.Truncate(64 << 20); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4096)
		rand.New(rand.NewSource(1)).Read(buf)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			if _, err := f.WriteAt(buf, int64(i%16384)*4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	// serial is the paper's single-threaded engine; parallel fans the
	// per-block commit work across GOMAXPROCS workers.
	b.Run("serial", func(b *testing.B) { bench(b, WithParallelism(1)) })
	b.Run("parallel", func(b *testing.B) { bench(b) })
}

// Parallel application threads over one mount: every goroutine writes
// its own file, the shape of the paper's multi-client deployment.
func BenchmarkWrite4KConcurrentFiles(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := "serial"
		if par == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			m, err := New(NewMemStorage(), benchKeys(b), WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			var id int64
			b.SetBytes(4096)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := atomic.AddInt64(&id, 1)
				f, err := m.Create(fmt.Sprintf("bench-%d", n))
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				if err := f.Truncate(16 << 20); err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 4096)
				rand.New(rand.NewSource(n)).Read(buf)
				i := 0
				for pb.Next() {
					buf[0] = byte(i)
					if _, err := f.WriteAt(buf, int64(i%4096)*4096); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

func BenchmarkRead4KThroughMount(b *testing.B) {
	bench := func(b *testing.B, integrity Integrity) {
		m, err := New(NewMemStorage(), benchKeys(b), WithIntegrity(integrity))
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 16<<20)
		rand.New(rand.NewSource(2)).Read(data)
		if err := m.WriteFile("bench", data); err != nil {
			b.Fatal(err)
		}
		f, err := m.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, int64(i%4096)*4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full-integrity", func(b *testing.B) { bench(b, IntegrityFull) })
	b.Run("meta-only", func(b *testing.B) { bench(b, IntegrityMetaOnly) })
}

// Sequential append throughput: fresh blocks batch to a whole segment,
// one run write per commit. Allocations per op are reported — the slab
// allocator keeps the steady state near zero beyond the per-block AES
// state.
func BenchmarkSequentialWriteCoalesced(b *testing.B) {
	m, err := New(NewMemStorage(), benchKeys(b))
	if err != nil {
		b.Fatal(err)
	}
	f, err := m.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(11)).Read(buf)
	const cycle = 16384 // restart the file at 64 MiB so appends stay fresh
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			if err := f.Truncate(0); err != nil {
				b.Fatal(err)
			}
		}
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, int64(i%cycle)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// Sequential read throughput in 1 MiB requests: each segment's blocks
// are fetched with one backend read and the decrypt fans across the
// pool.
func BenchmarkSequentialReadCoalesced(b *testing.B) {
	m, err := New(NewMemStorage(), benchKeys(b))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 16<<20)
	rand.New(rand.NewSource(12)).Read(data)
	if err := m.WriteFile("bench", data); err != nil {
		b.Fatal(err)
	}
	f, err := m.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(chunk, int64(i%16)<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// The block cache against the uncached read path: hits skip backend
// I/O, AES-CBC and the SHA-256 integrity re-hash entirely.
func BenchmarkRead4KCached(b *testing.B) {
	bench := func(b *testing.B, cacheBlocks int) {
		m, err := New(NewMemStorage(), benchKeys(b), WithCache(cacheBlocks))
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 8<<20) // 2048 blocks: fits the enabled cache
		rand.New(rand.NewSource(3)).Read(data)
		if err := m.WriteFile("bench", data); err != nil {
			b.Fatal(err)
		}
		f, err := m.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		if _, err := f.ReadAt(buf, 0); err != nil { // open-time warmup
			b.Fatal(err)
		}
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, int64(i%2048)*4096); err != nil {
				b.Fatal(err)
			}
		}
		if cacheBlocks > 0 {
			b.ReportMetric(100*m.CacheStats().HitRate(), "cache-hit-%")
		}
	}
	b.Run("uncached", func(b *testing.B) { bench(b, 0) })
	b.Run("cached-4096", func(b *testing.B) { bench(b, 4096) })
}

// --- Ablations ---------------------------------------------------

// Ablation: commit batching. R=1 disables batching entirely (3 I/Os
// per block write); R=48 is near the paper's throughput peak.
func BenchmarkAblationBatching(b *testing.B) {
	for _, r := range []int{1, 8, 48} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			store := backend.NewMemStore()
			geo, err := layout.NewGeometry(4096, r)
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(b)
			lfs, err := core.New(store, core.Config{Geometry: geo, Inner: keys.Inner, Outer: keys.Outer})
			if err != nil {
				b.Fatal(err)
			}
			f, err := lfs.Create("bench")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(64 << 20); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf[0] = byte(i)
				if _, err := f.WriteAt(buf, int64(i%16384)*4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the cost of the embedded-metadata design vs raw
// convergent encryption with no metadata at all (lower bound):
// measured as the dedup-visible space for one segment-aligned file.
func BenchmarkAblationMetadataOverhead(b *testing.B) {
	keys := benchKeys(b)
	data := make([]byte, 118*4096*4)
	rand.New(rand.NewSource(3)).Read(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewMemStorage()
		m, err := New(store, keys)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.WriteFile("f", data); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			phys, _ := store.(*backend.MemStore).Stat("f")
			b.ReportMetric(100*float64(phys-int64(len(data)))/float64(len(data)), "space-overhead-%")
		}
	}
}

// Ablation: partial (outer-only) vs full re-key (§2.2): the partial
// path touches only 1/119 of the blocks.
func BenchmarkAblationRekey(b *testing.B) {
	mk := func(b *testing.B) (*Mount, Storage, KeyPair) {
		keys := benchKeys(b)
		store := NewMemStorage()
		m, err := New(store, keys)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, benchBytes)
		rand.New(rand.NewSource(4)).Read(data)
		if err := m.WriteFile("f", data); err != nil {
			b.Fatal(err)
		}
		return m, store, keys
	}
	b.Run("outer-only", func(b *testing.B) {
		m, _, keys := mk(b)
		b.SetBytes(benchBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newOuter := keys.Outer
			newOuter[0] ^= byte(i + 1)
			if _, err := m.RekeyOuter("f", newOuter); err != nil {
				b.Fatal(err)
			}
			// Keep the mount's key in sync for the next iteration.
			m2, err := New(mustStore(m), KeyPair{Inner: keys.Inner, Outer: newOuter})
			if err != nil {
				b.Fatal(err)
			}
			m = m2
		}
	})
	b.Run("full", func(b *testing.B) {
		m, store, keys := mk(b)
		b.SetBytes(benchBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nk := keys
			nk.Inner[0] ^= byte(i + 1)
			nk.Outer[0] ^= byte(i + 101)
			if _, err := m.RekeyFull("f", nk); err != nil {
				b.Fatal(err)
			}
			m2, err := New(store, nk)
			if err != nil {
				b.Fatal(err)
			}
			m = m2
		}
	})
}

// mustStore digs the backing store back out for rekey iteration; the
// benchmark keeps a single store alive across key changes.
func mustStore(m *Mount) Storage { return m.fs.Store() }

// Ablation: local inner-key KDF vs DupLESS server-aided OPRF (§1).
// Reports nanoseconds per derived convergent key.
func BenchmarkAblationKeyDerivation(b *testing.B) {
	h := cryptoutil.BlockHash(make([]byte, 4096))
	b.Run("local-kdf", func(b *testing.B) {
		var inner cryptoutil.Key
		inner[0] = 1
		for i := 0; i < b.N; i++ {
			_ = cryptoutil.DeriveCEKey(h, inner)
		}
	})
	b.Run("dupless-inprocess", func(b *testing.B) {
		srv, err := dupless.NewServer(2048)
		if err != nil {
			b.Fatal(err)
		}
		c := dupless.NewLocalClient(srv)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.DeriveKey(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dupless-tcp", func(b *testing.B) {
		srv, err := dupless.NewServer(2048)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go srv.Serve(ln) //nolint:errcheck
		nc, err := dupless.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer nc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nc.DeriveKey(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the cost of filename encryption on the metadata path.
func BenchmarkAblationNameEncryption(b *testing.B) {
	keys := benchKeys(b)
	data := make([]byte, 64*1024)
	for _, encNames := range []bool{false, true} {
		name := "plain-names"
		var opts []Option
		if encNames {
			name = "encrypted-names"
			opts = append(opts, WithEncryptedNames())
		}
		b.Run(name, func(b *testing.B) {
			m, err := New(NewMemStorage(), keys, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				fn := fmt.Sprintf("dir%d/file%d.dat", i%7, i)
				if err := m.WriteFile(fn, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: dedup engine scan rate (the filer-side cost).
func BenchmarkDedupScan(b *testing.B) {
	store := backend.NewMemStore()
	keysPair, _ := GenerateKeys()
	m, err := New(store, keysPair)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 32<<20)
	rand.New(rand.NewSource(5)).Read(data)
	if err := m.WriteFile("f", data); err != nil {
		b.Fatal(err)
	}
	eng, _ := dedupe.NewEngine(4096)
	b.SetBytes(32 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Scan(store); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity guard used by the benchmarks' assumptions: one segment is
// 119 blocks at the default geometry.
func BenchmarkSegmentCommit(b *testing.B) {
	bench := func(b *testing.B, parallelism int) {
		keys := benchKeys(b)
		store := backend.NewMemStore()
		rec := metrics.New()
		lfs, err := core.New(store, core.Config{
			Inner: keys.Inner, Outer: keys.Outer, Recorder: rec, Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		f, err := lfs.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		seg := make([]byte, 8*4096) // exactly one full batch at R=8
		rand.New(rand.NewSource(6)).Read(seg)
		if err := f.Truncate(118 * 4096); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(seg)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg[0] = byte(i)
			if _, err := f.WriteAt(seg, int64(i%14)*int64(len(seg))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { bench(b, 1) })
	b.Run("parallel", func(b *testing.B) { bench(b, 0) })
}
