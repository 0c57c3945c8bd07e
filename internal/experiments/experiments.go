// Package experiments regenerates every table and figure of the
// paper's evaluation (§4). Each experiment returns structured rows;
// Format renders them as the text tables cmd/lmsbench prints. The root
// bench_test.go exposes each as a testing.B benchmark.
//
// Sizes are parameterized: the paper used 4 GiB synthetic files and a
// 256 MiB FIO file on real hardware; the defaults here are scaled down
// so a full run finishes in seconds, and can be scaled back up with
// lmsbench's -mb and -scale. Scaling preserves every shape the paper
// reports (who wins, by what factor, where curves peak) because all
// effects — dedup ratios, I/O amplification, per-block CPU cost — are
// per-block, not per-file.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"lamassu/internal/backend"
	"lamassu/internal/core"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/datagen"
	"lamassu/internal/dedupe"
	"lamassu/internal/encfs"
	"lamassu/internal/fio"
	"lamassu/internal/layout"
	"lamassu/internal/metrics"
	"lamassu/internal/nfssim"
	"lamassu/internal/plainfs"
	"lamassu/internal/simclock"
	"lamassu/internal/vfs"
)

// testKeys returns the fixed key material used by all experiments
// (the experiments measure storage/performance, not key secrecy).
func testKeys() (inner, outer, volume cryptoutil.Key) {
	for i := range inner {
		inner[i] = byte(i*7 + 1)
		outer[i] = byte(i*13 + 5)
		volume[i] = byte(i*17 + 9)
	}
	return
}

// sysKind enumerates the file systems under comparison.
type sysKind int

const (
	sysPlain sysKind = iota
	sysEncFS
	sysLamassu
	sysLamassuMeta
)

func (k sysKind) String() string {
	switch k {
	case sysPlain:
		return "PlainFS"
	case sysEncFS:
		return "EncFS"
	case sysLamassu:
		return "LamassuFS"
	case sysLamassuMeta:
		return "LamassuFS(meta-only)"
	default:
		return "?"
	}
}

// makeFS constructs one of the comparison file systems over store.
func makeFS(k sysKind, store backend.Store, r int, rec *metrics.Recorder) (vfs.FS, error) {
	inner, outer, volume := testKeys()
	switch k {
	case sysPlain:
		return plainfs.New(store), nil
	case sysEncFS:
		return encfs.New(store, encfs.Config{VolumeKey: volume, BlockSize: 4096, Aligned: true})
	case sysLamassu, sysLamassuMeta:
		geo, err := layout.NewGeometry(4096, r)
		if err != nil {
			return nil, err
		}
		mode := core.IntegrityFull
		if k == sysLamassuMeta {
			mode = core.IntegrityMetaOnly
		}
		return core.New(store, core.Config{
			Geometry:  geo,
			Inner:     inner,
			Outer:     outer,
			Integrity: mode,
			Recorder:  rec,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown system %d", k)
	}
}

// ---------------------------------------------------------------
// Figure 6: storage efficiency with synthetic files
// ---------------------------------------------------------------

// Fig6Row is one α point of Figure 6: relative disk usage after
// deduplication (percent; 100 = no savings).
type Fig6Row struct {
	Alpha     float64
	EncFS     float64
	PlainFS   float64
	LamassuFS float64
}

// Fig6 copies a synthetic file with redundancy α through each file
// system onto its own volume, runs the deduplication engine, and
// reports the relative disk usage after dedup — the paper's Figure 6.
// fileBytes is the synthetic file size (the paper used 4 GiB).
func Fig6(fileBytes int64, alphas []float64) ([]Fig6Row, error) {
	if alphas == nil {
		alphas = []float64{0.10, 0.20, 0.30, 0.40, 0.50}
	}
	rows := make([]Fig6Row, 0, len(alphas))
	for _, alpha := range alphas {
		row := Fig6Row{Alpha: alpha}
		gen := datagen.Synthetic{
			Blocks:    int(fileBytes / 4096),
			BlockSize: 4096,
			Alpha:     alpha,
			Seed:      int64(alpha * 1000),
		}
		for _, k := range []sysKind{sysEncFS, sysPlain, sysLamassu} {
			store := backend.NewMemStore()
			fs, err := makeFS(k, store, layout.DefaultReservedSlots, nil)
			if err != nil {
				return nil, err
			}
			if err := gen.Generate(fs, "datafile"); err != nil {
				return nil, fmt.Errorf("fig6 α=%.2f %s: %w", alpha, k, err)
			}
			eng, _ := dedupe.NewEngine(4096)
			rep, err := eng.Scan(store)
			if err != nil {
				return nil, err
			}
			pct := 100 * rep.RelativeUsage()
			switch k {
			case sysEncFS:
				row.EncFS = pct
			case sysPlain:
				row.PlainFS = pct
			case sysLamassu:
				row.LamassuFS = pct
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig6 renders the Figure 6 rows.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: relative disk usage after deduplication (%%)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "alpha", "EncFS", "PlainFS", "LamassuFS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.0f %10.2f %10.2f %10.2f\n", r.Alpha*100, r.EncFS, r.PlainFS, r.LamassuFS)
	}
	return b.String()
}

// ---------------------------------------------------------------
// Table 1: storage efficiency with VM images
// ---------------------------------------------------------------

// Table1Row is one VM image of Table 1.
type Table1Row struct {
	Image string
	Bytes int64
	// PlainDedupPct and LamassuDedupPct are the "% Deduplicated"
	// columns; OverheadPct is Lamassu's space overhead relative to
	// the plaintext size.
	PlainDedupPct   float64
	LamassuDedupPct float64
	OverheadPct     float64
}

// Table1 regenerates the VM-image storage-efficiency table. scale
// divides the published image sizes (scale=1 reproduces them; the
// tests use larger scales for speed).
func Table1(scale int64) ([]Table1Row, error) {
	images := datagen.Table1Images(scale)
	rows := make([]Table1Row, 0, len(images))
	for i, img := range images {
		row := Table1Row{Image: img.Name, Bytes: img.Bytes}

		for _, k := range []sysKind{sysPlain, sysLamassu} {
			store := backend.NewMemStore()
			fs, err := makeFS(k, store, layout.DefaultReservedSlots, nil)
			if err != nil {
				return nil, err
			}
			if err := img.Generate(fs, img.Name, 4096, int64(100+i)); err != nil {
				return nil, fmt.Errorf("table1 %s: %w", img.Name, err)
			}
			eng, _ := dedupe.NewEngine(4096)
			rep, err := eng.Scan(store)
			if err != nil {
				return nil, err
			}
			switch k {
			case sysPlain:
				row.PlainDedupPct = 100 * rep.SavedFraction()
			case sysLamassu:
				row.LamassuDedupPct = 100 * rep.SavedFraction()
				phys, err := store.Stat(img.Name)
				if err != nil {
					return nil, err
				}
				row.OverheadPct = 100 * float64(phys-img.Bytes) / float64(img.Bytes)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders the Table 1 rows.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: storage efficiency with VM images\n")
	fmt.Fprintf(&b, "%-24s %10s %12s %12s %10s\n", "VM image", "Size", "Plain dedup", "Lms dedup", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %9.0fM %11.2f%% %11.2f%% %9.2f%%\n",
			r.Image, float64(r.Bytes)/(1<<20), r.PlainDedupPct, r.LamassuDedupPct, r.OverheadPct)
	}
	return b.String()
}

// ---------------------------------------------------------------
// Figures 7 and 8: single-file I/O throughput
// ---------------------------------------------------------------

// ThroughputCell is one bar of Figures 7/8 (MB/s).
type ThroughputCell struct {
	System   string
	Workload string
	MBps     float64
}

// ThroughputTable groups the cells of one figure.
type ThroughputTable struct {
	Title string
	Cells []ThroughputCell
}

// Get returns the throughput of (system, workload).
func (t ThroughputTable) Get(system, workload string) float64 {
	for _, c := range t.Cells {
		if c.System == system && c.Workload == workload {
			return c.MBps
		}
	}
	return 0
}

// runThroughput measures all five FIO workloads for the four systems.
// mkStore builds a fresh backing store per system; clock supplies
// time (virtual for the NFS model, real for RAM disk).
func runThroughput(title string, fileBytes int64, r int,
	mkStore func() backend.Store, clock simclock.Clock) (ThroughputTable, error) {
	table := ThroughputTable{Title: title}
	for _, k := range []sysKind{sysPlain, sysEncFS, sysLamassu, sysLamassuMeta} {
		store := mkStore()
		fs, err := makeFS(k, store, r, nil)
		if err != nil {
			return table, err
		}
		cfg := fio.DefaultConfig(fileBytes)
		cfg.Clock = clock
		cfg.SyncEvery = 0 // the shim controls commit cadence (§2.4)
		results, err := fio.RunAll(fs, cfg)
		if err != nil {
			return table, fmt.Errorf("%s %s: %w", title, k, err)
		}
		for _, w := range fio.Workloads() {
			table.Cells = append(table.Cells, ThroughputCell{
				System:   k.String(),
				Workload: w.String(),
				MBps:     results[w].MBps(),
			})
		}
	}
	return table, nil
}

// Fig7 measures single-file throughput over the simulated NFS filer
// (virtual clock — no real sleeping). The paper used a 256 MiB file.
func Fig7(fileBytes int64) (ThroughputTable, error) {
	clk := simclock.NewVirtual()
	return runThroughput(
		"Figure 7: single-file I/O throughput with a remote filer (MB/s)",
		fileBytes, layout.DefaultReservedSlots,
		func() backend.Store { return nfssim.New(backend.NewMemStore(), nfssim.GigabitNFS(), clk) },
		clk,
	)
}

// Fig8 measures single-file throughput on the RAM-disk backend with
// real time: the CPU cost of hashing and encryption is what is being
// measured.
func Fig8(fileBytes int64) (ThroughputTable, error) {
	return runThroughput(
		"Figure 8: single-file I/O throughput with a RAM disk (MB/s)",
		fileBytes, layout.DefaultReservedSlots,
		func() backend.Store { return backend.NewMemStore() },
		simclock.Real{},
	)
}

// FormatThroughput renders a Figure 7/8 table: workloads as rows,
// systems as columns.
func FormatThroughput(t ThroughputTable) string {
	systems := []string{sysPlain.String(), sysEncFS.String(), sysLamassu.String(), sysLamassuMeta.String()}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, s := range systems {
		fmt.Fprintf(&b, " %20s", s)
	}
	fmt.Fprintln(&b)
	for _, w := range fio.Workloads() {
		fmt.Fprintf(&b, "%-12s", w.String())
		for _, s := range systems {
			fmt.Fprintf(&b, " %20.1f", t.Get(s, w.String()))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---------------------------------------------------------------
// Figure 9: latency breakdown
// ---------------------------------------------------------------

// Fig9Row is one bar of Figure 9: the per-operation latency of one
// (integrity mode, workload) pair, split into the five categories.
type Fig9Row struct {
	Mode     string // "full" or "meta-only"
	Workload string // "seq-write" or "seq-read"
	PerOp    map[string]time.Duration
	TotalOp  time.Duration
}

// Fig9 instruments sequential writes and reads on a RAM disk and
// reports the per-op latency split into Encrypt / Decrypt / GetCEKey /
// I/O / Misc, with and without the full data integrity check.
func Fig9(fileBytes int64) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, mode := range []core.IntegrityMode{core.IntegrityFull, core.IntegrityMetaOnly} {
		rec := metrics.New()
		store := backend.NewMemStore()
		k := sysLamassu
		if mode == core.IntegrityMetaOnly {
			k = sysLamassuMeta
		}
		fs, err := makeFS(k, store, layout.DefaultReservedSlots, rec)
		if err != nil {
			return nil, err
		}
		cfg := fio.DefaultConfig(fileBytes)
		cfg.SyncEvery = 0
		name, err := fio.Prepare(fs, cfg)
		if err != nil {
			return nil, err
		}

		for _, w := range []fio.Workload{fio.SeqWrite, fio.SeqRead} {
			rec.Reset()
			res, err := fio.Run(fs, name, w, cfg)
			if err != nil {
				return nil, err
			}
			snap := rec.Snapshot()
			perOp := make(map[string]time.Duration, 5)
			var total time.Duration
			for _, c := range metrics.Categories() {
				d := snap.Total[c] / time.Duration(res.Ops)
				perOp[c.String()] = d
				total += d
			}
			// Anything the recorder did not classify is Misc.
			measured := res.Elapsed / time.Duration(res.Ops)
			if measured > total {
				perOp[metrics.Misc.String()] += measured - total
				total = measured
			}
			rows = append(rows, Fig9Row{
				Mode:     mode.String(),
				Workload: w.String(),
				PerOp:    perOp,
				TotalOp:  total,
			})
		}
	}
	return rows, nil
}

// FormatFig9 renders the latency-breakdown rows in µs per op.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: LamassuFS latency breakdown on a RAM disk (µs/op)\n")
	fmt.Fprintf(&b, "%-10s %-10s", "mode", "workload")
	for _, c := range metrics.Categories() {
		fmt.Fprintf(&b, " %9s", c.String())
	}
	fmt.Fprintf(&b, " %9s\n", "total")
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s", r.Mode, r.Workload)
		for _, c := range metrics.Categories() {
			fmt.Fprintf(&b, " %9.2f", us(r.PerOp[c.String()]))
		}
		fmt.Fprintf(&b, " %9.2f\n", us(r.TotalOp))
	}
	return b.String()
}

// ---------------------------------------------------------------
// Figure 10: throughput vs number of reserved key slots R
// ---------------------------------------------------------------

// Fig10Row is one R point of Figure 10 (MB/s per workload).
type Fig10Row struct {
	R         int
	SeqRead   float64
	RandRead  float64
	SeqWrite  float64
	RandWrite float64
	// Backend I/Os per MiB written, from the engine's own I/O counter:
	// what makes the write columns rise with R (a commit of up to R
	// overwritten blocks costs its two metadata writes once), and unlike
	// them the same number on every run.
	seqWriteIOs, randWriteIOs float64
}

// Fig10 sweeps R over the paper's values on a RAM-disk LamassuFS.
func Fig10(fileBytes int64, rValues []int) ([]Fig10Row, error) {
	if rValues == nil {
		rValues = []int{1, 2, 8, 32, 48, 52, 56, 60}
	}
	rows := make([]Fig10Row, 0, len(rValues))
	for _, r := range rValues {
		store := backend.NewMemStore()
		rec := metrics.New()
		fs, err := makeFS(sysLamassu, store, r, rec)
		if err != nil {
			return nil, err
		}
		cfg := fio.DefaultConfig(fileBytes)
		cfg.SyncEvery = 0
		name, err := fio.Prepare(fs, cfg)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{R: r}
		for _, w := range []fio.Workload{fio.SeqRead, fio.RandRead, fio.SeqWrite, fio.RandWrite} {
			rec.Reset()
			res, err := fio.Run(fs, name, w, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig10 R=%d %s: %w", r, w, err)
			}
			iosPerMiB := float64(rec.Snapshot().IOs()) / (float64(res.Bytes) / (1 << 20))
			switch w {
			case fio.SeqRead:
				row.SeqRead = res.MBps()
			case fio.RandRead:
				row.RandRead = res.MBps()
			case fio.SeqWrite:
				row.SeqWrite, row.seqWriteIOs = res.MBps(), iosPerMiB
			case fio.RandWrite:
				row.RandWrite, row.randWriteIOs = res.MBps(), iosPerMiB
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig10 renders the R-sweep rows.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: single-file I/O throughput by varying R (MB/s)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %10s\n", "R", "seq-read", "rand-read", "seq-write", "rand-write")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10.1f %10.1f %10.1f %10.1f\n",
			r.R, r.SeqRead, r.RandRead, r.SeqWrite, r.RandWrite)
	}
	return b.String()
}

// ---------------------------------------------------------------
// Figure 11: storage efficiency by varying R
// ---------------------------------------------------------------

// Fig11Row is one R point of Figure 11: the percentage of blocks in
// the (deduplicated) encrypted file that are data blocks, for each
// redundancy profile α.
type Fig11Row struct {
	R int
	// PctByAlpha maps α (0, 0.1, ... 0.5) to the data-block
	// percentage.
	PctByAlpha map[float64]float64
}

// Fig11Alphas are the redundancy profiles plotted in Figure 11.
var Fig11Alphas = []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}

// Fig11 measures, for each R and α, the fraction of blocks remaining
// after deduplication that hold file data rather than embedded
// metadata. Metadata blocks never dedup, so the fraction falls as R
// grows (more metadata per segment) and as α grows (fewer unique data
// blocks).
func Fig11(fileBytes int64, rValues []int) ([]Fig11Row, error) {
	if rValues == nil {
		rValues = []int{1, 2, 8, 32, 48, 52, 56, 60}
	}
	rows := make([]Fig11Row, 0, len(rValues))
	for _, r := range rValues {
		row := Fig11Row{R: r, PctByAlpha: make(map[float64]float64, len(Fig11Alphas))}
		for _, alpha := range Fig11Alphas {
			store := backend.NewMemStore()
			fs, err := makeFS(sysLamassu, store, r, nil)
			if err != nil {
				return nil, err
			}
			gen := datagen.Synthetic{
				Blocks:    int(fileBytes / 4096),
				BlockSize: 4096,
				Alpha:     alpha,
				Seed:      int64(r*1000) + int64(alpha*100),
			}
			if err := gen.Generate(fs, "datafile"); err != nil {
				return nil, err
			}
			eng, _ := dedupe.NewEngine(4096)
			rep, err := eng.Scan(store)
			if err != nil {
				return nil, err
			}
			geo, err := layout.NewGeometry(4096, r)
			if err != nil {
				return nil, err
			}
			nmb := geo.NumMetaBlocks(gen.Size())
			uniqueData := rep.UniqueBlocks - nmb
			row.PctByAlpha[alpha] = 100 * float64(uniqueData) / float64(rep.UniqueBlocks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig11 renders the Figure 11 rows.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: %% data blocks in an encrypted file by varying R\n")
	fmt.Fprintf(&b, "%-6s", "R")
	for _, a := range Fig11Alphas {
		fmt.Fprintf(&b, " %7.0f%%", a*100)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d", r.R)
		for _, a := range Fig11Alphas {
			fmt.Fprintf(&b, " %8.2f", r.PctByAlpha[a])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
