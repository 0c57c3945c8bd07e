package experiments

import (
	"strings"
	"testing"

	"lamassu/internal/backend"
	"lamassu/internal/fio"
	"lamassu/internal/layout"
	"lamassu/internal/simclock"
)

// The tests here assert the paper's qualitative results (shapes), not
// absolute numbers: who wins, in which direction curves move, and the
// published analytic quantities (overheads, dedup percentages) that
// are hardware-independent.

const smallFile = 8 << 20 // 8 MiB keeps the full suite fast

// skipInShort guards the experiment-regeneration suites: each run
// rebuilds a full figure or table (~3-30s of encryption work), which
// would blow the -short/-race CI budget. The full suite still runs
// them via plain `go test ./...`.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
}

func TestFig6Shapes(t *testing.T) {
	skipInShort(t)
	rows, err := Fig6(smallFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// EncFS never dedups: exactly 100%.
		if r.EncFS != 100 {
			t.Errorf("α=%.0f%%: EncFS = %.2f%%, want 100%%", r.Alpha*100, r.EncFS)
		}
		// PlainFS dedups to exactly (1-α) (±rounding on block counts).
		want := 100 * (1 - r.Alpha)
		if r.PlainFS < want-0.5 || r.PlainFS > want+0.5 {
			t.Errorf("α=%.0f%%: PlainFS = %.2f%%, want %.1f%%", r.Alpha*100, r.PlainFS, want)
		}
		// Lamassu lands within ~2.5% above PlainFS (embedded metadata),
		// never below.
		if r.LamassuFS < r.PlainFS {
			t.Errorf("α=%.0f%%: Lamassu %.2f%% below PlainFS %.2f%%", r.Alpha*100, r.LamassuFS, r.PlainFS)
		}
		if r.LamassuFS > r.PlainFS+2.5 {
			t.Errorf("α=%.0f%%: Lamassu overhead too large: %.2f%% vs %.2f%%", r.Alpha*100, r.LamassuFS, r.PlainFS)
		}
	}
	// The paper: Lamassu's relative overhead grows with α (inversely
	// proportional to 1-α).
	first := rows[0].LamassuFS - rows[0].PlainFS
	last := rows[len(rows)-1].LamassuFS - rows[len(rows)-1].PlainFS
	if last <= first {
		t.Errorf("relative overhead did not grow with α: %.3f vs %.3f", first, last)
	}
	out := FormatFig6(rows)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "LamassuFS") {
		t.Errorf("FormatFig6 output malformed:\n%s", out)
	}
}

func TestTable1Shapes(t *testing.T) {
	skipInShort(t)
	rows, err := Table1(256) // heavily scaled for test speed
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	paperPlain := []float64{9.35, 15.40, 22.07, 36.73, 8.08}
	for i, r := range rows {
		// Plain dedup tracks the published column (the generator is
		// calibrated to it).
		if diff := r.PlainDedupPct - paperPlain[i]; diff < -1 || diff > 1 {
			t.Errorf("%s: plain dedup %.2f%%, paper %.2f%%", r.Image, r.PlainDedupPct, paperPlain[i])
		}
		// Lamassu dedups almost as much: within 1.5 points below.
		if r.LamassuDedupPct > r.PlainDedupPct {
			t.Errorf("%s: Lamassu dedup exceeds plain", r.Image)
		}
		if r.PlainDedupPct-r.LamassuDedupPct > 1.5 {
			t.Errorf("%s: Lamassu dedup %.2f%% too far below plain %.2f%%", r.Image, r.LamassuDedupPct, r.PlainDedupPct)
		}
		// Space overhead ~1–2% (paper: 1.01%–1.83%).
		if r.OverheadPct < 0.5 || r.OverheadPct > 2.5 {
			t.Errorf("%s: overhead %.2f%% outside the paper's range", r.Image, r.OverheadPct)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "FreeDOS.vdi") {
		t.Errorf("FormatTable1 missing image names:\n%s", out)
	}
}

func TestFig7NFSShapes(t *testing.T) {
	skipInShort(t)
	tab, err := Fig7(smallFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cells) != 20 {
		t.Fatalf("cells = %d", len(tab.Cells))
	}
	// Writes: PlainFS beats both encrypted systems; EncFS beats
	// full Lamassu (per-block hashing + metadata I/O).
	for _, w := range []string{"seq-write", "rand-write"} {
		plain := tab.Get("PlainFS", w)
		enc := tab.Get("EncFS", w)
		lms := tab.Get("LamassuFS", w)
		if !(plain > enc && enc > lms) {
			t.Errorf("%s: ordering plain=%.1f encfs=%.1f lamassu=%.1f, want plain > encfs > lamassu",
				w, plain, enc, lms)
		}
	}
	// Reads over NFS: all systems within a modest band (NFS I/O
	// dominates, paper §4.2).
	for _, w := range []string{"seq-read", "rand-read"} {
		plain := tab.Get("PlainFS", w)
		lms := tab.Get("LamassuFS", w)
		if lms < plain/2 {
			t.Errorf("%s: Lamassu %.1f MB/s below half of PlainFS %.1f — NFS should dominate reads",
				w, lms, plain)
		}
	}
	// All bandwidths must be NFS-plausible.
	for _, c := range tab.Cells {
		if c.MBps <= 0 || c.MBps > 200 {
			t.Errorf("%s/%s: %.1f MB/s not in NFS regime", c.System, c.Workload, c.MBps)
		}
	}
	out := FormatThroughput(tab)
	if !strings.Contains(out, "remote filer") {
		t.Errorf("FormatThroughput malformed:\n%s", out)
	}
}

// fig8Cell measures one cell of Figure 8 on its own, set up the way
// runThroughput sets up a column: a fresh RAM store, the prepared file,
// then the one workload.
func fig8Cell(t *testing.T, system, workload string) float64 {
	t.Helper()
	for _, k := range []sysKind{sysPlain, sysEncFS, sysLamassu, sysLamassuMeta} {
		for _, w := range fio.Workloads() {
			if k.String() != system || w.String() != workload {
				continue
			}
			fs, err := makeFS(k, backend.NewMemStore(), layout.DefaultReservedSlots, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fio.DefaultConfig(smallFile)
			cfg.Clock = simclock.Real{}
			cfg.SyncEvery = 0
			name, err := fio.Prepare(fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fio.Run(fs, name, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.MBps()
		}
	}
	t.Fatalf("no Figure 8 cell %s/%s", system, workload)
	return 0
}

func TestFig8RAMShapes(t *testing.T) {
	skipInShort(t)
	tab, err := Fig8(smallFile)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell is wall-clock MB/s from one run, so on a shared box one
	// descheduled cell can invert an ordering that holds by a wide
	// margin. An ordering therefore fails only if it is violated in the
	// table AND in two re-measurements of just the two cells it
	// compares; the orderings themselves are as strict as ever.
	below := func(workload, slow, fast, why string) {
		t.Helper()
		lo, hi := tab.Get(slow, workload), tab.Get(fast, workload)
		for retry := 0; lo >= hi && retry < 2; retry++ {
			t.Logf("%s: %s (%.1f) not below %s (%.1f); re-measuring the two cells", workload, slow, lo, fast, hi)
			lo, hi = fig8Cell(t, slow, workload), fig8Cell(t, fast, workload)
		}
		if lo >= hi {
			t.Errorf("%s: %s (%.1f) not below %s (%.1f) in three measurements — %s", workload, slow, lo, fast, hi, why)
		}
	}
	for _, w := range []string{"seq-write", "seq-read", "rand-write", "rand-read", "rand-rw"} {
		for _, s := range []string{"EncFS", "LamassuFS", "LamassuFS(meta-only)"} {
			below(w, s, "PlainFS", "on a RAM disk CPU dominates: PlainFS beats every encrypted system")
		}
	}
	below("seq-read", "LamassuFS", "LamassuFS(meta-only)",
		"the meta-only read path must beat full integrity (the paper's 83.2% vs 22.8% below EncFS)")
	below("seq-write", "LamassuFS", "EncFS", "EncFS beats Lamassu on writes (extra SHA-256 per block)")
}

func TestFig9Shapes(t *testing.T) {
	skipInShort(t)
	rows, err := Fig9(smallFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(mode, wl string) Fig9Row {
		for _, r := range rows {
			if r.Mode == mode && r.Workload == wl {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", mode, wl)
		return Fig9Row{}
	}
	fullRead := get("full", "seq-read")
	metaRead := get("meta-only", "seq-read")
	// GetCEKey is a major component of the full-integrity read path
	// and (near) absent from the meta-only read path — the paper's
	// 81% read-latency reduction.
	if fullRead.PerOp["GetCEKey"] == 0 {
		t.Errorf("full read GetCEKey = 0")
	}
	if metaRead.PerOp["GetCEKey"] >= fullRead.PerOp["GetCEKey"]/2 {
		t.Errorf("meta-only GetCEKey %v not well below full %v",
			metaRead.PerOp["GetCEKey"], fullRead.PerOp["GetCEKey"])
	}
	if metaRead.TotalOp >= fullRead.TotalOp {
		t.Errorf("meta-only read latency %v not below full %v", metaRead.TotalOp, fullRead.TotalOp)
	}
	// Writes hash every block in both modes.
	fullWrite := get("full", "seq-write")
	if fullWrite.PerOp["GetCEKey"] == 0 || fullWrite.PerOp["Encrypt"] == 0 {
		t.Errorf("write path categories missing: %+v", fullWrite.PerOp)
	}
	out := FormatFig9(rows)
	if !strings.Contains(out, "GetCEKey") {
		t.Errorf("FormatFig9 malformed:\n%s", out)
	}
}

func TestFig10Shapes(t *testing.T) {
	skipInShort(t)
	rows, err := Fig10(smallFile, []int{1, 8, 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Write throughput improves substantially from R=1 to R=48 (paper:
	// 1.6x at the peak) because a commit's two metadata writes are paid
	// once per up to R overwritten blocks. The MB/s columns are wall
	// clock and cross on a busy box, so the shape is asserted on its
	// cause: backend I/Os per MiB written fall strictly with R (770 →
	// 100 → 23.5 sequential, 770 → 298 → 95 random; counts, the same on
	// every run).
	for i := 1; i < len(rows); i++ {
		lo, hi := rows[i-1], rows[i]
		if hi.seqWriteIOs >= lo.seqWriteIOs {
			t.Errorf("seq-write backend I/Os per MiB did not fall with R: R=%d %.1f, R=%d %.1f",
				lo.R, lo.seqWriteIOs, hi.R, hi.seqWriteIOs)
		}
		if hi.randWriteIOs >= lo.randWriteIOs {
			t.Errorf("rand-write backend I/Os per MiB did not fall with R: R=%d %.1f, R=%d %.1f",
				lo.R, lo.randWriteIOs, hi.R, hi.randWriteIOs)
		}
	}
	out := FormatFig10(rows)
	if !strings.Contains(out, "seq-write") {
		t.Errorf("FormatFig10 malformed:\n%s", out)
	}
}

func TestFig11Shapes(t *testing.T) {
	skipInShort(t)
	rows, err := Fig11(smallFile, []int{1, 8, 60})
	if err != nil {
		t.Fatal(err)
	}
	// Data-block percentage decreases with R at fixed α, and
	// decreases with α at fixed R; all values live in the figure's
	// 96–99.5% band.
	for _, r := range rows {
		prev := 101.0
		for _, a := range Fig11Alphas {
			pct := r.PctByAlpha[a]
			if pct < 95 || pct > 99.5 {
				t.Errorf("R=%d α=%.0f%%: %.2f%% outside the figure band", r.R, a*100, pct)
			}
			if pct > prev+0.01 {
				t.Errorf("R=%d: %%data increased with α (%.2f after %.2f)", r.R, pct, prev)
			}
			prev = pct
		}
	}
	for _, a := range Fig11Alphas {
		if rows[2].PctByAlpha[a] >= rows[0].PctByAlpha[a] {
			t.Errorf("α=%.0f%%: %%data did not fall from R=1 (%.2f) to R=60 (%.2f)",
				a*100, rows[0].PctByAlpha[a], rows[2].PctByAlpha[a])
		}
	}
	out := FormatFig11(rows)
	if !strings.Contains(out, "Figure 11") {
		t.Errorf("FormatFig11 malformed:\n%s", out)
	}
}
