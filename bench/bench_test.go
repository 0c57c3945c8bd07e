package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ---- inputs are a function of the seed --------------------------------

func tinyConfig(workload string, seed int64, trace bool) runConfig {
	return runConfig{workload: workload, seed: seed, rounds: 2, clients: 2, trace: trace, sz: tinySizes}
}

func inputHashes(t *testing.T, workload string, seed int64) (ops, data [32]byte) {
	t.Helper()
	e, err := buildWorkload(workload, stackOpts{seed: seed, clients: 2, sz: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var files [][]byte
	for _, v := range e.src {
		files = append(files, v...)
	}
	return opsHash(e.phases), dataHash(files)
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadSpecs {
		ops1, data1 := inputHashes(t, w.Name, 7)
		ops2, data2 := inputHashes(t, w.Name, 7)
		ops3, data3 := inputHashes(t, w.Name, 8)
		if ops1 != ops2 || data1 != data2 {
			t.Errorf("%s: two builds with seed 7 differ", w.Name)
		}
		if data1 == data3 {
			t.Errorf("%s: seeds 7 and 8 generate the same data", w.Name)
		}
		// Streaming op lists are the same walk over the file whatever the
		// seed; the seeded ones must move.
		if seeded := w.Name == "local-rand" || w.Name == "wire-objects"; seeded && ops1 == ops3 {
			t.Errorf("%s: seeds 7 and 8 generate the same op list", w.Name)
		}
	}
}

// ---- span arithmetic ---------------------------------------------------

func TestUnionLen(t *testing.T) {
	cases := []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"disjoint", []interval{{0, 10}, {20, 30}}, 0, 100, 20},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 0, 100, 15},
		{"nested", []interval{{0, 30}, {5, 10}, {12, 20}}, 0, 100, 30},
		{"touching", []interval{{0, 10}, {10, 20}}, 0, 100, 20},
		{"clipped to parent", []interval{{-5, 10}, {90, 120}}, 0, 100, 20},
		{"outside parent", []interval{{200, 300}}, 0, 100, 0},
		{"unsorted", []interval{{40, 50}, {0, 10}, {5, 45}}, 0, 100, 50},
		{"none", nil, 0, 100, 0},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimeAndNesting(t *testing.T) {
	// One op 0..100 with a handler 10..90 under it; the handler has two
	// overlapping leaf calls 20..50 and 40..70 and one more 80..85. A
	// second op 200..300 has a leaf call that outlives it (290..320).
	spans := []span{
		{ID: 1, Parent: 0, Layer: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: spanHandler, Start: 10, End: 90},
		{ID: 3, Parent: 2, Layer: spanLeaf, Start: 20, End: 50},
		{ID: 4, Parent: 2, Layer: spanLeaf, Start: 40, End: 70},
		{ID: 5, Parent: 2, Layer: spanLeaf, Start: 80, End: 85},
		{ID: 6, Parent: 0, Layer: spanOp, Start: 200, End: 300},
		{ID: 7, Parent: 6, Layer: spanLeaf, Start: 290, End: 320},
		{ID: 8, Parent: 0, Layer: spanLeaf, Start: 500, End: 600}, // orphan: no op
	}
	tree := buildTree(spans)
	if got := selfTime(spans[1], tree.children[2]); got != 80-55 {
		t.Errorf("handler self time = %d, want %d", got, 80-55)
	}
	if got := selfTime(spans[0], tree.children[1]); got != 20 {
		t.Errorf("op self time = %d, want 20", got)
	}
	if got := tree.root(spans[3]).ID; got != 1 {
		t.Errorf("root of leaf 4 = span %d, want 1", got)
	}
	covered, total := tree.coveredByLayer(spans, spanLeaf)
	if covered != 55+10 || total != 200 {
		t.Errorf("coveredByLayer = %d of %d, want 65 of 200", covered, total)
	}
}

// ---- statistics --------------------------------------------------------

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of these inputs, from CPython 3.12.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2.5, 3.1, 4.7, 4.9, 5.0, 6.2, 7.7}, 3.1, 6.2},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// ---- -compare and -selfcheck verdicts ----------------------------------

func repeat(v float64, jitter []float64) []float64 {
	out := make([]float64, len(jitter))
	for i, j := range jitter {
		out[i] = v * (1 + j)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	tp := e2eSpec{"write_mibps", "MiB/s", higher, 0.08}
	lat := e2eSpec{"read_p50_ms", "ms", lower, 0.10}
	quiet := []float64{-0.01, 0.01, 0, -0.005, 0.005, 0.01, -0.01, 0, 0.005, -0.005}
	loud := []float64{-0.15, 0.15, 0, -0.1, 0.1, 0.12, -0.12, 0, 0.05, -0.05}
	cases := []struct {
		name     string
		spec     e2eSpec
		old, new []float64
		want     string
	}{
		{"clear gain", tp, repeat(100, quiet), repeat(120, quiet), verdictGain},
		{"gain in a lower-is-better metric", lat, repeat(10, quiet), repeat(8, quiet), verdictGain},
		{"too few pairs for a gain", tp, repeat(100, quiet[:5]), repeat(120, quiet[:5]), verdictUnchanged},
		{"delta inside the parent's spread", tp, repeat(100, loud), repeat(103, quiet), verdictUnresolved},
		{"gain over a parent noisier than the bound", tp, repeat(100, loud), repeat(150, quiet), verdictGain},
		{"loss, but the parent is noisier than the bound", tp, repeat(100, loud), repeat(88, quiet), verdictUnresolved},
		{"regression beyond the bound", tp, repeat(100, quiet), repeat(90, quiet), verdictRegression},
		{"latency regression", lat, repeat(10, quiet), repeat(11.5, quiet), verdictRegression},
		{"small loss within the bound", tp, repeat(100, quiet), repeat(97, quiet), verdictUnchanged},
		{"noisy and no clear winner", tp, repeat(100, loud), repeat(101, loud), verdictUnresolved},
		{"same numbers", tp, repeat(100, quiet), repeat(100, quiet), verdictUnchanged},
	}
	for _, c := range cases {
		if got := compareMetric(c.spec, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Wins below nine in ten pairs are not a gain, however large the
	// median moved.
	mixed := repeat(120, quiet)
	mixed[0], mixed[1] = 90, 90
	if got := compareMetric(tp, repeat(100, quiet), mixed).verdict; got == verdictGain {
		t.Errorf("8 wins of 10 judged a gain")
	}
}

func syntheticSet(scale float64, jitter []float64) *resultFile {
	f := &resultFile{Schema: resultSchema}
	for _, w := range workloadSpecs {
		for i, j := range jitter {
			r := &result{Workload: w.Name, Seed: int64(i + 1), Correct: true, Metrics: map[string]metricValue{}}
			for _, s := range e2eSpecs {
				v := 100 * scale * (1 + j)
				if s.Unit == "ratio" { // counts: the same in every run
					v = 1.25
				}
				r.Metrics[s.Name] = metricValue{v, s.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
	}
	return f
}

func TestCheckSets(t *testing.T) {
	quiet := []float64{-0.01, 0.01, 0, -0.005, 0.005}
	check := func(a, b *resultFile) (bool, string) {
		var out bytes.Buffer
		ok := checkSets(&out, []*resultFile{a, b})
		return ok, out.String()
	}
	if ok, out := check(syntheticSet(1, quiet), syntheticSet(1.01, quiet)); !ok {
		t.Errorf("sets 1 %% apart rejected:\n%s", out)
	}
	if ok, _ := check(syntheticSet(1, quiet), syntheticSet(1.15, quiet)); ok {
		t.Errorf("sets 15 %% apart accepted (half of every bound is less)")
	}
	stray := []float64{-0.01, 0.01, 0, 0.12, 0.005}
	if ok, out := check(syntheticSet(1, quiet), syntheticSet(1, stray)); ok || !strings.Contains(out, "seed 4") {
		t.Errorf("one run 12 %% off its set median must fail the check and be named:\n%s", out)
	}
	for _, ratio := range []string{"stored_per_logical", "dedup_stored_per_logical", "wire_bytes_per_logical"} {
		b := syntheticSet(1, quiet)
		b.Runs[0].Metrics[ratio] = metricValue{1.2500001, "ratio"} // a local-seq run
		if ok, _ := check(syntheticSet(1, quiet), b); ok {
			t.Errorf("%s differs between the sets' runs of one seed, and the check passed", ratio)
		}
	}
	b := syntheticSet(1, quiet)
	b.Runs[0].Seed = 99
	if ok, _ := check(syntheticSet(1, quiet), b); ok {
		t.Errorf("sets with different seeds accepted")
	}
}

func TestCompareFilesPairsBySeed(t *testing.T) {
	quiet := []float64{-0.01, 0.01, 0, -0.005, 0.005}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The same runs in another file order are the same pairs.
	shuffled := syntheticSet(1, quiet)
	last := len(shuffled.Runs) - 1
	shuffled.Runs[0], shuffled.Runs[last] = shuffled.Runs[last], shuffled.Runs[0]
	ok, err := compareFiles(io.Discard, write("old.json", syntheticSet(1, quiet)), write("new.json", shuffled))
	if err != nil || !ok {
		t.Errorf("same runs, shuffled: ok=%v err=%v", ok, err)
	}
	other := syntheticSet(1, quiet)
	other.Runs[0].Seed = 99
	if _, err := compareFiles(io.Discard, write("old.json", syntheticSet(1, quiet)), write("other.json", other)); err == nil {
		t.Errorf("files with different seeds compared without an error")
	}
}

// ---- BENCHMARK.json, the spec and the code agree -----------------------

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if doc.RunSeconds != runSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want %d and within 1..60", doc.RunSeconds, runSeconds)
	}
	// The file and spec.go list the same things in the same order.
	if len(doc.Workloads) != len(workloadSpecs) || len(doc.EndToEnd) != len(e2eSpecs) || len(doc.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; spec.go %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadSpecs), len(e2eSpecs), len(layerSpecs))
	}
	for i, w := range workloadSpecs {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, got, w)
		}
	}
	for i, m := range e2eSpecs {
		if got := doc.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	for i, m := range layerSpecs {
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// TestEveryMetricIsEmitted runs every workload at tiny sizes, untraced
// and traced, and checks that the names it prints are exactly the names
// the spec lists.
func TestEveryMetricIsEmitted(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(tinyConfig(w.Name, 3, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: not correct: %v", w.Name, trace, res.Problems)
			}
			want := map[string]string{}
			if trace {
				for _, s := range layerSpecs {
					want[s.Name] = s.Unit
				}
			} else {
				for _, s := range e2eSpecs {
					want[s.Name] = s.Unit
				}
			}
			for n, m := range res.Metrics {
				if want[n] != m.Unit {
					t.Errorf("%s trace=%v: emitted %s in %q, spec has %q", w.Name, trace, n, m.Unit, want[n])
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, n, m.Value)
				}
			}
			for n := range want {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: %s is in the spec and was not emitted", w.Name, trace, n)
				}
			}
			if trace {
				checkIsolation(t, w.Name, res)
			}
		}
	}
}

// checkIsolation pins what makes each workload a test of its own layer.
func checkIsolation(t *testing.T, workload string, res *result) {
	t.Helper()
	v := func(n string) float64 { return res.Metrics[n].Value }
	mounted := func(layer string) bool {
		switch layer {
		case "shard", "objstore":
			return workload == "objstore-seq-z2"
		case "serve":
			return workload == "wire-objects"
		case "backend":
			return workload != "objstore-seq-z2"
		}
		return true
	}
	for _, s := range layerSpecs {
		// A per-layer metric's layer is its name up to the first dot.
		if l, _, _ := strings.Cut(s.Name, "."); !mounted(l) && v(s.Name) != 0 {
			t.Errorf("%s: %s = %v, but the workload does not mount %s", workload, s.Name, v(s.Name), l)
		}
	}
	if v("trace.spans") == 0 {
		t.Errorf("%s: the traced run recorded no spans", workload)
	}
	switch workload {
	case "objstore-seq-z2":
		if v("objstore.leaf_busy_share") <= 0.5 {
			t.Errorf("objstore.leaf_busy_share = %v, want the leaves busy most of the time", v("objstore.leaf_busy_share"))
		}
		if v("shard.replica_writes") == 0 || v("objstore.requests_per_mib") == 0 {
			t.Errorf("objstore-seq-z2 shows no replica writes or no requests")
		}
	case "wire-objects":
		if v("serve.requests") == 0 {
			t.Errorf("wire-objects served no requests")
		}
	}
}

// TestExactCounts runs each workload twice in exact-count mode — one
// client, one timed round — and requires the counts a later change may
// rest a claim on to repeat bit for bit.
func TestExactCounts(t *testing.T) {
	for _, w := range workloadSpecs {
		var runs [2]map[string]float64
		for i := range runs {
			runs[i] = map[string]float64{}
			for _, trace := range []bool{false, true} {
				cfg := tinyConfig(w.Name, 5, trace)
				cfg.clients, cfg.rounds = 1, 1
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				for n, m := range res.Metrics {
					runs[i][n] = m.Value
				}
			}
		}
		exact := []string{"stored_per_logical", "dedup_stored_per_logical", "wire_bytes_per_logical"}
		for _, s := range layerSpecs {
			if s.Exact {
				exact = append(exact, s.Name)
			}
		}
		for _, n := range exact {
			// What a local-rand read costs the backend depends on what the
			// block cache holds, and the engine's two workers fill it in an
			// order that depends on timing, one client or not.
			if w.Name == "local-rand" && (n == "wire_bytes_per_logical" || n == "core.backend_ios_per_mib") {
				continue
			}
			if runs[0][n] != runs[1][n] {
				t.Errorf("%s: %s = %v then %v; exact counts must repeat", w.Name, n, runs[0][n], runs[1][n])
			}
		}
	}
}
