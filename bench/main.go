// Command bench is the repository's benchmark: four closed-loop
// workloads over the real stack, eleven end-to-end metrics, and — in a
// separate traced run — per-layer attribution measured from outside the
// program. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run; empty runs all four")
		seed      = flag.Int64("seed", 1, "seed of the generated data and op lists")
		_         = flag.Float64("seconds", runSeconds, "accepted for the driver and not used: a run is a fixed op list, sized to time about this long, so that every commit measures the same work")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		clients   = flag.Int("clients", 0, "client goroutines; 0 selects min(nproc, 2)")
		rounds    = flag.Int("rounds", timedRounds, "timed rounds (exact-count mode: -clients 1 -rounds 1)")
		out       = flag.String("out", "", "append each run's record to this result file")
		spansOut  = flag.String("spans", "", "traced run: write every recorded span to this file as JSON lines")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run interleaved sets of runs of this binary and check that they agree; given result files, judge those instead")
		sets      = flag.Int("sets", 2, "selfcheck: number of sets")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload")
	)
	flag.Parse()
	spansPath = *spansOut

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *selfcheck:
		ok, err := selfCheck(os.Stdout, *sets, *runs, flag.Args())
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	if *clients <= 0 {
		*clients = min(runtime.NumCPU(), 2)
	}
	if *rounds < 1 {
		fatal(2, "-rounds must be at least 1")
	}
	var all []*result
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, rounds: *rounds,
			clients: *clients, trace: *trace != 0, sz: fullSizes}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(2, "%s: %v", name, err)
		}
		printResult(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(2, "%v", err)
			}
		}
		all = append(all, res)
	}
	// The last line is the machine-readable verdict: of the one workload
	// asked for, or of all of them with metric names prefixed.
	line := finalLine(all)
	b, err := json.Marshal(line)
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func finalLine(all []*result) verdict {
	v := verdict{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range all {
		v.Correct = v.Correct && r.Correct
		v.Attempted += r.Attempted
		v.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(all) > 1 {
				name = r.Workload + "/" + name
			}
			v.Metrics[name] = m
		}
	}
	return v
}

func printResult(r *result) {
	mode := "end-to-end (tracing off)"
	if r.Trace != 0 {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("== %s  seed %d  %s  clients %d  rounds %d  timed %.1fs  samples write %d read %d\n",
		r.Workload, r.Seed, mode, r.Clients, r.Rounds, r.TimedS, r.Samples["write"], r.Samples["read"])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d failed_ops_share=%g\n",
		r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
}

// metricOrder sorts metrics the way the spec tables list them.
func metricOrder(name string) int {
	for i, s := range e2eSpecs {
		if s.Name == name {
			return i
		}
	}
	for i, s := range layerSpecs {
		if s.Name == name {
			return len(e2eSpecs) + i
		}
	}
	return 1 << 20
}

// resultFile is the schema of -out files and of bench/results/*.json.
type resultFile struct {
	Schema string    `json:"schema"`
	Runs   []*result `json:"runs"`
}

const resultSchema = "lamassu-bench/1"

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func writeResults(path string, f *resultFile) error {
	f.Schema = resultSchema
	var sb strings.Builder
	sb.WriteString("{\n \"schema\": \"" + resultSchema + "\",\n \"runs\": [\n")
	for i, r := range f.Runs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sb.WriteString("  ")
		sb.Write(b)
		if i < len(f.Runs)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(" ]\n}\n")
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func appendResult(path string, r *result) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	return writeResults(path, f)
}
