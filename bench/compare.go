package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Verdicts of -compare, one per workload and end-to-end metric.
const (
	verdictGain       = "GAIN"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// minPairsForGain is the least number of alternated parent/change pairs
// a gain may rest on.
const minPairsForGain = 10

// runsOf returns the untraced runs of one workload in a result file,
// ordered by seed (runs of one seed keep their file order).
func runsOf(f *resultFile, workload string) []*result {
	var rs []*result
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			rs = append(rs, r)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	return rs
}

// valuesOf returns the values of one metric over runs.
func valuesOf(rs []*result, metric string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// sameSeeds reports whether two lists of runs hold the same seeds, run
// for run: only then is run i of one a pair with run i of the other.
func sameSeeds(a, b []*result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			return false
		}
	}
	return true
}

// betterBy returns how much better b is than a, as a share of a:
// positive is an improvement whatever the metric's direction.
func betterBy(spec e2eSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if spec.Better == lower {
		d = -d
	}
	return d
}

// comparison is one row of -compare.
type comparison struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	pairs, wins, losses  int
	verdict              string
}

// compareMetric applies the rule of the choosing-metrics guide to the
// paired runs old[i], new[i]. A gain needs at least ten pairs, the change
// winning at least nine tenths of them (ties count for neither side),
// and medians further apart than the parent's own inter-quartile spread.
// Short of a gain, a spread wider than the bound on either side leaves
// the metric unresolved: such runs can show neither a regression nor its
// absence. Otherwise a median worse than the parent's by more than the
// bound is a regression.
func compareMetric(spec e2eSpec, old, new []float64) comparison {
	c := comparison{oldMed: median(old), newMed: median(new)}
	c.oldQ1, c.oldQ3 = quartiles(old)
	c.newQ1, c.newQ3 = quartiles(new)
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		switch d := betterBy(spec, old[i], new[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		}
	}
	delta := betterBy(spec, c.oldMed, c.newMed)
	switch {
	case delta > 0 && c.pairs >= minPairsForGain && 10*c.wins >= 9*c.pairs &&
		math.Abs(c.newMed-c.oldMed) > c.oldQ3-c.oldQ1:
		c.verdict = verdictGain
	case spreadShare(old) > spec.Bound || spreadShare(new) > spec.Bound:
		c.verdict = verdictUnresolved
	case delta < -spec.Bound:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// compareFiles prints the comparison of two result files and reports
// whether no metric regressed. Runs are paired by seed, so the two files
// must hold the same seeds for every workload they share.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-25s %-6s %11s %23s %11s %23s %7s %6s %6s  %s\n",
		"workload", "metric", "better", "old median", "old quartiles", "new median", "new quartiles", "delta", "wins", "bound", "verdict")
	for _, wl := range workloadSpecs {
		oldRuns, newRuns := runsOf(oldF, wl.Name), runsOf(newF, wl.Name)
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			continue
		}
		if !sameSeeds(oldRuns, newRuns) {
			return false, fmt.Errorf("%s: %s and %s do not hold the same seeds, so their runs are not pairs", wl.Name, oldPath, newPath)
		}
		for _, spec := range e2eSpecs {
			c := compareMetric(spec, valuesOf(oldRuns, spec.Name), valuesOf(newRuns, spec.Name))
			if c.verdict == verdictRegression {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-25s %-6s %11.5g %11.5g..%-10.5g %11.5g %11.5g..%-10.5g %+6.1f%% %3d/%-2d %5.1f%%  %s\n",
				wl.Name, spec.Name, spec.Better, c.oldMed, c.oldQ1, c.oldQ3, c.newMed, c.newQ1, c.newQ3,
				100*betterBy(spec, c.oldMed, c.newMed), c.wins, c.pairs, 100*spec.Bound, c.verdict)
		}
	}
	fmt.Fprintln(w, "delta is the change of the median in the metric's good direction; wins are same-seed pairs the new file won.")
	return ok, nil
}

// exactRatios are the end-to-end metrics that are counts, not timings:
// two runs of one binary with one seed must agree on them to the last
// bit.
var exactRatios = map[string]bool{
	"stored_per_logical":       true,
	"dedup_stored_per_logical": true,
	"wire_bytes_per_logical":   true,
}

// wireVaries names the workloads on which wire_bytes_per_logical is not
// a pure function of the seed: their clients share one block cache, the
// engine's workers fill it in an order that depends on timing, and what
// a later read misses follows from that (0.1-0.2 % from run to run).
// There the metric is held to the rule for timings.
var wireVaries = map[string]bool{"local-rand": true, "wire-objects": true}

// strayShare is how far a single run may lie from the median of its set.
const strayShare = 0.10

// selfCheck checks that sets of runs of one binary agree (checkSets).
// Given result files it judges those. Given none it makes the sets
// first: `sets` interleaved sets of `runs` untraced runs of this very
// binary per workload (run i of every set uses seed i+1) and one traced
// run each, written to selfcheck-A.json, selfcheck-B.json, ... in the
// working directory.
func selfCheck(w io.Writer, sets, runs int, paths []string) (bool, error) {
	if len(paths) == 0 {
		if sets < 2 || runs < 1 {
			return false, fmt.Errorf("selfcheck needs at least 2 sets and 1 run")
		}
		for s := 0; s < sets; s++ {
			paths = append(paths, "selfcheck-"+string(rune('A'+s))+".json")
		}
		if err := runSets(w, runs, paths); err != nil {
			return false, err
		}
	}
	if len(paths) < 2 {
		return false, fmt.Errorf("selfcheck needs at least 2 result files")
	}
	files := make([]*resultFile, len(paths))
	for s, path := range paths {
		var err error
		if files[s], err = readResults(path); err != nil {
			return false, err
		}
	}
	return checkSets(w, files), nil
}

// runSets runs this binary once per set, workload and seed, appending
// each run's record to its set's file.
func runSets(w io.Writer, runs int, paths []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	one := func(set int, workload string, seed, trace int) error {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-trace", strconv.Itoa(trace), "-out", paths[set])
		cmd.Stderr = os.Stderr
		fmt.Fprintf(w, "set %c  %-16s seed %d trace %d\n", 'A'+set, workload, seed, trace)
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set %c %s seed %d trace %d: %w", 'A'+set, workload, seed, trace, err)
		}
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, wl := range workloadSpecs {
			// Which set goes first alternates from run to run: a run
			// inherits the state the one before it left the box in (an
			// idle-heavy run leaves the timers slow), and no set should
			// always draw the same predecessor.
			for k := range paths {
				if err := one((k+i)%len(paths), wl.Name, i+1, 0); err != nil {
					return err
				}
			}
		}
	}
	for _, wl := range workloadSpecs {
		for s := range paths {
			if err := one(s, wl.Name, 1, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSets is the judging half of selfCheck. It fails when, for any
// workload and end-to-end metric, the medians of two sets differ by more
// than half the metric's bound; when a single run lies further than a
// tenth from the median of its set; or when an exact ratio differs at
// all between the sets' runs of one seed (wireVaries lists the one
// exception). It also prints every set's
// inter-quartile spread, the figure the benchmark's acceptance is judged
// on (it must stay inside the bound; a third of it is the target).
func checkSets(w io.Writer, files []*resultFile) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL  "+format+"\n", args...)
	}
	for _, wl := range workloadSpecs {
		runs := make([][]*result, len(files))
		paired := true
		for s, f := range files {
			runs[s] = runsOf(f, wl.Name)
			if len(runs[s]) == 0 || !sameSeeds(runs[0], runs[s]) {
				fail("%s: set %c does not hold the seeds of set A", wl.Name, 'A'+s)
				paired = false
			}
		}
		if !paired {
			continue
		}
		for _, spec := range e2eSpecs {
			meds := make([]float64, len(files))
			sets := make([][]float64, len(files))
			for s := range files {
				xs := valuesOf(runs[s], spec.Name)
				if len(xs) != len(runs[s]) {
					fail("%s %s: set %c has runs without the metric", wl.Name, spec.Name, 'A'+s)
					xs = make([]float64, len(runs[s]))
				}
				sets[s], meds[s] = xs, median(xs)
				for i, x := range xs {
					switch {
					case exactRatios[spec.Name] && !(spec.Name == "wire_bytes_per_logical" && wireVaries[wl.Name]):
						if x != sets[0][i] {
							fail("%s %s: seed %d gives %v in set A and %v in set %c", wl.Name, spec.Name, runs[s][i].Seed, sets[0][i], x, 'A'+s)
						}
					case math.Abs(x-meds[s]) > strayShare*meds[s]:
						fail("%s %s: set %c seed %d = %.6g is %.1f%% from the set median %.6g", wl.Name, spec.Name,
							'A'+s, runs[s][i].Seed, x, 100*math.Abs(x-meds[s])/meds[s], meds[s])
					}
				}
			}
			worst := 0.0
			for _, m := range meds[1:] {
				worst = max(worst, math.Abs(m-meds[0])/meds[0])
			}
			status := "ok"
			if worst > spec.Bound/2 {
				status = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%-5s %-16s %-25s medians %v differ %.2f%% (half bound %.2f%%), spreads", status, wl.Name, spec.Name, fmtAll(meds), 100*worst, 50*spec.Bound)
			for _, xs := range sets {
				fmt.Fprintf(w, " %.2f%%", 100*spreadShare(xs))
			}
			fmt.Fprintln(w)
		}
	}
	return ok
}

func fmtAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return out
}
