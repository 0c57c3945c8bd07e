// Command lmsbench regenerates the tables and figures of the paper's
// evaluation (§4) at any size up to the paper's. Each experiment is an
// internal/experiments function plus its Format printer, and prints a
// text table in the shape of the corresponding figure.
//
// Usage:
//
//	lmsbench -exp all                # every experiment, default sizes
//	lmsbench -exp fig7 -mb 256       # Figure 7 at the paper's file size
//	lmsbench -exp table1 -scale 16   # Table 1 with images scaled 1/16
//
// Experiments: fig6, table1, fig7, fig8, fig9, fig10, fig11, unaligned,
// all. Sizes default to a scaled-down configuration that finishes in
// about a minute; all shapes are size-independent.
//
// This binary measures the paper, not this repository: the repository's
// performance is judged by bench/ (bash bench/run.sh, BENCHMARK.json)
// and its behaviour by go test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lamassu/internal/experiments"
)

// experiment is one -exp name and the table it prints. fileBytes is
// -mb in bytes, scale the Table 1 image-size divisor.
type experiment struct {
	name string
	run  func(fileBytes, scale int64) (string, error)
}

// table adapts an experiments function and its Format printer.
func table[R any](rows func() (R, error), format func(R) string) (string, error) {
	r, err := rows()
	if err != nil {
		return "", err
	}
	return format(r), nil
}

var experimentList = []experiment{
	{"fig6", func(fileBytes, _ int64) (string, error) {
		return table(func() ([]experiments.Fig6Row, error) { return experiments.Fig6(fileBytes, nil) }, experiments.FormatFig6)
	}},
	{"table1", func(_, scale int64) (string, error) {
		return table(func() ([]experiments.Table1Row, error) { return experiments.Table1(scale) }, experiments.FormatTable1)
	}},
	{"fig7", func(fileBytes, _ int64) (string, error) {
		return table(func() (experiments.ThroughputTable, error) { return experiments.Fig7(fileBytes) }, experiments.FormatThroughput)
	}},
	{"fig8", func(fileBytes, _ int64) (string, error) {
		return table(func() (experiments.ThroughputTable, error) { return experiments.Fig8(fileBytes) }, experiments.FormatThroughput)
	}},
	{"fig9", func(fileBytes, _ int64) (string, error) {
		return table(func() ([]experiments.Fig9Row, error) { return experiments.Fig9(fileBytes) }, experiments.FormatFig9)
	}},
	{"fig10", func(fileBytes, _ int64) (string, error) {
		return table(func() ([]experiments.Fig10Row, error) { return experiments.Fig10(fileBytes, nil) }, experiments.FormatFig10)
	}},
	{"fig11", func(fileBytes, _ int64) (string, error) {
		return table(func() ([]experiments.Fig11Row, error) { return experiments.Fig11(fileBytes, nil) }, experiments.FormatFig11)
	}},
	{"unaligned", func(fileBytes, _ int64) (string, error) {
		return table(func() ([]experiments.UnalignedRow, error) { return experiments.UnalignedEncFS(fileBytes) }, experiments.FormatUnaligned)
	}},
}

func main() {
	names := make([]string, 0, len(experimentList)+1)
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	want := strings.Join(append(names, "all"), "|")

	exp := flag.String("exp", "all", "experiment to run: "+want)
	mb := flag.Int64("mb", 32, "workload file size in MiB (paper: 4096 for fig6/fig11, 256 for fig7-fig10)")
	scale := flag.Int64("scale", 16, "Table 1 VM image size divisor (1 = paper sizes)")
	flag.Parse()

	ran := false
	for _, e := range experimentList {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		out, err := e.run(*mb<<20, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmsbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "lmsbench: unknown experiment %q (want %s)\n", *exp, want)
		os.Exit(2)
	}
}
