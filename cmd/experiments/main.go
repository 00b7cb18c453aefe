// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, produced by the
// real SPMD algorithm on simulated ranks under the calibrated cost model
// (see EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	experiments -exp all                # everything (default scaled sizes)
//	experiments -exp table1             # collective primitive costs
//	experiments -exp fig1               # speedup
//	experiments -exp fig2               # sizeup
//	experiments -exp fig3               # scaleup
//	experiments -exp strategies         # D&C strategy ablation
//	experiments -exp splitmethods       # SS vs SSE vs direct
//	experiments -exp memory             # memory budget vs I/O
//	experiments -exp phases             # per-phase time breakdown
//	experiments -exp lemma2             # sampling bound of Lemma 2
//	experiments -exp functions          # generator functions 1..10
//	experiments -exp boundary           # boundary statistics ablation
//	experiments -exp fig1 -scale 1.0    # paper-scale record counts (slow)
//	experiments -exp fig1 -format csv   # plot-ready CSV (table1, fig1..fig3)
//
// An unknown -exp name, or -format csv on an experiment without a CSV form,
// is an error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pclouds/internal/cli"
	"pclouds/internal/experiments"
)

// experiment is one -exp target. run writes the experiment's table, or its
// CSV when csv is set; only experiments with hasCSV accept -format csv.
type experiment struct {
	name   string
	hasCSV bool
	run    func(w io.Writer, csv bool) error
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, "+strings.Join(names(catalog(experiments.DefaultHarness(), 0)), ", "))
		scale   = flag.Float64("scale", 0.01, "record-count scale relative to the paper (1.0 = 3.6M..7.2M tuples)")
		qroot   = flag.Int("qroot", 100, "root interval count (paper: 10000 at scale 1.0)")
		seed    = flag.Int64("seed", 1, "data seed")
		format  = flag.String("format", "table", "output format: table or csv (table1, fig1, fig2, fig3 only)")
		profile cli.Profile
		ioPipe  cli.IOPipeline
	)
	profile.Register(flag.CommandLine)
	ioPipe.Register(flag.CommandLine)
	flag.Parse()

	h := experiments.DefaultHarness()
	h.QRoot = *qroot
	h.Seed = *seed
	h.Pipeline = ioPipe.Pipeline()
	todo, err := selectExperiments(catalog(h, *scale), *exp, *format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	stopProfile, err := profile.Start("experiments")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProfile()

	for _, e := range todo {
		if err := e.run(os.Stdout, *format == "csv"); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}

// selectExperiments resolves -exp and -format against the catalog: "all"
// or one experiment's name, and "table" or "csv" where that experiment
// has a CSV form.
func selectExperiments(cat []experiment, name, format string) ([]experiment, error) {
	var todo []experiment
	for _, e := range cat {
		if name == "all" || name == e.name {
			todo = append(todo, e)
		}
	}
	if len(todo) == 0 {
		return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, strings.Join(names(cat), ", "))
	}
	switch format {
	case "table":
	case "csv":
		var csv []string
		for _, e := range cat {
			if e.hasCSV {
				csv = append(csv, e.name)
			}
		}
		for _, e := range todo {
			if !e.hasCSV {
				return nil, fmt.Errorf("experiment %q has no csv output; -format csv works with %s", e.name, strings.Join(csv, ", "))
			}
		}
	default:
		return nil, fmt.Errorf("unknown format %q; valid: table, csv", format)
	}
	return todo, nil
}

func names(cat []experiment) []string {
	out := make([]string, len(cat))
	for i, e := range cat {
		out[i] = e.name
	}
	return out
}

// catalog lists every experiment in the order -exp all runs them, sized by
// scale relative to the paper's record counts.
func catalog(h experiments.Harness, scale float64) []experiment {
	// The paper's sizes: 3.6, 4.8, 6.0, 7.2 million tuples; per-processor
	// loads 0.2..0.6 million; processors 1..16.
	s := func(paperMillions float64) int {
		return max(int(paperMillions*1e6*scale), 500)
	}
	sizes := []int{s(3.6), s(4.8), s(6.0), s(7.2)}
	perProc := []int{s(0.2), s(0.3), s(0.4), s(0.5), s(0.6)}
	procs := []int{1, 2, 4, 8, 16}

	return []experiment{
		{name: "table1", hasCSV: true, run: func(w io.Writer, csv bool) error {
			rows, err := h.Table1Collectives([]int{2, 4, 8, 16}, []int{64, 4096, 65536})
			if err != nil {
				return err
			}
			if csv {
				return experiments.WriteTable1CSV(w, rows)
			}
			experiments.PrintTable1(w, rows)
			return nil
		}},
		{name: "fig1", hasCSV: true, run: func(w io.Writer, csv bool) error {
			res, err := h.Fig1Speedup(sizes, procs)
			if err != nil {
				return err
			}
			if csv {
				return experiments.WriteFig1CSV(w, res)
			}
			experiments.PrintFig1(w, res)
			return nil
		}},
		{name: "fig2", hasCSV: true, run: func(w io.Writer, csv bool) error {
			res, err := h.Fig2Sizeup(sizes, []int{4, 8, 16})
			if err != nil {
				return err
			}
			if csv {
				return experiments.WriteFig2CSV(w, res)
			}
			experiments.PrintFig2(w, res)
			return nil
		}},
		{name: "fig3", hasCSV: true, run: func(w io.Writer, csv bool) error {
			res, err := h.Fig3Scaleup(perProc, procs)
			if err != nil {
				return err
			}
			if csv {
				return experiments.WriteFig3CSV(w, res)
			}
			experiments.PrintFig3(w, res)
			return nil
		}},
		{name: "strategies", run: func(w io.Writer, _ bool) error {
			rows, err := h.StrategiesAblation(s(1.0), 4, int64(s(0.05)))
			if err != nil {
				return err
			}
			experiments.PrintStrategies(w, rows)
			return nil
		}},
		{name: "splitmethods", run: func(w io.Writer, _ bool) error {
			rows, err := h.SplitMethodsAblation(s(1.0), s(0.3))
			if err != nil {
				return err
			}
			experiments.PrintSplitMethods(w, rows)
			return nil
		}},
		{name: "memory", run: func(w io.Writer, _ bool) error {
			rows, err := h.MemoryAblation(s(1.0), []float64{1, 0.25, 0.0625, 0.0156, 0.0039})
			if err != nil {
				return err
			}
			experiments.PrintMemory(w, rows)
			return nil
		}},
		{name: "phases", run: func(w io.Writer, _ bool) error {
			rows, err := h.PhasesBreakdown(s(1.0), []int{1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			experiments.PrintPhases(w, rows)
			return nil
		}},
		{name: "lemma2", run: func(w io.Writer, _ bool) error {
			rows, err := h.Lemma2Validation(s(6.0), []int{4, 8, 16}, []int{s(0.01), s(0.05), s(0.2), s(1.0)}, 50)
			if err != nil {
				return err
			}
			experiments.PrintLemma2(w, rows)
			return nil
		}},
		{name: "functions", run: func(w io.Writer, _ bool) error {
			rows, err := h.FunctionsSweep(s(1.0), s(0.3))
			if err != nil {
				return err
			}
			experiments.PrintFunctions(w, rows)
			return nil
		}},
		{name: "boundary", run: func(w io.Writer, _ bool) error {
			rows, err := h.BoundaryAblation(s(0.5), []int{4, 8}, []int{64, 256})
			if err != nil {
				return err
			}
			experiments.PrintBoundary(w, rows)
			return nil
		}},
	}
}
