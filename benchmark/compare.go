package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// delta is one metric of one workload in two result sets.
type delta struct {
	workload, metric string
	a, b             float64
	worse            float64 // relative change, positive when b is worse than a
	bound            float64 // 0 for per-layer metrics
	exact            bool    // a count: any difference is a finding
}

// layer is the package a per-layer metric belongs to: the name up to the
// first dot.
func (d delta) layer() string {
	name, _, _ := strings.Cut(d.metric, ".")
	return name
}

// exactUnit reports whether a unit denotes a count that must repeat
// exactly between runs of the same code on the same seed.
func exactUnit(unit string) bool { return unit == "count" || unit == "B" }

// compare lines up two passes metric by metric.
func compare(a, b passResult, workloadOrder []workloadSpec, metrics []metricSpec) []delta {
	var out []delta
	for _, wl := range workloadOrder {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range metrics {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			d := delta{workload: wl.Name, metric: m.Name, a: va, b: vb, bound: m.Bound, exact: exactUnit(m.Unit)}
			if va != 0 {
				d.worse = (vb - va) / math.Abs(va)
				if m.Better == "higher" {
					d.worse = -d.worse
				}
			} else if vb != 0 {
				d.worse = math.Inf(1)
			}
			out = append(out, d)
		}
	}
	return out
}

// violations returns the deltas that fail a self-check: an end-to-end
// metric worse by more than its bound, or a count that differs at all.
func violations(ds []delta) []delta {
	var out []delta
	for _, d := range ds {
		if (d.exact && d.a != d.b) || (d.bound > 0 && d.worse > d.bound) {
			out = append(out, d)
		}
	}
	return out
}

func printDeltas(w io.Writer, ds []delta) {
	fmt.Fprintf(w, "%-15s %-38s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, d := range ds {
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.bound)
		} else if d.exact {
			bound = "exact"
		}
		fmt.Fprintf(w, "%-15s %-38s %14.6g %14.6g %+8.1f%% %7s\n", d.workload, d.metric, d.a, d.b, 100*d.worse, bound)
	}
}

// selfcheck runs the end-to-end pass twice back to back and compares the
// two against the benchmark's own bounds. With -trace 1 it also runs the
// traced pass twice and requires every count to repeat exactly.
func selfcheck(sp *spec, o options) error {
	var all []delta
	passes := []int{0}
	if o.trace == 1 {
		passes = append(passes, 1)
	}
	for _, traced := range passes {
		o.trace = traced
		var sets [2]passResult
		for i := range sets {
			fmt.Fprintf(os.Stderr, "benchmark: selfcheck: pass %d of 2 (trace %d)\n", i+1, traced)
			res, err := runAll(sp, o, os.Stderr)
			if err != nil {
				return err
			}
			sets[i] = res
		}
		all = append(all, compare(sets[0], sets[1], sp.Workloads, sp.metrics(traced == 1))...)
	}
	printDeltas(os.Stdout, all)
	if bad := violations(all); len(bad) > 0 {
		fmt.Println("\nout of bounds:")
		printDeltas(os.Stdout, bad)
		return fmt.Errorf("selfcheck: %d metrics differ by more than the benchmark allows", len(bad))
	}
	return nil
}
