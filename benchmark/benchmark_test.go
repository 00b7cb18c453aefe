package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSpecShape holds BENCHMARK.json to the limits its readers enforce, so
// a bad edit fails here and not in front of the driver.
func TestSpecShape(t *testing.T) {
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("spec has %d workloads, the runner %d", len(sp.Workloads), len(workloads))
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *metricSpec
	for i, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower better")
	}
	for _, m := range sp.EndToEnd {
		if setup != nil && m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths %v", sp.Paths)
	}
}

// TestQuickEmitsEveryDeclaredMetric runs every workload in both passes at
// -quick size and checks that what comes out is exactly what BENCHMARK.json
// declares: every metric of the pass once, finite, with its unit, nothing
// else, and every operation correct.
func TestQuickEmitsEveryDeclaredMetric(t *testing.T) {
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace=%d", wl.Name, trace), func(t *testing.T) {
				o := options{workload: wl.Name, seed: 7, seconds: 0.5, trace: trace, quick: true, workdir: t.TempDir()}
				rep, r, err := runOne(sp, o, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, r.problems)
				}
				declared := sp.metrics(trace == 1)
				if len(rep.Metrics) != len(declared) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s is not finite", m.Name)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestQuartilesAndTails(t *testing.T) {
	v := []float64{8, 1, 5, 3, 7, 2, 6, 4}
	if got := quietQuartile(v, true); got != 2 {
		t.Errorf("lower quartile of 1..8 = %v, want 2", got)
	}
	if got := quietQuartile(v, false); got != 7 {
		t.Errorf("upper quartile of 1..8 = %v, want 7", got)
	}
	if got := quietQuartile([]float64{3, 1, 2}, true); got != 1 {
		t.Errorf("lower quartile of three = %v, want the least", got)
	}
	if got := median(v); got != 4.5 {
		t.Errorf("median = %v", got)
	}
}

func TestCompareFlagsWorseAndInexact(t *testing.T) {
	mk := func(rows, bytes float64) *report {
		return &report{Metrics: map[string]metricValue{"rows_per_s": {rows, "rows/s"}, "comm.bytes_sent": {bytes, "B"}}}
	}
	wls := []workloadSpec{{Name: "w"}}
	ms := []metricSpec{{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.1}, {Name: "comm.bytes_sent", Unit: "B", Better: "lower"}}
	ds := compare(passResult{"w": mk(100, 10)}, passResult{"w": mk(95, 10)}, wls, ms)
	if bad := violations(ds); len(bad) != 0 {
		t.Errorf("5%% slower within a 10%% bound flagged: %+v", bad)
	}
	ds = compare(passResult{"w": mk(100, 10)}, passResult{"w": mk(85, 11)}, wls, ms)
	if bad := violations(ds); len(bad) != 2 {
		t.Errorf("15%% slower and a changed count: %d violations, want 2: %+v", len(bad), bad)
	}
	if ds[1].layer() != "comm" {
		t.Errorf("layer of comm.bytes_sent = %q", ds[1].layer())
	}
}

func TestStreamWindowsEndOnBlocks(t *testing.T) {
	p := streamParamsFor(newRun("stream-tail", 1, 12, false, ""))
	if p.windowRecords%p.perBlock() != 0 {
		t.Fatalf("a window of %d records does not end on a block of %d", p.windowRecords, p.perBlock())
	}
	perWindow := time.Duration(p.windowRecords/p.perBlock()) * p.tick
	for k := 0; k < 3; k++ {
		if got, want := p.due(k), time.Duration(k+1)*perWindow; got != want {
			t.Errorf("window %d due at %v, want %v", k, got, want)
		}
	}
}

func TestSlowBackendPaysItsDebt(t *testing.T) {
	b := &slowBackend{frac: 0.15}
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		b.charge(100 * time.Microsecond) // 10 ms of calls → 1.5 ms owed
	}
	if slept := time.Since(t0); slept < 1200*time.Microsecond {
		t.Errorf("slept %v for 10 ms of backend calls at 15%%", slept)
	}
}

// slowdownChild runs one traced build-scan in a fresh process, as the driver
// would, with every store's backend delayed by the given share: the second
// run inside one process reads its memory-streaming loops up to 10% slower
// than the first (a grown heap), which is the size of the effect looked for.
func slowdownChild(t *testing.T, seed int, slow string) *report {
	cmd := exec.Command(os.Args[0], "-test.run=^TestSlowdownChild$", "-test.v")
	cmd.Env = append(os.Environ(), "BENCH_CHILD_SLOW="+slow, fmt.Sprint("BENCH_CHILD_SEED=", seed))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if raw, ok := strings.CutPrefix(line, "REPORT "); ok {
			var rep report
			if err := json.Unmarshal([]byte(raw), &rep); err != nil {
				t.Fatal(err)
			}
			return &rep
		}
	}
	t.Fatalf("child printed no report:\n%s", out)
	return nil
}

// TestSlowdownChild is the child side of TestInjectedSlowdown.
func TestSlowdownChild(t *testing.T) {
	slow, err := strconv.ParseFloat(os.Getenv("BENCH_CHILD_SLOW"), 64)
	if err != nil {
		t.Skip("only runs as a child of TestInjectedSlowdown")
	}
	seed, _ := strconv.ParseInt(os.Getenv("BENCH_CHILD_SEED"), 10, 64)
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: "build-scan", seed: seed, seconds: 4, trace: 1, workdir: t.TempDir()}
	rep, r, err := runOne(sp, o, slow)
	if err != nil || !rep.Correct {
		t.Fatalf("%v %v", err, r.problems)
	}
	raw, _ := json.Marshal(rep)
	fmt.Println("REPORT " + string(raw))
}

// TestInjectedSlowdown is the sensitivity check: with every store's backend
// delayed by 15% of each call's own time, the per-layer series must name
// the ooc layer. One baseline/slowed pair on a shared box proves nothing —
// a single metric reads ±10% between two runs of the same code, a 14 ns
// loop as much as a 1 s build — so it runs six pairs, takes each timing
// metric's median worsening over the pairs, and judges layers, not single
// metrics: a layer's score is the median worsening of its timing metrics,
// and only layers with four or more of them are judged. It asserts on
// wall-clock ratios, so it runs only when asked for by name (five minutes):
//
//	go test ./benchmark -run TestInjectedSlowdown -timeout 20m
//
// Under a plain `go test ./...` the other packages' tests run on the same
// two cores and any timing assertion is noise.
func TestInjectedSlowdown(t *testing.T) {
	if testing.Short() || !strings.Contains(flag.Lookup("test.run").Value.String(), "TestInjectedSlowdown") {
		t.Skip("timing assertion: run it by name, alone")
	}
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 6
	worse := map[string][]float64{}
	var wallBase, wallSlow []float64
	for i := 0; i < pairs; i++ {
		var reps [2]*report
		for j := range reps {
			side := (i + j) % 2 // alternate which side runs first
			reps[side] = slowdownChild(t, i+1, []string{"0", "0.15"}[side])
		}
		wallBase = append(wallBase, reps[0].Metrics["pclouds.build_wall_s"].Value)
		wallSlow = append(wallSlow, reps[1].Metrics["pclouds.build_wall_s"].Value)
		for _, d := range compare(passResult{"build-scan": reps[0]}, passResult{"build-scan": reps[1]}, sp.Workloads, sp.PerLayer) {
			if !d.exact && d.a != 0 && !strings.HasSuffix(d.metric, "_pct") {
				worse[d.metric] = append(worse[d.metric], d.worse)
			}
		}
	}
	byLayer := map[string][]float64{}
	for _, metric := range sortedKeys(worse) {
		med := median(worse[metric])
		layer := delta{metric: metric}.layer()
		byLayer[layer] = append(byLayer[layer], med)
		if med > 0.10 {
			t.Logf("worse by more than 10%% (median of %d pairs): %-36s %+.0f%%", pairs, metric, 100*med)
		}
	}
	top := ""
	for _, layer := range sortedKeys(byLayer) {
		score := median(byLayer[layer])
		t.Logf("layer %-10s %+6.1f%% over %d timing metrics", layer, 100*score, len(byLayer[layer]))
		if len(byLayer[layer]) >= 4 && (top == "" || score > median(byLayer[top])) {
			top = layer
		}
	}
	if ooc := median(byLayer["ooc"]); top != "ooc" || ooc < 0.05 {
		t.Errorf("the slowed layer was not named: worst is %s, ooc reads %+.1f%%", top, 100*ooc)
	}
	t.Logf("build wall: baseline %.3v, slowed %.3v (the pipeline hides part of the delay)", wallBase, wallSlow)
	if median(wallSlow) < 0.95*median(wallBase) {
		t.Errorf("the slowed build was faster: %v against %v", median(wallSlow), median(wallBase))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
