// Command benchmark is the repository's performance benchmark: six
// workloads on the configurations people actually run (TCP ranks, file
// stores, HTTP), end-to-end metrics from an untraced pass and per-layer
// metrics from a traced one. BENCHMARK.json declares every name; README.md
// in this directory says what each one means and which layer should move
// it.
//
// One workload, the way the driver calls it:
//
//	go run ./benchmark -workload build-scan -seed 1 -seconds 12 -trace 0
//
// prints one JSON object as the last line of standard output. Without
// -workload every workload runs in a child process of its own and a table
// is printed; -selfcheck does that twice and compares the two.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

var workloads = map[string]func(*run) error{
	"build-scan":     runBuild,
	"build-deep":     runBuild,
	"stream-tail":    runStream,
	"serve-json-1":   runServe,
	"serve-bin-bulk": runServe,
	"score-file":     runScore,
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	out       string
	workdir   string
	specPath  string
	quick     bool
	selfcheck bool
}

// report is the last line of standard output of a single-workload run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only, in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: record order, sampling seed, request pools, stream contents")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds each workload measures for (default: run_seconds of BENCHMARK.json; 1 under -quick)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the span file here")
	flag.StringVar(&o.out, "out", "", "write a results file (environment, metrics with min/max, notes) here")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory (default: a fresh one under ./.bench_work, removed afterwards)")
	flag.StringVar(&o.specPath, "spec", "", "path of BENCHMARK.json (default: ./ or ../)")
	flag.BoolVar(&o.quick, "quick", false, "shrink every workload to about a second (smoke test, numbers mean nothing)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end pass twice and compare the two against the bounds")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func realMain(o options) error {
	sp, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
		if o.quick {
			o.seconds = 1
		}
	}
	switch {
	case o.selfcheck:
		return selfcheck(sp, o)
	case o.workload == "":
		_, err := runAll(sp, o, os.Stdout)
		return err
	}
	if !sp.hasWorkload(o.workload) || workloads[o.workload] == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rep, r, err := runOne(sp, o, 0)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeResults(o.out, sp, r); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// runOne runs one workload in this process and checks what it emitted
// against the spec: every declared metric of the pass exactly once, nothing
// undeclared.
func runOne(sp *spec, o options, slowBackend float64) (*report, *run, error) {
	dir, cleanup, err := scratchDir(o.workdir)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-stop; ok {
			cleanup()
			os.Exit(130)
		}
	}()
	defer close(stop)
	defer signal.Stop(stop)

	r := newRun(o.workload, o.seed, o.seconds, o.quick, dir)
	r.slowBackend = slowBackend
	if o.trace == 1 {
		r.tr = newTracer()
	}
	if err := workloads[o.workload](r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if r.traced() {
		r.emit("proc.peak_rss_mb", peakRSSMB())
		if err := runLayers(r); err != nil {
			return nil, nil, fmt.Errorf("%s: layer series: %w", o.workload, err)
		}
		if o.traceOut != "" {
			if err := r.tr.writeFile(o.traceOut); err != nil {
				return nil, nil, err
			}
		}
	}

	rep := &report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	declared := map[string]bool{}
	for _, m := range sp.metrics(r.traced()) {
		declared[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok && !r.traced() {
			r.problem("end-to-end metric %s was not measured", m.Name)
		}
		// A per-layer metric a workload does not emit reads 0: the layer
		// did no work on it (no bytes sent while scoring a file).
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if !declared[name] {
			r.problem("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if r.attempted == 0 {
		r.problem("no operation was attempted")
	}
	rep.Correct = len(r.problems) == 0
	return rep, r, nil
}

// scratchDir returns the run's scratch directory and its cleanup. Nothing
// is written outside the working directory unless -workdir says so.
func scratchDir(workdir string) (string, func(), error) {
	base := workdir
	if base == "" {
		base = ".bench_work"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	return abs, func() {
		os.RemoveAll(abs)
		if workdir == "" {
			os.Remove(base) // only if empty
		}
	}, nil
}

// passResult is what one pass over every workload produced.
type passResult map[string]*report // by workload

// runAll runs every workload of the spec in a child process of its own, so
// one workload's heap cannot tax the next, and prints a table.
func runAll(sp *spec, o options, w *os.File) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := passResult{}
	var firstErr error
	for _, wl := range sp.Workloads {
		args := []string{"-workload", wl.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-spec", o.specPath, "-workdir", o.workdir}
		if o.quick {
			args = append(args, "-quick")
		}
		if o.traceOut != "" {
			args = append(args, "-trace-out", suffixed(o.traceOut, wl.Name))
		}
		if o.out != "" {
			args = append(args, "-out", suffixed(o.out, wl.Name))
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return nil, fmt.Errorf("%s: no result (%v)", wl.Name, runErr)
		}
		res[wl.Name] = &rep
		if runErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", wl.Name, errIncorrect)
		}
		printReport(w, wl.Name, &rep, sp.metrics(o.trace == 1))
	}
	return res, firstErr
}

func suffixed(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func printReport(w *os.File, workload string, rep *report, metrics []metricSpec) {
	fmt.Fprintf(w, "%s: %d operations, %d failed, correct=%v\n", workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, m := range metrics {
		v := rep.Metrics[m.Name]
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
}

// writeResults writes the results file: where and how the numbers were
// taken, each metric with the spread behind its median, and the exact
// identifiers (tree CRCs) later changes compare against.
func writeResults(path string, sp *spec, r *run) error {
	type entry struct {
		Value float64  `json:"value"`
		Unit  string   `json:"unit"`
		Min   *float64 `json:"min,omitempty"`
		Max   *float64 `json:"max,omitempty"`
	}
	metrics := map[string]entry{}
	for _, m := range sp.metrics(r.traced()) {
		e := entry{Value: r.values[m.Name], Unit: m.Unit}
		if s, ok := r.spread[m.Name]; ok {
			e.Min, e.Max = &s[0], &s[1]
		}
		metrics[m.Name] = e
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	doc := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "traced": r.traced(), "quick": r.quick,
		"env": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"git_commit": commit, "ranks": ranks, "clients": clients, "workdir_fs": fsType(r.dir),
			"flush_policy": "no fsync on build paths; the stream publish path's fsync+rename is part of what stream-tail measures",
		},
		"attempted": r.attempted, "failed": r.failed, "problems": r.problems,
		"metrics": metrics, "notes": r.notes,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fsType names the filesystem dir lives on, from /proc/mounts (longest
// mount-point prefix wins); "unknown" where that file does not exist.
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if strings.HasPrefix(dir, f[1]) && len(f[1]) > len(best) {
			best, typ = f[1], f[2]
		}
	}
	return typ
}

// peakRSSMB is the process's high-water resident set so far.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
