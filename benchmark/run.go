package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// run is one workload execution: its inputs (seed, measuring time, sizes)
// and everything it reports. A workload emits metrics by name; main checks
// the emitted set against BENCHMARK.json.
type run struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	dir      string  // scratch directory, removed by main
	tr       *tracer // nil in the untraced (end-to-end) pass

	// slowBackend, when positive, makes every store in this run sleep that
	// fraction of each backend call's measured time (the injected-slowdown
	// sensitivity test; never set by a flag).
	slowBackend float64

	attempted, failed int
	problems          []string
	values            map[string]float64
	spread            map[string][2]float64 // min, max behind a reported median
	notes             map[string]string     // exact identifiers worth keeping, e.g. tree CRCs
}

func newRun(workload string, seed int64, seconds float64, quick bool, dir string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, quick: quick, dir: dir,
		values: map[string]float64{}, spread: map[string][2]float64{}, notes: map[string]string{},
	}
}

// traced reports whether this is the traced pass, which produces the
// per-layer metrics; the untraced pass produces the end-to-end ones.
func (r *run) traced() bool { return r.tr != nil }

func (r *run) emit(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.problem("metric %s emitted twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not finite", name)
		v = 0
	}
	r.values[name] = v
}

// emitTimes reports the median of samples (scaled) and keeps min and max
// for the results file. The per-layer metrics use it.
func (r *run) emitTimes(name string, samples []float64, scale float64) {
	if len(samples) == 0 {
		r.problem("metric %s has no samples", name)
		return
	}
	r.emit(name, median(samples)*scale)
	lo, hi := minMax(samples)
	r.spread[name] = [2]float64{lo * scale, hi * scale}
}

// emitQuiet reports an end-to-end metric from one value per slice of the
// measuring time (a repetition, a second of traffic, a group of windows):
// the quartile on the good side, lower for a time and upper for a rate.
// The reference box is a two-core virtual machine whose neighbours take
// memory bandwidth and cycles in bursts of a few seconds, slowing a 12 s
// run by up to a quarter (measured: the same build repeated reads 1.52 s
// to 1.90 s inside one minute). A burst only ever slows a slice, so the
// good-side quartile is the reading a code change moves and a neighbour
// mostly does not; the median and the mean follow the neighbour.
func (r *run) emitQuiet(name string, slices []float64, scale float64, lowerIsBetter bool) {
	if len(slices) == 0 {
		r.problem("metric %s has no samples", name)
		return
	}
	r.emit(name, quietQuartile(slices, lowerIsBetter)*scale)
	lo, hi := minMax(slices)
	r.spread[name] = [2]float64{lo * scale, hi * scale}
}

// slice is one piece of the measuring time: a repetition of a batch
// operation, a second of request traffic, a run of stream windows.
type slice struct {
	from, to time.Time
	rows     float64   // rows completed in it (throughput slices)
	ops      []float64 // seconds each operation that ended in it took (latency slices)
}

func (s slice) rate() float64 { return s.rows / s.to.Sub(s.from).Seconds() }

// repSlice is the slice of one repetition of a batch operation over rows
// rows that just ended and took wall seconds.
func repSlice(rows int, wall float64) slice {
	now := time.Now()
	return slice{from: now.Add(-time.Duration(wall * float64(time.Second))), to: now, rows: float64(rows), ops: []float64{wall}}
}

// emitEndToEnd reports the three end-to-end metrics every workload has:
// set-up time, throughput, and the time of one operation. Each throughput
// slice gives rows per second and each latency slice the median of its
// operation times. Slices the hypervisor stole time from are set aside (see
// steal.go) and the run reports the quiet quartile of what is left. Where a
// slice is one repetition of a batch operation, throughput and operation
// time are its wall said two ways.
func (r *run) emitEndToEnd(setups []float64, log *stealLog, rateSlices, opSlices []slice) {
	quiet := func(slices []slice) []slice {
		shares := make([]float64, len(slices))
		for i, s := range slices {
			shares[i] = log.share(s.from, s.to)
		}
		var kept []slice
		for _, i := range quietSlices(shares) {
			kept = append(kept, slices[i])
		}
		return kept
	}
	var rates, mid []float64
	for _, s := range quiet(rateSlices) {
		rates = append(rates, s.rate())
	}
	for _, s := range quiet(opSlices) {
		mid = append(mid, median(s.ops))
	}
	r.emitQuiet("setup_s", setups, 1, true)
	r.emitQuiet("rows_per_s", rates, 1, false)
	r.emitQuiet("op_ms", mid, 1e3, true)
}

// op counts one operation of the workload; a failed one also marks the run
// incorrect.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problem(format, args...)
	}
}

// problem records a correctness failure: the run still reports, with
// "correct": false and a nonzero exit.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAIL: %s\n", r.workload, msg)
}

// setups is how many times a workload sets up: three in the end-to-end
// pass, which reports set-up time, once in the traced pass, which does not.
func (r *run) setups() int {
	if r.traced() {
		return 1
	}
	return 3
}

// pick returns full, or small under -quick.
func (r *run) pick(full, small int) int {
	if r.quick {
		return small
	}
	return full
}

// repeatSetup sets a workload up several times, tearing down all but the
// last, and returns the last state with every set-up's time: one set-up is
// a single sample and reads ±30% on a shared box. It sets up at least min
// times and goes on, up to nine times, while all of them together have
// taken under a second and a half, so that a 40 ms set-up is not judged
// from three samples.
func repeatSetup[T any](min int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var state T
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= min && (len(times) >= 9 || min == 1 || time.Since(start).Seconds()+times[len(times)-1] > 1.5) {
			return s, times, nil
		}
		teardown(s)
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (which it does not modify).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[int(q*float64(len(s)-1)+0.5)]
}

// quietQuartile is the lower quartile of v when lower is better and the
// upper quartile otherwise, rounded towards the good side.
func quietQuartile(v []float64, lowerIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if lowerIsBetter {
		return s[(len(s)-1)/4]
	}
	return s[len(s)-1-(len(s)-1)/4]
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// repsFor runs fn until budget seconds have passed (at least min times) and
// returns each call's duration in seconds. It stops early when another
// call of typical length would overshoot the budget by more than half.
func repsFor(budget float64, min int, fn func() (float64, error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for {
		d, err := fn()
		if err != nil {
			return out, err
		}
		out = append(out, d)
		elapsed := time.Since(start).Seconds()
		if len(out) >= min && elapsed+median(out)/2 > budget {
			return out, nil
		}
	}
}
