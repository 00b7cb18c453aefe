package clouds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/gini"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// evaluateSortedOracle is the exact search as it was written before the
// scalar-best kernel: a Candidate built at every distinct value and folded
// with Better, and the gini re-summed by gini.SplitIndex. EvaluateSorted
// must return the same candidate, bit for bit.
func evaluateSortedOracle(attr int, leftBefore, total []int64, pts []Point) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(pts) == 0 {
		return best
	}
	nTotal := gini.Sum(total)
	c := len(total)
	buf := make([]int64, 3*c)
	left, right, bestLeft := buf[:c:c], buf[c:2*c:2*c], buf[2*c:]
	copy(left, leftBefore)
	var nLeft int64 = gini.Sum(leftBefore)
	for i := 0; i < len(pts); i++ {
		if pts[i].V != pts[i].V {
			break
		}
		left[pts[i].Class]++
		nLeft++
		if i+1 < len(pts) && pts[i+1].V == pts[i].V {
			continue
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		for k := range right {
			right[k] = total[k] - left[k]
		}
		threshold := pts[i].V
		if threshold == 0 {
			threshold = 0
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      attr,
			Kind:      tree.NumericSplit,
			Threshold: threshold,
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			copy(bestLeft, left)
			best = cand
		}
	}
	if best.Valid {
		best.LeftCounts = bestLeft
	}
	return best
}

// bestBoundaryInRunOracle is BestBoundaryInRun as it was written before the
// scalar-best kernel, the reference the kernel must equal bit for bit.
func bestBoundaryInRunOracle(attr int, cuts []float64, first int, rows [][]int64, before, total []int64, nTotal int64) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	left := gini.Clone(before)
	right := make([]int64, len(total))
	bestLeft := make([]int64, len(total))
	nLeft := gini.Sum(left)
	for k, row := range rows {
		gini.Add(left, row)
		nLeft += gini.Sum(row)
		if first+k >= len(cuts) || nLeft == 0 || nLeft == nTotal {
			continue
		}
		for i := range right {
			right[i] = total[i] - left[i]
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      attr,
			Kind:      tree.NumericSplit,
			Threshold: cuts[first+k],
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			copy(bestLeft, left)
			best = cand
		}
	}
	if best.Valid {
		best.LeftCounts = bestLeft
	}
	return best
}

// sameCandidate reports how got differs from want, or "" when they agree
// bit for bit.
func sameCandidate(got, want Candidate) string {
	switch {
	case got.Valid != want.Valid:
		return fmt.Sprintf("valid %v, want %v", got.Valid, want.Valid)
	case math.Float64bits(got.Gini) != math.Float64bits(want.Gini):
		return fmt.Sprintf("gini %v (%#x), want %v (%#x)", got.Gini, math.Float64bits(got.Gini), want.Gini, math.Float64bits(want.Gini))
	case math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold):
		return fmt.Sprintf("threshold %v, want %v", got.Threshold, want.Threshold)
	case got.Attr != want.Attr || got.Kind != want.Kind:
		return fmt.Sprintf("attr %d kind %v, want %d kind %v", got.Attr, got.Kind, want.Attr, want.Kind)
	case got.LeftN != want.LeftN:
		return fmt.Sprintf("leftN %d, want %d", got.LeftN, want.LeftN)
	case !slices.Equal(got.LeftCounts, want.LeftCounts):
		return fmt.Sprintf("left counts %v, want %v", got.LeftCounts, want.LeftCounts)
	}
	return ""
}

// kernelPalette holds few distinct values, so runs are heavy with ties, and
// the awkward ones: NaN, ±0, ±Inf.
var kernelPalette = []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, 2, 0.5, math.Inf(1), math.Inf(-1), 3, 1e-300, -2.5}

// FuzzEvaluateSorted is the differential oracle of the exact-search
// kernels. raw gives the run's points, two bytes each (a palette value and
// a class); counts gives the class counts below the run (leftBefore) and
// above it, so the node totals hold the run. classes picks 2–5 classes
// and the attribute, and oneClass puts every point of the run in class 0. On every input
// EvaluateSorted must equal evaluateSortedOracle, and BestBoundaryInRun,
// over the interval frequencies of the run cut at its distinct values,
// must equal bestBoundaryInRunOracle.
func FuzzEvaluateSorted(f *testing.F) {
	f.Add([]byte{}, []byte{3, 4}, uint8(0), false)
	f.Add([]byte{3, 0, 3, 1, 4, 0, 4, 1, 5, 0, 5, 1}, []byte{}, uint8(0), false) // equal ginis at every value
	f.Add([]byte{1, 0, 2, 1, 1, 1, 2, 0, 0, 0}, []byte{0, 0}, uint8(0), false)   // ±0 ties
	f.Add([]byte{3, 0, 3, 0, 4, 0, 0, 1, 0, 0}, []byte{5, 0, 0, 7}, uint8(1), true)
	rng := rand.New(rand.NewSource(41))
	for range 200 {
		raw := make([]byte, 2*rng.Intn(60))
		rng.Read(raw)
		counts := make([]byte, rng.Intn(11))
		for i := range counts {
			counts[i] = byte(rng.Intn(4) * rng.Intn(20))
		}
		f.Add(raw, counts, uint8(rng.Intn(256)), rng.Intn(8) == 0)
	}
	f.Fuzz(func(t *testing.T, raw, counts []byte, classes uint8, oneClass bool) {
		k := 2 + int(classes)%4
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+2 <= len(raw) && len(pts) < 4096; i += 2 {
			p := Point{V: kernelPalette[int(raw[i])%len(kernelPalette)], Class: int32(raw[i+1]) % int32(k)}
			if oneClass {
				p.Class = 0
			}
			pts = append(pts, p)
		}
		SortPoints(pts)
		leftBefore, total := make([]int64, k), make([]int64, k)
		for c := range k {
			if c < len(counts) {
				leftBefore[c] = int64(counts[c])
			}
			if k+c < len(counts) {
				total[c] = int64(counts[k+c])
			}
			total[c] += leftBefore[c]
		}
		for _, p := range pts {
			total[p.Class]++
		}
		attr := int(classes) / 4
		if msg := sameCandidate(EvaluateSorted(attr, leftBefore, total, pts), evaluateSortedOracle(attr, leftBefore, total, pts)); msg != "" {
			t.Fatalf("EvaluateSorted(k=%d, before %v, total %v, %v): %s", k, leftBefore, total, pts, msg)
		}

		// The boundary search over the same run: one interval per distinct
		// number (a value belongs to the first cut at or above it), NaN in
		// the last, searched from interval first on.
		var cuts []float64
		for i, p := range pts {
			if p.V == p.V && (i+1 == len(pts) || pts[i+1].V != p.V) {
				cuts = append(cuts, p.V)
			}
		}
		rows := make([][]int64, len(cuts)+1)
		for i := range rows {
			rows[i] = make([]int64, k)
		}
		iv := 0
		for _, p := range pts {
			for iv < len(cuts) && !(p.V <= cuts[iv]) {
				iv++
			}
			rows[iv][p.Class]++
		}
		first := attr % len(rows)
		before := gini.Clone(leftBefore)
		for _, row := range rows[:first] {
			gini.Add(before, row)
		}
		nTotal := gini.Sum(total)
		got := BestBoundaryInRun(attr, cuts, first, rows[first:], before, total, nTotal)
		want := bestBoundaryInRunOracle(attr, cuts, first, rows[first:], before, total, nTotal)
		if msg := sameCandidate(got, want); msg != "" {
			t.Fatalf("BestBoundaryInRun(k=%d, cuts %v, first %d, rows %v, before %v, total %v): %s", k, cuts, first, rows, before, total, msg)
		}
	})
}

// kernelSink keeps the benchmarked search from being optimised away.
var kernelSink Candidate

// BenchmarkEvaluateSorted times the exact search over one value-sorted run
// of 4,096 points, with 2 and 5 classes, over distinct values (a gini at
// every point) and 8-way ties (a gini at every eighth).
func BenchmarkEvaluateSorted(b *testing.B) {
	const n = 4096
	for _, k := range []int{2, 5} {
		for _, tie := range []int{1, 8} {
			rng := rand.New(rand.NewSource(int64(k * tie)))
			pts := make([]Point, n)
			total := make([]int64, k)
			for i := range pts {
				pts[i] = Point{V: float64(i / tie), Class: int32(rng.Intn(k))}
				total[pts[i].Class]++
			}
			zero := make([]int64, k)
			name := "distinct"
			if tie > 1 {
				name = fmt.Sprintf("ties%d", tie)
			}
			b.Run(fmt.Sprintf("k=%d/%s", k, name), func(b *testing.B) {
				for range b.N {
					kernelSink = EvaluateSorted(0, zero, total, pts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		}
	}
}

// BenchmarkPresortedSplit times Presorted.Split of a 65,536-row node with
// four numeric columns at the median of a random attribute, so every other
// column's rows go left or right at random. Each iteration restores the
// node's rows and columns off the clock.
func BenchmarkPresortedSplit(b *testing.B) {
	const n, nn = 1 << 16, 4
	attrs := make([]record.Attribute, nn)
	for j := range attrs {
		attrs[j] = record.Attribute{Name: fmt.Sprintf("x%d", j), Kind: record.Numeric}
	}
	schema := record.MustSchema(attrs, 2)
	rng := rand.New(rand.NewSource(1))
	recs := make([]record.Record, n)
	for i := range recs {
		num := make([]float64, nn)
		for j := range num {
			num[j] = rng.Float64()
		}
		recs[i] = record.Record{Num: num, Class: int32(rng.Intn(2))}
	}
	root := Presort(schema, recs)
	rows := slices.Clone(root.rows)
	cols := make([][]Point, nn)
	for j := range cols {
		cols[j] = slices.Clone(root.cols[j])
	}
	sp := &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: root.cols[0][n/2].V}
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		node := &Presorted{recs: recs, rows: root.rows, cols: slices.Clone(root.cols), sc: root.sc}
		copy(node.rows, rows)
		for j := range cols {
			copy(node.cols[j], cols[j])
		}
		b.StartTimer()
		node.Split(schema, sp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
