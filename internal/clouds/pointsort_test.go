package clouds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortOracle is the comparison sort SortPoints must agree with: by value,
// NaN last, -0 tied with +0.
func sortOracle(pts []Point) {
	slices.SortStableFunc(pts, func(a, b Point) int {
		aNaN, bNaN := a.V != a.V, b.V != b.V
		switch {
		case aNaN && bNaN:
			return 0
		case aNaN:
			return 1
		case bNaN:
			return -1
		case a.V < b.V:
			return -1
		case a.V > b.V:
			return 1
		}
		return 0
	})
}

// sameValueSequence reports whether a and b hold the same values in the
// same order, where NaN equals NaN and -0 equals +0.
func sameValueSequence(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].V != b[i].V && !(a[i].V != a[i].V && b[i].V != b[i].V) {
			return false
		}
	}
	return true
}

// sameMultiset reports whether a and b hold the same points, bit for bit.
func sameMultiset(a, b []Point) bool {
	key := func(p Point) string { return fmt.Sprintf("%x/%d/%d", math.Float64bits(p.V), p.Class, p.Row) }
	m := map[string]int{}
	for _, p := range a {
		m[key(p)]++
	}
	for _, p := range b {
		m[key(p)]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

// awkwardValues generates n values of one of several shapes that stress
// the radix kernel: special values, keys sharing their high digits, all
// equal keys, and ordinary spread values.
func awkwardValues(rng *rand.Rand, shape string, n int) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -2.5e-310,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 3}
	out := make([]float64, n)
	for i := range out {
		switch shape {
		case "specials":
			out[i] = specials[rng.Intn(len(specials))]
		case "shared-high":
			// Same sign, exponent and top mantissa bits: only low digits differ.
			out[i] = math.Float64frombits(0x4059_0000_0000_0000 | uint64(rng.Intn(1<<12)))
		case "equal":
			out[i] = 42
		case "ties":
			out[i] = float64(rng.Intn(7) - 3)
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	return out
}

// TestSortPointsMatchesComparisonSort: on both sides of the comparison-sort
// cutoff, over ±0, ±Inf, NaN, subnormals, MaxFloat64, all-equal keys and
// keys that share their high digits, the kernel yields the oracle's value
// sequence (NaN last) and keeps the multiset of points; the radix path is
// also stable.
func TestSortPointsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var sorter PointSorter
	for _, shape := range []string{"specials", "shared-high", "equal", "ties", "spread"} {
		for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 20000} {
			vals := awkwardValues(rng, shape, n)
			pts := make([]Point, n)
			for i, v := range vals {
				pts[i] = Point{V: v, Class: int32(rng.Intn(4)), Row: int32(i)}
			}
			want := slices.Clone(pts)
			sortOracle(want)
			for _, sort := range []struct {
				name string
				fn   func([]Point)
			}{{"SortPoints", SortPoints}, {"reused", sorter.Sort}} {
				got := slices.Clone(pts)
				sort.fn(got)
				if !sameValueSequence(got, want) {
					t.Fatalf("%s/%s/n=%d: value order differs from the comparison sort", sort.name, shape, n)
				}
				if !sameMultiset(got, pts) {
					t.Fatalf("%s/%s/n=%d: points lost or changed", sort.name, shape, n)
				}
				// The radix path is stable: equal keys keep their input
				// (row) order.
				for i := 1; i < n && n >= radixCutoff; i++ {
					if pointKey(got[i].V) == pointKey(got[i-1].V) && got[i].Row < got[i-1].Row {
						t.Fatalf("%s/%s/n=%d: rows %d and %d of a tie swapped", sort.name, shape, n, got[i-1].Row, got[i].Row)
					}
				}
			}
		}
	}
}

// TestMergeRuns: merging value-sorted runs (some empty, p from 1 to 9)
// gives the sorted concatenation, every point kept, a tie taking the
// earlier run first.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sorter PointSorter
	for _, shape := range []string{"specials", "ties", "spread"} {
		for runs := 1; runs <= 9; runs++ {
			var pts []Point
			var ends []int
			for r := 0; r < runs; r++ {
				n := rng.Intn(300)
				if rng.Intn(4) == 0 {
					n = 0
				}
				run := make([]Point, n)
				for i, v := range awkwardValues(rng, shape, n) {
					run[i] = Point{V: v, Class: int32(r), Row: int32(len(pts) + i)}
				}
				sortOracle(run)
				pts = append(pts, run...)
				ends = append(ends, len(pts))
			}
			in := slices.Clone(pts)
			want := slices.Clone(pts)
			sortOracle(want)
			got := sorter.Merge(pts, ends)
			if !sameValueSequence(got, want) || !sameMultiset(got, in) {
				t.Fatalf("%s/%d runs: merge differs from the sorted concatenation", shape, runs)
			}
			for i := 1; i < len(got); i++ {
				if pointKey(got[i].V) == pointKey(got[i-1].V) && got[i].Class < got[i-1].Class {
					t.Fatalf("%s/%d runs: a tie took run %d before run %d", shape, runs, got[i-1].Class, got[i].Class)
				}
			}
		}
	}
}

// BenchmarkSortPoints times the radix path against the comparison path
// it replaces below radixCutoff, on spread values; the crossing sets the
// cutoff.
func BenchmarkSortPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 128, 256, 320, 384, 512, 4096} {
		src := make([]Point, n)
		for i, v := range awkwardValues(rng, "spread", n) {
			src[i] = Point{V: v}
		}
		pts := make([]Point, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var s PointSorter
			for range b.N {
				copy(pts, src)
				s.sortRadix(pts)
			}
		})
		b.Run(fmt.Sprintf("compare/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(pts, src)
				sortSmall(pts)
			}
		})
	}
}
