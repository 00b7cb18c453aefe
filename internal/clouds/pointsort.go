package clouds

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// The point-sort kernel: every sort of (value, class) points in the build —
// presorting a sample or a rank's share (Presort), the exact search inside
// an alive interval (EvaluateInterval), and a streamed node's alive runs
// before they are searched or shipped — orders by value alone, NaN last, through one
// LSD radix sort on order-preserving integer keys. The order of equal
// values is unspecified: class order within a tie cannot change a
// candidate, because the exact search evaluates only at the last point of
// each distinct value, and a zero threshold is stored as +0 whichever zero
// ends the tie.

const (
	// radixBits is the digit width: 2^11 counters per digit fit in L1,
	// and 64-bit keys need at most six passes.
	radixBits    = 11
	radixDigits  = (64 + radixBits - 1) / radixBits
	radixBuckets = 1 << radixBits
	// radixCutoff is the size below which a comparison sort wins: a radix
	// sort pays a histogram clear and a prefix sum per digit whatever n
	// is, about 10 µs. Measured with BenchmarkSortPoints on a 2-vCPU
	// x86-64 VM: 16.7 µs (comparison) against 21.8 (radix) at 256 points,
	// 18.9 against 19.8 at 320, 25.6 against 19.4 at 384, and 633 against
	// 196 at 4,096.
	radixCutoff = 320
)

// pointKey maps a value to a uint64 whose unsigned order is the value's
// order: -0 shares +0's key, and every NaN takes the largest key, after
// +Inf.
func pointKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	if v == 0 {
		v = 0 // -0 becomes +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// PointSorter sorts and merges points by value, NaN last. Its buffers are
// scratch kept between calls, so a caller that sorts and merges many
// slices allocates them once. The zero value is ready to use; a
// PointSorter is not safe for concurrent use.
type PointSorter struct {
	keys, keys2 []uint64
	pts         []Point
	count       *[radixDigits][radixBuckets]int32
}

// sorters lends SortPoints its scratch.
var sorters = sync.Pool{New: func() any { return new(PointSorter) }}

// SortPoints sorts pts by value, NaN last, with scratch borrowed from a
// pool.
func SortPoints(pts []Point) {
	s := sorters.Get().(*PointSorter)
	s.Sort(pts)
	sorters.Put(s)
}

// Sort sorts pts by value, NaN last.
func (s *PointSorter) Sort(pts []Point) {
	if len(pts) < radixCutoff {
		sortSmall(pts)
		return
	}
	s.sortRadix(pts)
}

// sortSmall is Sort's comparison path: NaNs go to the tail (their order is
// never read) and the numbers before them are pdqsorted.
func sortSmall(pts []Point) {
	n := len(pts)
	for i := 0; i < n; {
		if pts[i].V != pts[i].V {
			n--
			pts[i], pts[n] = pts[n], pts[i]
		} else {
			i++
		}
	}
	slices.SortFunc(pts[:n], func(a, b Point) int { return cmp.Compare(a.V, b.V) })
}

// sortRadix is Sort's radix path, for any non-empty pts. It is stable.
func (s *PointSorter) sortRadix(pts []Point) {
	n := len(pts)
	if cap(s.keys) < n {
		s.keys, s.keys2, s.pts = make([]uint64, n), make([]uint64, n), make([]Point, n)
	}
	keys, keys2, tmp := s.keys[:n], s.keys2[:n], s.pts[:n]
	if s.count == nil {
		s.count = new([radixDigits][radixBuckets]int32)
	} else {
		clear(s.count[:])
	}
	count := s.count

	// One pass builds every digit's histogram.
	for i := range pts {
		k := pointKey(pts[i].V)
		keys[i] = k
		for d := range radixDigits {
			count[d][(k>>(d*radixBits))&(radixBuckets-1)]++
		}
	}
	src, dst := pts, tmp
	srcK, dstK := keys, keys2
	for d := range radixDigits {
		c := &count[d]
		// A digit every key shares (one bucket holds all n) moves nothing.
		if int(c[(srcK[0]>>(d*radixBits))&(radixBuckets-1)]) == n {
			continue
		}
		var sum int32
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		shift := d * radixBits
		for i, k := range srcK {
			b := (k >> shift) & (radixBuckets - 1)
			at := c[b]
			c[b]++
			dst[at], dstK[at] = src[i], k
		}
		src, dst = dst, src
		srcK, dstK = dstK, srcK
	}
	if &src[0] != &pts[0] {
		copy(pts, src)
	}
}

// Merge merges consecutive value-sorted runs of pts — run r ends at
// ends[r], the last end being len(pts) — into one value-sorted sequence,
// stably (a tie keeps the earlier run's points first). It merges pairs of
// runs per round, n·log(runs) in all, and returns the merged points: pts
// itself or the sorter's scratch, valid until the sorter's next call.
func (s *PointSorter) Merge(pts []Point, ends []int) []Point {
	// Bounds of the non-empty runs: run r is pts[bounds[r]:bounds[r+1]].
	bounds := make([]int, 1, len(ends)+1)
	for _, e := range ends {
		if e > bounds[len(bounds)-1] {
			bounds = append(bounds, e)
		}
	}
	if len(bounds) <= 2 {
		return pts
	}
	n := len(pts)
	if cap(s.pts) < n {
		s.pts = make([]Point, n)
	}
	src, dst := pts, s.pts[:n]
	for len(bounds) > 2 {
		next := make([]int, 1, len(bounds)/2+2)
		for r := 0; r+1 < len(bounds); r += 2 {
			lo := bounds[r]
			if r+2 >= len(bounds) {
				copy(dst[lo:], src[lo:bounds[r+1]]) // an odd run out waits a round
				next = append(next, bounds[r+1])
				continue
			}
			mergeTwo(dst[lo:bounds[r+2]], src[lo:bounds[r+1]], src[bounds[r+1]:bounds[r+2]])
			next = append(next, bounds[r+2])
		}
		bounds = next
		src, dst = dst, src
	}
	return src
}

// mergeTwo merges the value-sorted a and b into dst (len(a)+len(b) long),
// taking a's point first on a tie.
func mergeTwo(dst, a, b []Point) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if pointKey(b[j].V) < pointKey(a[i].V) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
