// Package histogram builds the equal-mass interval structure of the SS/SSE
// splitting methods: the range of each numeric attribute is divided into q
// intervals such that each interval contains approximately the same number
// of points of a pre-drawn random sample. Gini indices are evaluated at the
// interval boundaries, and the SSE method later descends into "alive"
// intervals only.
package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Intervals is the interval structure of one numeric attribute. Cuts holds
// the strictly increasing internal boundary values; the structure represents
// len(Cuts)+1 intervals. Interval i covers:
//
//	i = 0:             (-inf, Cuts[0]]
//	0 < i < len(Cuts): (Cuts[i-1], Cuts[i]]
//	i = len(Cuts):     (Cuts[len(Cuts)-1], +inf)
//
// A record with value v falls into the split's left partition for boundary i
// iff v <= Cuts[i]; this makes boundary i the candidate splitter "attr <=
// Cuts[i]".
type Intervals struct {
	// Cuts is read-only after construction: FromSample and Merge also build
	// a guide index over it that lets Locate skip most of its search, and
	// editing or reslicing Cuts would leave the index describing cuts that
	// are no longer there. A structure written as a literal has no index
	// and is searched in full.
	Cuts []float64
	g    guide
}

// guideFactor is the number of guide buckets per cut: over evenly spread
// cuts three buckets in four are empty, so most searches end at the
// bracket itself, and at q = 1000 the index is 16 kB per attribute.
const guideFactor = 4

// minGuideCuts is the fewest cuts worth indexing. Below it the plain search
// takes at most five probes, and building the index costs about as much
// as twenty lookups save: more than a streaming window's per-leaf sketches
// (at most 30 cuts, a few dozen records per leaf) ever recover.
const minGuideCuts = 32

// guide cuts the span [lo, hi] of the cuts into equal-width buckets;
// start[k] counts the cuts in buckets below k. bucket is monotone in v (IEEE
// rounding of v-lo and of the product never reorders two values), so every
// cut in a lower bucket than v is below v and every cut in a higher one is
// above it: the first cut >= v lies in [start[k], start[k+1]] for
// k = bucket(v). A nil start means no index.
//
// cuts is the structure's cuts followed by a +Inf sentinel (Cuts shares
// its array), so a bucket holding zero or one cut resolves with a single
// compare against cuts[start[k]], the last bucket included.
type guide struct {
	lo, hi, scale float64
	start         []int32
	cuts          []float64
}

// newIntervals wraps cuts and indexes them unless they are fewer than
// minGuideCuts, fail Validate, or span a range the buckets cannot scale: an
// infinite end cut or a span past MaxFloat64 makes hi-lo infinite, a
// subnormal span overflows the scale.
func newIntervals(cuts []float64) *Intervals {
	iv := &Intervals{Cuts: cuts}
	n := len(cuts)
	if n < minGuideCuts || iv.Validate() != nil {
		return iv
	}
	lo, hi := cuts[0], cuts[n-1]
	scale := float64(guideFactor*n) / (hi - lo)
	if math.IsInf(hi-lo, 0) || math.IsInf(scale, 0) {
		return iv
	}
	g := guide{lo: lo, hi: hi, scale: scale, start: make([]int32, guideFactor*n+1), cuts: append(cuts[:n:n], math.Inf(1))}
	iv.Cuts = g.cuts[:n:n]
	k := 0
	for i, c := range cuts {
		for b := g.bucket(c); k <= b; k++ {
			g.start[k] = int32(i)
		}
	}
	for ; k < len(g.start); k++ {
		g.start[k] = int32(n)
	}
	iv.g = g
	return iv
}

// bucket maps v in [lo, hi] to its bucket; rounding can carry hi one past
// the last bucket.
func (g *guide) bucket(v float64) int {
	return min(int((v-g.lo)*g.scale), len(g.start)-2)
}

// NumIntervals returns the number of intervals (len(Cuts)+1); an empty
// structure has one interval covering the whole line.
func (iv *Intervals) NumIntervals() int { return len(iv.Cuts) + 1 }

// NumBounds returns the number of candidate boundary split points.
func (iv *Intervals) NumBounds() int { return len(iv.Cuts) }

// Locate returns the interval index that value v falls into. NaN is mapped
// to the last interval explicitly: every comparison against a cut is false
// for NaN, so a NaN record never satisfies "v <= Cuts[i]" and always falls
// on the right of every candidate splitter — the same unseen-value policy
// as tree.Splitter.GoesLeft (NaN goes right). ±Inf need no special case:
// -Inf lands in the first interval, +Inf in the last.
func (iv *Intervals) Locate(v float64) int {
	if math.IsNaN(v) {
		return len(iv.Cuts)
	}
	return iv.find(v)
}

// LocateBatch stores Locate(vs[i]) in out[i] for every value of a column;
// out must be at least as long as vs. It takes the same steps as Locate,
// with the guide's fields held in registers across the column.
func (iv *Intervals) LocateBatch(vs []float64, out []int32) {
	out = out[:len(vs)]
	n := len(iv.Cuts)
	g := iv.g
	if g.start == nil {
		for i, v := range vs {
			out[i] = int32(iv.Locate(v))
		}
		return
	}
	for i, v := range vs {
		l := n
		switch {
		case v != v || v > g.hi:
		case v <= g.lo:
			l = 0
		default:
			lo, hi := g.bracket(v)
			l = resolve(g.cuts, lo, hi, v)
		}
		out[i] = int32(l)
	}
}

// find returns the index of the first cut >= v (len(Cuts) when there is
// none) for a v that is not NaN: records at a cut belong to the interval
// left of it. With a guide index the search is confined to the bracket of
// v's bucket; without one it covers every cut.
func (iv *Intervals) find(v float64) int {
	g := &iv.g
	switch {
	case g.start == nil:
		return search(iv.Cuts, 0, len(iv.Cuts), v)
	case v <= g.lo:
		return 0
	case v > g.hi:
		return len(iv.Cuts)
	}
	lo, hi := g.bracket(v)
	return resolve(g.cuts, lo, hi, v)
}

// bracket returns the cut indices [lo, hi] that hold the first cut >= v,
// for v in (g.lo, g.hi].
func (g *guide) bracket(v float64) (lo, hi int) {
	k := g.bucket(v)
	return int(g.start[k]), int(g.start[k+1])
}

// resolve returns the first cut >= v within bracket [lo, hi] of the
// sentinel-terminated cuts: one compare when the bracket holds zero or one
// cut, a binary search otherwise.
func resolve(cuts []float64, lo, hi int, v float64) int {
	if hi-lo > 1 {
		return search(cuts, lo, hi, v)
	}
	if cuts[lo] < v {
		lo++
	}
	return lo
}

// search returns the first index in [lo, hi] whose cut is >= v, given that
// every cut below lo is < v and every cut from hi on is >= v.
func search(cuts []float64, lo, hi int, v float64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cuts[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Validate checks that cuts are strictly increasing and finite-comparable:
// a NaN cut can never be strictly ordered, so it is rejected even when it is
// the only cut.
func (iv *Intervals) Validate() error {
	for i, c := range iv.Cuts {
		if math.IsNaN(c) {
			return fmt.Errorf("histogram: NaN cut at %d", i)
		}
		if i > 0 && !(iv.Cuts[i-1] < c) {
			return fmt.Errorf("histogram: cuts not strictly increasing at %d: %g >= %g", i, iv.Cuts[i-1], c)
		}
	}
	return nil
}

// FromSample builds at most q equal-mass intervals from sample values. The
// sample is copied and sorted, then handed to FromSorted. NaN sample values
// are dropped first: sort.Float64s orders NaN ahead of every number, so a
// NaN quantile would both violate the strictly-increasing invariant itself
// and — because c > NaN is false for every c — suppress all later cuts.
// NaN records are instead routed by Locate's explicit last-interval rule.
func FromSample(sample []float64, q int) *Intervals {
	s := make([]float64, 0, len(sample))
	for _, v := range sample {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return FromSorted(s, q)
}

// FromSorted builds at most q equal-mass intervals from sample values s
// that are already sorted ascending and hold no NaN; cut points are sample
// quantiles. Duplicate quantile values are merged, so the result may have
// fewer than q intervals (e.g. for heavily repeated values). A sample
// smaller than q yields one interval per distinct adjacent pair. A cut
// equal to zero is stored as +0: -0 and +0 tie, so which of the two a
// quantile lands on depends on the sample's order, and the cut's bytes
// must not. s is not retained.
func FromSorted(s []float64, q int) *Intervals {
	if q < 1 {
		q = 1
	}
	if len(s) == 0 || q == 1 {
		return newIntervals(nil)
	}
	cuts := make([]float64, 0, q-1)
	for k := 1; k < q; k++ {
		idx := k*len(s)/q - 1
		if idx < 0 {
			idx = 0
		}
		// The strict > (not >=) against the previous cut is the dedupe that
		// keeps heavily tied samples from emitting equal, invariant-breaking
		// cuts and the empty intervals they imply.
		c := s[idx]
		if c == 0 {
			c = 0 // -0 becomes +0
		}
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	// Drop a final cut equal to the sample maximum: it would create an empty
	// top interval and a degenerate "everything left" candidate split.
	if len(cuts) > 0 && cuts[len(cuts)-1] >= s[len(s)-1] {
		cuts = cuts[:len(cuts)-1]
	}
	return newIntervals(cuts)
}
