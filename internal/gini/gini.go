// Package gini implements the gini impurity index and the split-evaluation
// machinery shared by CLOUDS and pCLOUDS: class frequency vectors, the
// weighted gini of a binary split, categorical count matrices with subset
// splitting, and the SSE method's interval lower bound (gini_est).
package gini

import (
	"cmp"
	"math"
	"slices"
)

// Index returns the gini impurity 1 - sum_i (c_i/n)^2 of a class-frequency
// vector. An empty vector has impurity 0 by convention.
func Index(counts []int64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	sumSq := 0.0
	fn := float64(n)
	for _, c := range counts {
		f := float64(c) / fn
		sumSq += f * f
	}
	return 1 - sumSq
}

// SplitIndex returns the size-weighted gini of a binary partition with the
// given left and right class-frequency vectors:
//
//	(n_l/n)·gini(left) + (n_r/n)·gini(right)
//
// Both sides empty yields 0.
func SplitIndex(left, right []int64) float64 {
	var nl, nr int64
	for _, c := range left {
		nl += c
	}
	for _, c := range right {
		nr += c
	}
	n := nl + nr
	if n == 0 {
		return 0
	}
	fn := float64(n)
	return float64(nl)/fn*Index(left) + float64(nr)/fn*Index(right)
}

// Sum returns the total count of a frequency vector.
func Sum(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// Add accumulates src into dst (dst += src). Vectors must be equal length.
func Add(dst, src []int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Sub subtracts src from dst (dst -= src). Vectors must be equal length.
func Sub(dst, src []int64) {
	for i, v := range src {
		dst[i] -= v
	}
}

// Clone copies a frequency vector.
func Clone(counts []int64) []int64 {
	return append([]int64(nil), counts...)
}

// LowerBound computes the SSE method's gini_est: a lower bound on the
// weighted gini of any split point that falls strictly inside an interval.
//
// left is the class-frequency vector of all records below the interval,
// interval the frequencies inside it, and total the frequencies of the whole
// node. A split inside the interval sends, per class i, some l_i in
// [left_i, left_i+interval_i] records to the left partition. The weighted
// gini n·g(l) = n - (Σ l_i²/|l| + Σ l_i'²/|l'|) is concave-transformed so
// that minimising g means maximising a convex function of l over a box; a
// convex maximum is attained at a vertex, i.e. with every class's interval
// mass assigned wholly left or wholly right. LowerBound therefore minimises
// over vertex assignments: exhaustively for ≤16 classes, by greedy descent
// with single-flip local search otherwise. The result is a true lower bound
// for every achievable split inside the interval.
func LowerBound(left, interval, total []int64) float64 {
	c := len(total)
	if c <= 16 {
		return lowerBoundExact(left, interval, total)
	}
	return lowerBoundGreedy(left, interval, total)
}

func lowerBoundExact(left, interval, total []int64) float64 {
	c := len(total)
	// LowerBound calls this for at most 16 classes, and once per interval of
	// every attribute of every node: the scratch vectors stay on the stack.
	var lbuf, rbuf [16]int64
	l, r := lbuf[:c], rbuf[:c]
	best := math.Inf(1)
	for mask := 0; mask < 1<<c; mask++ {
		for i := 0; i < c; i++ {
			l[i] = left[i]
			if mask&(1<<i) != 0 {
				l[i] += interval[i]
			}
			r[i] = total[i] - l[i]
		}
		if g := SplitIndex(l, r); g < best {
			best = g
		}
	}
	return best
}

func lowerBoundGreedy(left, interval, total []int64) float64 {
	c := len(total)
	l := make([]int64, c)
	r := make([]int64, c)
	assign := make([]bool, c)
	eval := func() float64 {
		for i := 0; i < c; i++ {
			l[i] = left[i]
			if assign[i] {
				l[i] += interval[i]
			}
			r[i] = total[i] - l[i]
		}
		return SplitIndex(l, r)
	}
	best := eval()
	// Greedy single-flip local search until no improving flip exists.
	for improved := true; improved; {
		improved = false
		for i := 0; i < c; i++ {
			assign[i] = !assign[i]
			if g := eval(); g < best {
				best = g
				improved = true
			} else {
				assign[i] = !assign[i]
			}
		}
	}
	return best
}

// CountMatrix accumulates class frequencies per categorical value:
// m.Counts[v][cls] is the number of records with attribute value v and class
// cls.
type CountMatrix struct {
	Counts [][]int64
}

// NewCountMatrix creates a cardinality×classes matrix of zeros.
func NewCountMatrix(cardinality, classes int) *CountMatrix {
	m := &CountMatrix{Counts: make([][]int64, cardinality)}
	flat := make([]int64, cardinality*classes)
	for v := range m.Counts {
		m.Counts[v], flat = flat[:classes], flat[classes:]
	}
	return m
}

// Add records one observation.
func (m *CountMatrix) Add(value int32, class int32) {
	m.Counts[value][class]++
}

// AddMatrix accumulates another matrix of identical shape into m.
func (m *CountMatrix) AddMatrix(o *CountMatrix) {
	for v := range m.Counts {
		Add(m.Counts[v], o.Counts[v])
	}
}

// Cardinality returns the number of categorical values.
func (m *CountMatrix) Cardinality() int { return len(m.Counts) }

// Classes returns the number of classes.
func (m *CountMatrix) Classes() int {
	if len(m.Counts) == 0 {
		return 0
	}
	return len(m.Counts[0])
}

// Total returns the class-frequency vector summed over all values.
func (m *CountMatrix) Total() []int64 {
	t := make([]int64, m.Classes())
	for _, row := range m.Counts {
		Add(t, row)
	}
	return t
}

// Flatten returns the matrix in row-major order (for communication).
func (m *CountMatrix) Flatten() []int64 {
	out := make([]int64, 0, m.Cardinality()*m.Classes())
	for _, row := range m.Counts {
		out = append(out, row...)
	}
	return out
}

// UnflattenCountMatrix rebuilds a matrix from Flatten output.
func UnflattenCountMatrix(flat []int64, cardinality, classes int) *CountMatrix {
	m := NewCountMatrix(cardinality, classes)
	for v := 0; v < cardinality; v++ {
		copy(m.Counts[v], flat[v*classes:(v+1)*classes])
	}
	return m
}

// SubsetSplit is the result of searching for the best categorical subset
// split: records whose value is in InLeft go to the left partition.
type SubsetSplit struct {
	InLeft []bool
	Gini   float64
}

// BestSubsetSplit finds the categorical subset minimising the weighted gini.
// For two classes it uses Breiman's ordering theorem (sort values by class-1
// proportion; the optimum is a prefix), which is exact in O(V log V). For
// more classes it enumerates subsets exhaustively when the cardinality is at
// most exhaustiveMax, and falls back to greedy single-move local search
// otherwise (SPRINT's approach for large domains).
func (m *CountMatrix) BestSubsetSplit() SubsetSplit {
	const exhaustiveMax = 12
	card, classes := m.Cardinality(), m.Classes()
	if card == 0 {
		return SubsetSplit{InLeft: nil, Gini: 0}
	}
	if classes == 2 {
		return m.bestSubsetTwoClass()
	}
	if card <= exhaustiveMax {
		return m.bestSubsetExhaustive()
	}
	return m.bestSubsetGreedy()
}

func (m *CountMatrix) bestSubsetTwoClass() SubsetSplit {
	card := m.Cardinality()
	type vp struct {
		value int
		prop  float64
	}
	order := make([]vp, 0, card)
	for v, row := range m.Counts {
		n := row[0] + row[1]
		p := 0.0
		if n > 0 {
			p = float64(row[1]) / float64(n)
		}
		order = append(order, vp{v, p})
	}
	slices.SortFunc(order, func(a, b vp) int {
		if a.prop != b.prop {
			return cmp.Compare(a.prop, b.prop)
		}
		return cmp.Compare(a.value, b.value)
	})
	var left, right [2]int64
	for _, row := range m.Counts {
		right[0] += row[0]
		right[1] += row[1]
	}
	best := SubsetSplit{InLeft: make([]bool, card), Gini: SplitIndex(left[:], right[:])}
	cur := make([]bool, card)
	for k := 0; k < card-1; k++ {
		v := order[k].value
		cur[v] = true
		Add(left[:], m.Counts[v])
		Sub(right[:], m.Counts[v])
		if g := SplitIndex(left[:], right[:]); g < best.Gini {
			best.Gini = g
			copy(best.InLeft, cur)
		}
	}
	return best
}

func (m *CountMatrix) bestSubsetExhaustive() SubsetSplit {
	card, classes := m.Cardinality(), m.Classes()
	total := m.Total()
	left := make([]int64, classes)
	right := make([]int64, classes)
	best := SubsetSplit{InLeft: make([]bool, card), Gini: math.Inf(1)}
	for mask := 0; mask < 1<<card; mask++ {
		for i := range left {
			left[i] = 0
		}
		for v := 0; v < card; v++ {
			if mask&(1<<v) != 0 {
				Add(left, m.Counts[v])
			}
		}
		for i := range right {
			right[i] = total[i] - left[i]
		}
		if g := SplitIndex(left, right); g < best.Gini {
			best.Gini = g
			for v := 0; v < card; v++ {
				best.InLeft[v] = mask&(1<<v) != 0
			}
		}
	}
	return best
}

func (m *CountMatrix) bestSubsetGreedy() SubsetSplit {
	card, classes := m.Cardinality(), m.Classes()
	total := m.Total()
	inLeft := make([]bool, card)
	left := make([]int64, classes)
	right := Clone(total)
	best := SplitIndex(left, right)
	for improved := true; improved; {
		improved = false
		for v := 0; v < card; v++ {
			if inLeft[v] {
				Sub(left, m.Counts[v])
				Add(right, m.Counts[v])
			} else {
				Add(left, m.Counts[v])
				Sub(right, m.Counts[v])
			}
			inLeft[v] = !inLeft[v]
			if g := SplitIndex(left, right); g < best {
				best = g
				improved = true
			} else {
				// Undo the move.
				if inLeft[v] {
					Sub(left, m.Counts[v])
					Add(right, m.Counts[v])
				} else {
					Add(left, m.Counts[v])
					Sub(right, m.Counts[v])
				}
				inLeft[v] = !inLeft[v]
			}
		}
	}
	return SubsetSplit{InLeft: inLeft, Gini: best}
}
