package clouds

import (
	"math"
	"sort"

	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Presorted is a node's rows together with, for every numeric attribute,
// the same rows ordered by that attribute's value, NaN last: the attribute
// lists of SPRINT (Shafer, Agrawal & Mehta, VLDB 1996), which the paper
// calls the attribute-based approach. It is built once — for an in-core
// build's records, an in-memory out-of-core node's, a small task's, a
// build's sample, a resident pCLOUDS rank's share — and Split divides it
// with a stable partition at every node, so each child inherits sorted
// columns without sorting again. The direct method scans the columns, a
// large node's statistics and alive points are read off them
// (AccumulateStats, Range), and so are its interval structures
// (Intervals).
type Presorted struct {
	recs []record.Record // every row of the presorted root; never modified
	rows []int32         // this node's rows (indices into recs), in root order
	cols [][]Point       // cols[j]: this node's rows by Num[j], NaN last
	sc   *presortScratch // shared by every node split from the same root
}

// presortScratch is the working space of Split. A node and its descendants
// are split one at a time, so one buffer per root serves them all.
type presortScratch struct {
	left []bool // by root row: the row goes left at the split being made
	rows []int32
	pts  []Point
}

// Presort sorts recs once along every numeric attribute. recs is read, never
// modified, and must outlive the result and every node split from it.
func Presort(schema *record.Schema, recs []record.Record) *Presorted {
	n, nn := len(recs), schema.NumNumeric()
	p := &Presorted{
		recs: recs,
		rows: make([]int32, n),
		cols: make([][]Point, nn),
		sc:   &presortScratch{left: make([]bool, n)},
	}
	for i := range p.rows {
		p.rows[i] = int32(i)
	}
	// A column entry carries the value and class, so the direct method's
	// scan is sequential; Row finds the record when the node is split.
	flat := make([]Point, n*nn)
	for j := range p.cols {
		col := flat[j*n : (j+1)*n : (j+1)*n]
		for i := range recs {
			col[i] = Point{V: recs[i].Num[j], Class: recs[i].Class, Row: int32(i)}
		}
		SortPoints(col)
		p.cols[j] = col
	}
	return p
}

// Len returns the node's row count.
func (p *Presorted) Len() int { return len(p.rows) }

// classCounts returns the node's class-count vector.
func (p *Presorted) classCounts(numClasses int) []int64 {
	counts := make([]int64, numClasses)
	if len(p.cols) > 0 {
		for _, e := range p.cols[0] {
			counts[e.Class]++
		}
		return counts
	}
	for _, r := range p.rows {
		counts[p.recs[r].Class]++
	}
	return counts
}

// Split divides the node's rows by sp into its two children, keeping every
// column's order: each child's columns are already sorted. The children
// take over the node's storage, so the node must not be used afterwards.
func (p *Presorted) Split(schema *record.Schema, sp *tree.Splitter) (left, right *Presorted) {
	goes := p.sc.left
	if j := schema.NumericPos(sp.Attr); sp.Kind == tree.NumericSplit && j >= 0 {
		for _, e := range p.cols[j] {
			goes[e.Row] = e.V <= sp.Threshold
		}
	} else {
		for _, r := range p.rows {
			goes[r] = sp.GoesLeft(schema, p.recs[r])
		}
	}
	n := len(p.rows)
	if cap(p.sc.rows) < n {
		p.sc.rows = make([]int32, n)
		p.sc.pts = make([]Point, n)
	}

	// Stable partition: left rows are compacted in place (the write index
	// never passes the read index), right rows wait in scratch and are
	// copied in after them.
	nl, spill := 0, p.sc.rows[:0]
	for _, r := range p.rows {
		if goes[r] {
			p.rows[nl] = r
			nl++
		} else {
			spill = append(spill, r)
		}
	}
	copy(p.rows[nl:], spill)
	left = &Presorted{recs: p.recs, rows: p.rows[:nl:nl], cols: make([][]Point, len(p.cols)), sc: p.sc}
	right = &Presorted{recs: p.recs, rows: p.rows[nl:], cols: make([][]Point, len(p.cols)), sc: p.sc}
	for j, col := range p.cols {
		k, spill := 0, p.sc.pts[:0]
		for _, e := range col {
			if goes[e.Row] {
				col[k] = e
				k++
			} else {
				spill = append(spill, e)
			}
		}
		copy(col[k:], spill)
		left.cols[j], right.cols[j] = col[:k:k], col[k:]
	}
	return left, right
}

// Intervals builds the node's interval structures, q intervals per numeric
// attribute, from its sorted columns: BuildIntervals without the sort, and
// the same cuts.
func (p *Presorted) Intervals(q int) []*histogram.Intervals {
	out := make([]*histogram.Intervals, len(p.cols))
	vals := make([]float64, 0, len(p.rows))
	for j, col := range p.cols {
		vals = vals[:0]
		for _, e := range col {
			if e.V != e.V {
				break // NaN sorts last
			}
			vals = append(vals, e.V)
		}
		out[j] = histogram.FromSorted(vals, q)
	}
	return out
}

// DirectSplit finds the exact best split of an in-memory record set with
// the paper's direct method: it sorts the points along every numeric
// attribute, computes the gini index at every distinct value, and evaluates
// the best categorical subset per categorical attribute. It presorts this
// one node; the builders presort an in-memory root once and split the
// sorted columns instead (Presorted). The returned candidate obeys the
// deterministic total order.
func DirectSplit(schema *record.Schema, recs []record.Record) Candidate {
	return Presort(schema, recs).directSplit(schema)
}

// directSplit is the direct method over the node's presorted columns: the
// exact search over every numeric attribute's whole column, and the best
// subset of every categorical one. The candidate obeys the deterministic
// total order.
func (p *Presorted) directSplit(schema *record.Schema) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(p.rows) == 0 {
		return best
	}
	total := p.classCounts(schema.NumClasses)
	nTotal := int64(len(p.rows))
	zero := make([]int64, schema.NumClasses)
	for j, attr := range schema.NumericIndices() {
		if cand := EvaluateSorted(attr, zero, total, p.cols[j]); cand.Better(best) {
			best = cand
		}
	}
	for j, attr := range schema.CategoricalIndices() {
		cm := gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses)
		for _, r := range p.rows {
			cm.Add(p.recs[r].Cat[j], p.recs[r].Class)
		}
		if cand := BestCategorical(cm, attr, total, nTotal); cand.Better(best) {
			best = cand
		}
	}
	return best
}

// AccumulateStats adds the node's rows to ns, with exactly the integers
// NodeStats.Add would count row by row. Numeric frequencies come from the
// sorted columns: a monotone walk over the interval cuts replaces Locate
// (a value falls in the interval whose index is the number of cuts below
// it, NaN in the last). Class and categorical counts are taken by row.
func (p *Presorted) AccumulateStats(ns *NodeStats) {
	ns.N += int64(len(p.rows))
	for _, r := range p.rows {
		rec := &p.recs[r]
		ns.Class[rec.Class]++
		for j, cm := range ns.Cat {
			cm.Add(rec.Cat[j], rec.Class)
		}
	}
	for j, nst := range ns.Numeric {
		cuts, k := nst.Intervals.Cuts, 0
		for _, e := range p.cols[j] {
			if e.V != e.V {
				k = len(cuts) // NaN sorts last and locates to the last interval
			}
			for k < len(cuts) && cuts[k] < e.V {
				k++
			}
			nst.Freq[k][e.Class]++
		}
	}
}

// Range returns the node's points of numeric attribute j that locate to
// interval i of iv: one contiguous run of the sorted column, in value order.
// The last interval also holds the NaN tail. The slice aliases the column
// and must not be modified.
func (p *Presorted) Range(j int, iv *histogram.Intervals, i int) []Point {
	col := p.cols[j]
	// upper is the index of the first point that does not satisfy v <= c.
	upper := func(c float64) int {
		return sort.Search(len(col), func(x int) bool { return !(col[x].V <= c) })
	}
	lo, hi := 0, len(col)
	if i > 0 {
		lo = upper(iv.Cuts[i-1])
	}
	if i < len(iv.Cuts) {
		hi = upper(iv.Cuts[i])
	}
	return col[lo:hi]
}

// AppendRecords appends the node's rows to dst in root order. The records
// share their value slices with the presorted records.
func (p *Presorted) AppendRecords(dst []record.Record) []record.Record {
	for _, r := range p.rows {
		dst = append(dst, p.recs[r])
	}
	return dst
}
