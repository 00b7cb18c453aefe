// Package clouds implements the CLOUDS decision tree classifier (AlSabti,
// Ranka, Singh — KDD 1998), the sequential substrate of pCLOUDS. It
// provides the SS method (sample the splitting points), the SSE method
// (sampling with estimation: alive intervals via a gini lower bound), the
// direct method (full sort, exact gini at every point), and both in-core
// and out-of-core sequential drivers. The statistics and split-evaluation
// machinery here is shared with package pclouds, whose parallel phases
// combine the same per-rank aggregates with all-reduce operations.
package clouds

import (
	"fmt"

	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
)

// NumericStats holds the interval structure and per-interval class
// frequencies of one numeric attribute at one node.
type NumericStats struct {
	// Attr is the attribute position in the schema.
	Attr int
	// Intervals is the equal-mass interval structure from the node sample.
	Intervals *histogram.Intervals
	// Freq[i] is the class-frequency vector of interval i; len(Freq) ==
	// Intervals.NumIntervals().
	Freq [][]int64
	// flat is the one array Freq's rows are carved from: interval i's
	// count of class c is flat[i*classes+c].
	flat []int64
}

// NodeStats aggregates everything one pass over a node's records produces:
// per-interval class frequencies for every numeric attribute, count
// matrices for every categorical attribute, and the node's class counts.
type NodeStats struct {
	Schema  *record.Schema
	Numeric []*NumericStats
	Cat     []*gini.CountMatrix
	Class   []int64
	N       int64
}

// NewNodeStats allocates zeroed statistics. intervals must hold one
// interval structure per numeric attribute, in schema numeric order.
func NewNodeStats(schema *record.Schema, intervals []*histogram.Intervals) *NodeStats {
	if len(intervals) != schema.NumNumeric() {
		panic(fmt.Sprintf("clouds: %d interval structures for %d numeric attributes", len(intervals), schema.NumNumeric()))
	}
	ns := &NodeStats{
		Schema: schema,
		Class:  make([]int64, schema.NumClasses),
	}
	for j, attr := range schema.NumericIndices() {
		iv := intervals[j]
		freq := make([][]int64, iv.NumIntervals())
		flat := make([]int64, iv.NumIntervals()*schema.NumClasses)
		for i, rest := 0, flat; i < len(freq); i++ {
			freq[i], rest = rest[:schema.NumClasses], rest[schema.NumClasses:]
		}
		ns.Numeric = append(ns.Numeric, &NumericStats{Attr: attr, Intervals: iv, Freq: freq, flat: flat})
	}
	for _, attr := range schema.CategoricalIndices() {
		ns.Cat = append(ns.Cat, gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses))
	}
	return ns
}

// Intervals returns the interval structures the statistics count over, one
// per numeric attribute in schema numeric order.
func (ns *NodeStats) Intervals() []*histogram.Intervals {
	out := make([]*histogram.Intervals, len(ns.Numeric))
	for j, nst := range ns.Numeric {
		out[j] = nst.Intervals
	}
	return out
}

// Add accumulates one record into the statistics.
func (ns *NodeStats) Add(rec record.Record) {
	ns.N++
	ns.Class[rec.Class]++
	for j, nst := range ns.Numeric {
		nst.Freq[nst.Intervals.Locate(rec.Num[j])][rec.Class]++
	}
	for j, cm := range ns.Cat {
		cm.Add(rec.Cat[j], rec.Class)
	}
}

// AddBatch accumulates rows of a batch — every row when rows is nil, else
// the listed ones — with exactly the integers Add counts record by record.
// Each numeric column is located as a whole (Intervals.LocateBatch) and
// counted in one loop; each categorical column in another.
func (ns *NodeStats) AddBatch(b *Batch, rows []int32) {
	cls := gather(&b.cls, b.Class, rows)
	ns.N += int64(len(cls))
	for _, c := range cls {
		ns.Class[c]++
	}
	classes := len(ns.Class)
	locs := scratch(&b.locs, len(cls))
	for j, nst := range ns.Numeric {
		nst.Intervals.LocateBatch(gather(&b.vals, b.Num[j], rows), locs)
		flat := nst.flat
		for k, l := range locs {
			flat[int(l)*classes+int(cls[k])]++
		}
	}
	for j, cm := range ns.Cat {
		for k, v := range gather(&b.catVals, b.Cat[j], rows) {
			cm.Counts[v][cls[k]]++
		}
	}
}

// Merge adds another NodeStats of identical shape into ns.
func (ns *NodeStats) Merge(o *NodeStats) error {
	if len(ns.Numeric) != len(o.Numeric) || len(ns.Cat) != len(o.Cat) || len(ns.Class) != len(o.Class) {
		return fmt.Errorf("clouds: merging mismatched NodeStats")
	}
	ns.N += o.N
	gini.Add(ns.Class, o.Class)
	for j := range ns.Numeric {
		if len(ns.Numeric[j].Freq) != len(o.Numeric[j].Freq) {
			return fmt.Errorf("clouds: merging mismatched interval counts on attribute %d", ns.Numeric[j].Attr)
		}
		for i := range ns.Numeric[j].Freq {
			gini.Add(ns.Numeric[j].Freq[i], o.Numeric[j].Freq[i])
		}
	}
	for j := range ns.Cat {
		ns.Cat[j].AddMatrix(o.Cat[j])
	}
	return nil
}

// FlatLen returns the length of the Flatten vector.
func (ns *NodeStats) FlatLen() int {
	n := 1 + len(ns.Class)
	for _, nst := range ns.Numeric {
		n += len(nst.Freq) * len(ns.Class)
	}
	for _, cm := range ns.Cat {
		n += cm.Cardinality() * cm.Classes()
	}
	return n
}

// Flatten packs all counters into one int64 vector (for all-reduce). Layout:
// N, class counts, per-numeric-attribute interval frequencies (row-major),
// per-categorical-attribute count matrices (row-major).
func (ns *NodeStats) Flatten() []int64 {
	return ns.AppendFlatten(make([]int64, 0, ns.FlatLen()))
}

// AppendFlatten appends the Flatten vector to dst, so the statistics of a
// whole frontier level can share one reduction buffer.
func (ns *NodeStats) AppendFlatten(dst []int64) []int64 {
	dst = append(dst, ns.N)
	dst = append(dst, ns.Class...)
	for _, nst := range ns.Numeric {
		for _, f := range nst.Freq {
			dst = append(dst, f...)
		}
	}
	for _, cm := range ns.Cat {
		for _, row := range cm.Counts {
			dst = append(dst, row...)
		}
	}
	return dst
}

// Unflatten replaces ns's counters with the contents of a Flatten vector of
// matching shape.
func (ns *NodeStats) Unflatten(flat []int64) error {
	if len(flat) != ns.FlatLen() {
		return fmt.Errorf("clouds: unflatten length %d, want %d", len(flat), ns.FlatLen())
	}
	ns.N = flat[0]
	flat = flat[1:]
	copy(ns.Class, flat[:len(ns.Class)])
	flat = flat[len(ns.Class):]
	c := len(ns.Class)
	for _, nst := range ns.Numeric {
		for i := range nst.Freq {
			copy(nst.Freq[i], flat[:c])
			flat = flat[c:]
		}
	}
	for _, cm := range ns.Cat {
		for v := 0; v < cm.Cardinality(); v++ {
			copy(cm.Counts[v], flat[:c])
			flat = flat[c:]
		}
	}
	return nil
}

// attrCounters resolves a schema attribute id to its counters: the interval
// frequency rows of a numeric attribute, or the count matrix of a
// categorical one. Both are nil for an unknown id.
func (ns *NodeStats) attrCounters(attr int) ([][]int64, *gini.CountMatrix) {
	for _, nst := range ns.Numeric {
		if nst.Attr == attr {
			return nst.Freq, nil
		}
	}
	for j, a := range ns.Schema.CategoricalIndices() {
		if a == attr {
			return nil, ns.Cat[j]
		}
	}
	return nil, nil
}

// AttrFlatLen returns the length of a FlattenAttrs vector for the given
// schema attribute ids.
func (ns *NodeStats) AttrFlatLen(attrs []int) int {
	n := 0
	for _, a := range attrs {
		if rows, cm := ns.attrCounters(a); rows != nil {
			n += len(rows) * len(ns.Class)
		} else if cm != nil {
			n += cm.Cardinality() * cm.Classes()
		}
	}
	return n
}

// FlattenAttrs packs only the given attributes' counters into one int64
// vector — the vote protocol's elected-set exchange. attrs must be sorted
// ascending and duplicate-free so every rank produces the same layout;
// interval/cardinality shapes are assumed identical across ranks, as
// elsewhere in the replication scheme.
func (ns *NodeStats) FlattenAttrs(attrs []int) ([]int64, error) {
	out := make([]int64, 0, ns.AttrFlatLen(attrs))
	for _, a := range attrs {
		rows, cm := ns.attrCounters(a)
		switch {
		case rows != nil:
			for _, f := range rows {
				out = append(out, f...)
			}
		case cm != nil:
			out = append(out, cm.Flatten()...)
		default:
			return nil, fmt.Errorf("clouds: flatten of unknown attribute %d", a)
		}
	}
	return out, nil
}

// UnflattenAttrs scatters a FlattenAttrs vector back into ns, leaving the
// counters of attributes outside attrs untouched.
func (ns *NodeStats) UnflattenAttrs(attrs []int, flat []int64) error {
	if len(flat) != ns.AttrFlatLen(attrs) {
		return fmt.Errorf("clouds: unflatten-attrs length %d, want %d", len(flat), ns.AttrFlatLen(attrs))
	}
	c := len(ns.Class)
	for _, a := range attrs {
		rows, cm := ns.attrCounters(a)
		switch {
		case rows != nil:
			for i := range rows {
				copy(rows[i], flat[:c])
				flat = flat[c:]
			}
		case cm != nil:
			for v := 0; v < cm.Cardinality(); v++ {
				copy(cm.Counts[v], flat[:c])
				flat = flat[c:]
			}
		default:
			return fmt.Errorf("clouds: unflatten of unknown attribute %d", a)
		}
	}
	return nil
}

// BuildIntervals constructs the per-numeric-attribute interval structures
// for a node from its sample records, with q intervals per attribute. The
// same sample and q on every rank yields identical structures everywhere,
// which pCLOUDS's replication method relies on.
func BuildIntervals(schema *record.Schema, sample []record.Record, q int) []*histogram.Intervals {
	out := make([]*histogram.Intervals, schema.NumNumeric())
	vals := make([]float64, len(sample))
	for j := range out {
		for i, rec := range sample {
			vals[i] = rec.Num[j]
		}
		out[j] = histogram.FromSample(vals, q)
	}
	return out
}

// Point is one (value, class) observation: a point of an alive interval,
// or one row of a presorted column, where Row is the row's index in the
// presorted records (zero elsewhere; it adds no bytes to the struct).
type Point struct {
	V     float64
	Class int32
	Row   int32
}
