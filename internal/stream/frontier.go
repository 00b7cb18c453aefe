package stream

import (
	"slices"

	"pclouds/internal/clouds"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// frontierLeaf is one growable leaf of the current tree plus the window's
// sketch accumulating over it. The sketch's counters are carved from the
// engine's sketch vector, starting at off.
type frontierLeaf struct {
	node  *tree.Node
	depth int
	off   int
	stats clouds.NodeStats
}

// buildFrontier enumerates the tree's leaves in preorder and carves a
// window sketch per leaf from the one sketch vector the engine keeps, in
// Flatten order, so the vector is the sketch all-reduce's payload as it
// stands. Each leaf's bin edges are its reservoir share's quantile cuts
// merged (histogram.Merge) with the global attribute grid, so a leaf whose
// reservoir share is tiny still has candidate boundaries; a leaf's share is
// the reservoir records routed to it (frontierIntervals, over the kept
// sorted columns). Everything here is a deterministic function of
// replicated state, so all ranks build identical shapes — the precondition
// for the flat sketch all-reduce. The leaves, their statistics and the
// vector are reused from window to window.
func (e *engine) buildFrontier() {
	if e.flat == nil {
		e.flat = tree.Compile(e.tree)
	}
	schema := e.cfg.Schema
	nNum := schema.NumNumeric()
	if !e.cols.valid {
		e.cols.rebuild(e.reservoir, nNum)
	}
	e.frontierOf = resized(e.frontierOf, e.flat.NumNodes())
	all := e.frontier[:cap(e.frontier)]
	leaves, i := 0, 0 // i is the preorder index Walk is at, the compiled node index
	e.tree.Walk(func(n *tree.Node, depth int) {
		if n.IsLeaf() {
			e.frontierOf[i] = int32(leaves)
			if leaves == len(all) {
				all = append(all, frontierLeaf{})
			}
			all[leaves].node, all[leaves].depth = n, depth
			leaves++
		}
		i++
	})
	e.frontier = all[:leaves]
	leafOf := resized(e.cuts.leafOf, len(e.reservoir))
	for k, r := range e.reservoir {
		leafOf[k] = int32(e.route(r))
	}
	e.cuts.leafOf = leafOf
	ivs := frontierIntervals(e.cols.cols, leafOf, leaves, e.cfg.Clouds.HistBins, &e.cuts)
	size := 0
	for l := range leaves {
		size += clouds.StatsFlatLen(schema, ivs[l*nNum:(l+1)*nNum])
	}
	e.sketch = resized(e.sketch, size)
	room := e.sketch
	for l := range e.frontier {
		fl := &e.frontier[l]
		fl.off = size - len(room)
		room = fl.stats.Carve(schema, ivs[l*nNum:(l+1)*nNum], room)
	}
}

// resized returns buf at length n, reusing its array when it is large
// enough; the contents are not cleared.
func resized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// sortedColumns keeps each numeric attribute's reservoir column sorted by
// value, NaN last, as clouds.Points whose Row is the record's reservoir
// position, so a window's frontier reads its cuts without sorting. A
// window's admission is O(n) per column (admit): the evicted rows drop out
// and the rest shift down, and only the window's new points are sorted
// before they are merged in. The columns are built by one full sort the
// first time a frontier needs them — after a fresh start or a resume — and
// kept in step from then on.
type sortedColumns struct {
	valid bool
	cols  [][]clouds.Point
	// spare is the merge target, swapped with the column it replaced;
	// added holds a window's new points.
	spare, added []clouds.Point
}

// rebuild sorts every column of rows from scratch.
func (s *sortedColumns) rebuild(rows []record.Record, nNum int) {
	s.cols = resized(s.cols, nNum)
	for j := range s.cols {
		col := resized(s.cols[j], len(rows))
		for i, r := range rows {
			col[i] = clouds.Point{V: r.Num[j], Row: int32(i)}
		}
		clouds.SortPoints(col)
		s.cols[j] = col
	}
	s.valid = true
}

// admit brings the columns in step with rows after a window's admission:
// the first over rows the columns held were evicted, and the last added
// rows of rows are new. Columns not yet built stay unbuilt.
func (s *sortedColumns) admit(rows []record.Record, over, added int) {
	if !s.valid {
		return
	}
	first := len(rows) - added
	fresh := resized(s.added, added)
	s.added = fresh
	for j, col := range s.cols {
		kept := col[:0]
		for _, pt := range col {
			if pt.Row >= int32(over) {
				pt.Row -= int32(over)
				kept = append(kept, pt)
			}
		}
		for k := range fresh {
			fresh[k] = clouds.Point{V: rows[first+k].Num[j], Row: int32(first + k)}
		}
		clouds.SortPoints(fresh)
		merged := resized(s.spare, len(rows))
		clouds.MergePoints(merged, kept, fresh)
		s.cols[j], s.spare = merged, col
	}
}

// cutScratch holds the frontier cut construction's buffers between
// windows: each reservoir row's leaf, and frontierIntervals' own.
type cutScratch struct {
	leafOf      []int32
	all, shares []float64
	start, next []int
}

// frontierIntervals returns the interval structures each of nLeaves
// frontier leaves counts its sketch over, leaf l's numeric attributes at
// [l*k, (l+1)*k) for the k sorted columns cols: the q-bin quantile cuts of
// the rows routed to the leaf (leafOf[i] is row i's leaf) merged with the
// q-bin cuts of all rows, the grid. One pass over each column, sorted by
// value with NaN last and Row naming the row, scatters it into the leaves'
// shares, so every share arrives sorted and the cuts come from
// histogram.FromSorted. The cuts are those of histogram.FromSample over
// each share: both drop NaN, and FromSorted stores zero as +0, so the
// order of tied values, the only thing two sorts can disagree on, reaches
// no cut.
func frontierIntervals(cols [][]clouds.Point, leafOf []int32, nLeaves, q int, s *cutScratch) []*histogram.Intervals {
	n, nNum := len(leafOf), len(cols)
	// Leaf l's share is shares[start[l]:start[l+1]], filled up to next[l].
	start := resized(s.start, nLeaves+1)
	clear(start)
	for _, l := range leafOf {
		start[l+1]++
	}
	for l := range nLeaves {
		start[l+1] += start[l]
	}
	next := resized(s.next, nLeaves)
	all := resized(s.all, n)
	shares := resized(s.shares, n)
	s.start, s.next, s.all, s.shares = start, next, all, shares

	out := make([]*histogram.Intervals, nLeaves*nNum)
	for j, col := range cols {
		copy(next, start)
		m := 0
		for _, pt := range col {
			if pt.V != pt.V {
				break // NaN sorts last: the rest are NaN too
			}
			all[m] = pt.V
			m++
			l := leafOf[pt.Row]
			shares[next[l]] = pt.V
			next[l]++
		}
		grid := histogram.FromSorted(all[:m], q)
		for l := range nLeaves {
			out[l*nNum+j] = histogram.Merge(histogram.FromSorted(shares[start[l]:next[l]], q), grid)
		}
	}
	return out
}
