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
// sorted columns, routed by one batched leaf walk). Everything here is a
// deterministic function of replicated state, so all ranks build identical
// shapes — the precondition for the flat sketch all-reduce. The leaves,
// their statistics, their interval structures and the vector are reused
// from window to window.
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
	e.flat.LeafBatch(e.reservoir, leafOf)
	for k, l := range leafOf {
		leafOf[k] = e.frontierOf[l]
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
// window's admission is O(n) per column (admit): only the window's new
// points are sorted, and one pass drops the evicted rows, shifts the rest
// down and merges the new points in. The columns are built by one full
// sort the first time a frontier needs them — after a fresh start or a
// resume — and kept in step from then on.
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
		for k := range fresh {
			fresh[k] = clouds.Point{V: rows[first+k].Num[j], Row: int32(first + k)}
		}
		numbers := sortFresh(fresh)
		merged := resized(s.spare, len(rows))
		mergeAdmitted(merged, col, int32(over), fresh, numbers)
		s.cols[j], s.spare = merged, col
	}
}

// sortFresh sorts a window's new points by value, NaN last, and returns
// how many are not NaN. A window adds a few hundred points at most, which
// an insertion sort on the values orders faster than a general sort; a
// larger admission goes to clouds.SortPoints.
func sortFresh(pts []clouds.Point) int {
	n := len(pts)
	for i := 0; i < n; {
		if pts[i].V != pts[i].V {
			n--
			pts[i], pts[n] = pts[n], pts[i]
		} else {
			i++
		}
	}
	if n > insertionMax {
		clouds.SortPoints(pts[:n])
		return n
	}
	for i := 1; i < n; i++ {
		pt := pts[i]
		k := i
		for ; k > 0 && pt.V < pts[k-1].V; k-- {
			pts[k] = pts[k-1]
		}
		pts[k] = pt
	}
	return n
}

// insertionMax is the most new points sortFresh orders by insertion.
const insertionMax = 256

// mergeAdmitted writes into dst, in one pass, the kept column col without
// its rows below over (the evicted ones), each remaining Row shifted down
// by over, merged with fresh, sorted with its first numbers points not
// NaN: the order clouds.MergePoints gives, by value with -0 tied with +0
// and NaN last, the kept point first on a tie, compared on the values
// themselves.
func mergeAdmitted(dst, col []clouds.Point, over int32, fresh []clouds.Point, numbers int) {
	d, f := 0, 0
	for _, pt := range col {
		if pt.Row < over {
			continue
		}
		pt.Row -= over
		if pt.V == pt.V {
			for f < numbers && fresh[f].V < pt.V {
				dst[d] = fresh[f]
				d, f = d+1, f+1
			}
		} else {
			// The kept NaNs close the column: every new number goes first.
			d += copy(dst[d:], fresh[f:numbers])
			f = numbers
		}
		dst[d] = pt
		d++
	}
	copy(dst[d:], fresh[f:])
}

// cutScratch holds the frontier cut construction's buffers between
// windows: each reservoir row's leaf, frontierIntervals' own, and the
// interval structures it builds, each leaf and attribute's cuts kept in
// its own stretch of store.
type cutScratch struct {
	leafOf             []int32
	all, shares        []float64
	start, next        []int
	grid, share, store []float64
	kept               []histogram.Intervals
	ivs                []*histogram.Intervals
}

// frontierIntervals returns the interval structures each of nLeaves
// frontier leaves counts its sketch over, leaf l's numeric attributes at
// [l*k, (l+1)*k) for the k sorted columns cols: the q-bin quantile cuts of
// the rows routed to the leaf (leafOf[i] is row i's leaf) merged with the
// q-bin cuts of all rows, the grid. One pass over each column, sorted by
// value with NaN last and Row naming the row, scatters it into the leaves'
// shares, so every share arrives sorted and its cuts come from
// histogram.AppendQuantiles. The cuts are those of histogram.FromSample
// over each share: both drop NaN, and the quantiles store zero as +0, so
// the order of tied values, the only thing two sorts can disagree on,
// reaches no cut. Each structure equals
// histogram.Merge(histogram.FromSorted(share, q), grid), built into the
// scratch's kept storage: the structures and their cuts are the scratch's,
// valid until the next call.
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

	// A structure's merged cuts are at most q-1 from each side, and an
	// indexed one writes its sentinel past them.
	stride := 2*max(q, 1) - 1
	s.store = resized(s.store, nLeaves*nNum*stride)
	s.kept = resized(s.kept, nLeaves*nNum)
	s.ivs = resized(s.ivs, nLeaves*nNum)
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
		s.grid = histogram.AppendQuantiles(s.grid[:0], all[:m], q)
		for l := range nLeaves {
			s.share = histogram.AppendQuantiles(s.share[:0], shares[start[l]:next[l]], q)
			i := l*nNum + j
			s.kept[i].Reset(histogram.AppendMerged(s.store[i*stride:i*stride:(i+1)*stride], s.share, s.grid))
			s.ivs[i] = &s.kept[i]
		}
	}
	return s.ivs
}
