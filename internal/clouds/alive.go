package clouds

import (
	"math"

	"pclouds/internal/gini"
	"pclouds/internal/histogram"
)

// AliveCollector is the alive-interval collection kernel of streamed nodes,
// shared by the out-of-core and parallel builders: one pass over a node's
// file gathers the (value, class) points of every alive interval into
// per-interval slots. An in-memory node needs no pass: its alive points are
// ranges of its sorted columns (Presorted.Range). A dense
// [attribute][interval] → slot table replaces a keyed lookup, attributes
// without an alive interval are never decoded or located, a value outside
// its attribute's alive span is never located either, and all slots are
// carved from the caller's room, sized up front — the per-interval
// frequencies of the statistics pass already say how many points each slot
// will receive.
type AliveCollector struct {
	attrs []aliveAttr
	slots [][]Point
}

// aliveAttr is one numeric attribute with at least one alive interval.
type aliveAttr struct {
	j    int // numeric index (position in Record.Num)
	iv   *histogram.Intervals
	slot []int32 // interval → slot, -1 when the interval is not alive
	// first and last are the lowest and highest alive intervals, lo and
	// hi the cuts that bound them (±Inf at the ends): the alive span is
	// (lo, hi] and its edge values.
	first, last int
	lo, hi      float64
}

// NewAliveCollector prepares collection for the given alive intervals of a
// node whose interval structures are intervals (one per numeric attribute).
// Slot s collects alive[s]; capacity[s] is the room reserved for it — the
// number of points the caller expects the pass to add, plus whatever it
// means to append itself afterwards. The slots are carved from room in
// order, so room must hold the sum of capacity; a slot that outgrows its
// room reallocates on its own, never into a neighbour.
func NewAliveCollector(intervals []*histogram.Intervals, alive []AliveInterval, capacity []int64, room []Point) *AliveCollector {
	c := &AliveCollector{slots: make([][]Point, len(alive))}
	byAttr := make([]int, len(intervals))
	for j := range byAttr {
		byAttr[j] = -1
	}
	for s, ai := range alive {
		if byAttr[ai.AttrJ] < 0 {
			byAttr[ai.AttrJ] = len(c.attrs)
			iv := intervals[ai.AttrJ]
			slot := make([]int32, iv.NumIntervals())
			for i := range slot {
				slot[i] = -1
			}
			c.attrs = append(c.attrs, aliveAttr{j: ai.AttrJ, iv: iv, slot: slot, first: ai.Interval, last: ai.Interval})
		}
		at := &c.attrs[byAttr[ai.AttrJ]]
		at.slot[ai.Interval] = int32(s)
		at.first, at.last = min(at.first, ai.Interval), max(at.last, ai.Interval)
		n := capacity[s]
		c.slots[s], room = room[:0:n], room[n:]
	}
	for a := range c.attrs {
		at := &c.attrs[a]
		cuts := at.iv.Cuts
		at.lo, at.hi = math.Inf(-1), math.Inf(1)
		if at.first > 0 {
			at.lo = cuts[at.first-1]
		}
		if at.last < len(cuts) {
			at.hi = cuts[at.last]
		}
	}
	return c
}

// edge reports whether v, outside (lo, hi], still lies in the attribute's
// alive span under Locate's rules: −Inf when the span starts at interval
// 0, NaN when it ends at the last interval.
func (at *aliveAttr) edge(v float64) bool {
	return at.first == 0 && math.IsInf(v, -1) || at.last == len(at.iv.Cuts) && math.IsNaN(v)
}

// AddBatch routes a batch's rows into the alive slots they hit, one
// column at a time: only values inside the attribute's alive span are
// located. The points reach each slot in row order.
func (c *AliveCollector) AddBatch(b *Batch) {
	cls := b.Classes()
	for a := range c.attrs {
		at := &c.attrs[a]
		lo, hi := at.lo, at.hi
		for i, v := range b.num(at.j) {
			if !(v > lo && v <= hi) && !at.edge(v) {
				continue
			}
			if s := at.slot[at.iv.Locate(v)]; s >= 0 {
				c.slots[s] = append(c.slots[s], Point{V: v, Class: cls[i]})
			}
		}
	}
}

// Points returns slot s's points in collection order. The slice may have
// spare capacity (see NewAliveCollector); appending to it is safe.
func (c *AliveCollector) Points(s int) []Point { return c.slots[s] }

// splitLarge picks a large node's split from its statistics ns under
// cfg.Split: the best fixed-bin boundary (hist), the best of the top-k
// attributes a single rank nominates (vote), or the SS boundary best that
// SSE refines — prune with the gini lower bound, then search the surviving
// intervals exactly. alivePoints returns, for each alive interval, the
// node's points in it in value order (SortPoints order): column ranges for
// an in-memory node, one collecting pass for a streamed one. It is called
// only when an interval survives.
func (b *builder) splitLarge(ns *NodeStats, alivePoints func([]AliveInterval) ([][]Point, error)) (Candidate, error) {
	b.stats.LargeNodes++
	switch b.cfg.Split {
	case SplitHist:
		return BestBoundarySplit(ns), nil
	case SplitVote:
		// One builder is a single-rank vote: it nominates its top-k
		// attributes, all of them win the election, and the best elected
		// candidate — the global best attribute's — is chosen.
		cands := AttributeBest(ns)
		return BestOfAttrs(cands, TopKAttrs(cands, b.cfg.VoteTopK)), nil
	}
	// An empty sample partition degenerates to a single interval per
	// attribute; the SSE alive search then covers the whole range. The
	// parallel build behaves identically, keeping the two deterministic.
	best := BestBoundarySplit(ns)
	if b.cfg.Method == SS {
		return best, nil
	}
	giniMin := best.Gini
	if !best.Valid {
		giniMin = gini.Index(ns.Class) // any improvement counts
	}
	alive := DetermineAlive(ns, giniMin)
	b.stats.BoundaryEvaluated += ns.N
	b.stats.AlivePoints += alive.Points
	b.stats.AliveIntervals += alive.NumAlive()
	b.stats.MaxAlivePoints = max(b.stats.MaxAlivePoints, alive.Points)
	if alive.NumAlive() == 0 {
		return best, nil
	}
	runs, err := alivePoints(alive.List)
	if err != nil {
		return Candidate{}, err
	}
	b.stats.RecordReads += ns.N
	for s, ai := range alive.List {
		if cand := EvaluateSorted(ns.Numeric[ai.AttrJ].Attr, ai.LeftBefore, ns.Class, runs[s]); cand.Better(best) {
			best = cand
		}
	}
	return best, nil
}
