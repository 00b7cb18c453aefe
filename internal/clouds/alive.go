package clouds

import (
	"pclouds/internal/gini"
	"pclouds/internal/histogram"
)

// AliveCollector is the alive-interval collection kernel of streamed nodes,
// shared by the out-of-core and parallel builders: one pass over a node's
// file gathers the (value, class) points of every alive interval into
// per-interval slots. An in-memory node needs no pass: its alive points are
// ranges of its sorted columns (Presorted.Range). A dense
// [attribute][interval] → slot table replaces a keyed lookup, attributes
// without an alive interval are never located, and all slots are carved
// from one buffer sized up front — the per-interval frequencies of the
// statistics pass already say how many points each slot will receive.
type AliveCollector struct {
	attrs []aliveAttr
	slots [][]Point
}

// aliveAttr is one numeric attribute with at least one alive interval.
type aliveAttr struct {
	j    int // numeric index (position in Record.Num)
	iv   *histogram.Intervals
	slot []int32 // interval → slot, -1 when the interval is not alive
}

// NewAliveCollector prepares collection for the given alive intervals of a
// node whose interval structures are intervals (one per numeric attribute).
// Slot s collects alive[s]; capacity[s] is the room reserved for it — the
// number of points the caller expects the pass to add, plus whatever it
// means to append itself afterwards. A slot that outgrows its room
// reallocates on its own, never into a neighbour.
func NewAliveCollector(intervals []*histogram.Intervals, alive []AliveInterval, capacity []int64) *AliveCollector {
	c := &AliveCollector{slots: make([][]Point, len(alive))}
	byAttr := make([]int, len(intervals))
	for j := range byAttr {
		byAttr[j] = -1
	}
	var total int64
	for s, ai := range alive {
		if byAttr[ai.AttrJ] < 0 {
			byAttr[ai.AttrJ] = len(c.attrs)
			slot := make([]int32, intervals[ai.AttrJ].NumIntervals())
			for i := range slot {
				slot[i] = -1
			}
			c.attrs = append(c.attrs, aliveAttr{j: ai.AttrJ, iv: intervals[ai.AttrJ], slot: slot})
		}
		c.attrs[byAttr[ai.AttrJ]].slot[ai.Interval] = int32(s)
		total += capacity[s]
	}
	buf := make([]Point, total)
	for s := range alive {
		n := capacity[s]
		c.slots[s], buf = buf[:0:n], buf[n:]
	}
	return c
}

// AddBatch routes a batch's rows into the alive slots they hit, one
// located column at a time; the points reach each slot in row order.
func (c *AliveCollector) AddBatch(b *Batch) {
	locs := scratch(&b.locs, b.Len())
	for a := range c.attrs {
		at := &c.attrs[a]
		col := b.Num[at.j]
		at.iv.LocateBatch(col, locs)
		for i, l := range locs {
			if s := at.slot[l]; s >= 0 {
				c.slots[s] = append(c.slots[s], Point{V: col[i], Class: b.Class[i]})
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
