package clouds

import (
	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
)

// AliveCollector is the alive-interval collection kernel shared by the
// in-core, out-of-core and parallel builders: one pass over a node's
// records gathers the (value, class) points of every alive interval into
// per-interval slots. A dense [attribute][interval] → slot table replaces a
// keyed lookup, attributes without an alive interval are never located, and
// all slots are carved from one buffer sized up front — the per-interval
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

// Add routes one record's numeric values into the alive slots they hit.
func (c *AliveCollector) Add(rec *record.Record) {
	for a := range c.attrs {
		at := &c.attrs[a]
		v := rec.Num[at.j]
		if s := at.slot[at.iv.Locate(v)]; s >= 0 {
			c.slots[s] = append(c.slots[s], Point{V: v, Class: rec.Class})
		}
	}
}

// AddBatch routes a batch's rows into the alive slots they hit, one
// located column at a time; the points reach each slot in the order Add
// would append them row by row.
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

// refineAlive is the SSE half of large-node splitting, shared by the in-core
// and the streaming builder: prune with the gini lower bound, collect the
// surviving intervals' points in one more pass over the node's records
// (collect feeds every record to the collector it is given), and search
// those intervals exactly. best is the boundary pass's candidate
// (gini_min).
func (b *builder) refineAlive(ns *NodeStats, best Candidate, n int64, collect func(*AliveCollector) error) (Candidate, error) {
	giniMin := best.Gini
	if !best.Valid {
		giniMin = gini.Index(ns.Class) // any improvement counts
	}
	alive := DetermineAlive(ns, giniMin)
	b.stats.BoundaryEvaluated += n
	b.stats.AlivePoints += alive.Points
	b.stats.AliveIntervals += alive.NumAlive()
	if alive.Points > b.stats.MaxAlivePoints {
		b.stats.MaxAlivePoints = alive.Points
	}
	if alive.NumAlive() == 0 {
		return best, nil
	}
	intervals := make([]*histogram.Intervals, len(ns.Numeric))
	for j, nst := range ns.Numeric {
		intervals[j] = nst.Intervals
	}
	capacity := make([]int64, len(alive.List))
	for s, ai := range alive.List {
		capacity[s] = ai.Count
	}
	col := NewAliveCollector(intervals, alive.List, capacity)
	if err := collect(col); err != nil {
		return Candidate{}, err
	}
	b.stats.RecordReads += n
	for s, ai := range alive.List {
		cand := EvaluateInterval(ns.Numeric[ai.AttrJ].Attr, ai.LeftBefore, ns.Class, col.Points(s))
		if cand.Better(best) {
			best = cand
		}
	}
	return best, nil
}
