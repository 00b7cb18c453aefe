package pclouds

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
)

// aliveBatchPoints bounds how many alive points (global, summed over the
// nodes of a batch) one round of the exact search holds in memory across
// the group: a level whose alive intervals hold more is searched in
// consecutive sub-batches of whole nodes, each with its own collection
// scan and point exchange. The counts are exact and identical on every
// rank (they are in the alive descriptors), so all ranks cut the same
// batches. A variable only so that the sub-batching test can lower it.
var aliveBatchPoints int64 = 1 << 21

// assignIntervals maps each alive interval to one processor under the
// single-assignment approach, balancing the sorting cost n·log n with
// longest-processing-time-first over every interval it is given — a whole
// level's, so the load evens out across nodes as well as within them.
// Deterministic: ties break toward the lower rank and the earlier interval.
func assignIntervals(alive []levelAlive, p int) []int {
	idx := make([]int, len(alive))
	cost := make([]float64, len(alive))
	for i := range idx {
		idx[i] = i
		n := float64(alive[i].Count)
		cost[i] = n
		if n >= 2 {
			cost[i] = n * math.Log2(n)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] > cost[idx[b]] })
	load := make([]float64, p)
	owner := make([]int, len(alive))
	for _, i := range idx {
		best := 0
		for r := 1; r < p; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		owner[i] = best
		load[best] += cost[i]
	}
	return owner
}

// evaluateAlive runs the single-assignment exact search for every node of
// the level that has alive intervals: each interval is assigned to one
// processor; each rank gathers its local points of every alive interval as
// one value-sorted run and ships it to the interval's assignee in one
// all-to-all; assignees merge their intervals' runs and evaluate them, and
// a final min-combine over the per-node candidate vector yields every
// node's best split overall.
func (b *pbuilder) evaluateAlive(nodes []*levelNode) error {
	mine := make([]clouds.Candidate, len(nodes))
	for start := 0; start < len(nodes); {
		end, points := start, int64(0)
		for end < len(nodes) {
			var np int64
			for _, ai := range nodes[end].alive {
				np += ai.Count
			}
			if end > start && points+np > aliveBatchPoints {
				break
			}
			points += np
			end++
		}
		if err := b.aliveBatch(nodes[start:end], mine[start:end]); err != nil {
			return err
		}
		start = end
	}
	best, err := combineCandidates(b.c, mine)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		if !n.best.Better(best[i]) {
			n.best = best[i]
		}
	}
	return nil
}

// aliveBatch gathers, exchanges and searches the alive intervals of one
// batch of nodes; out[i] receives this rank's best exact candidate for
// batch[i].
func (b *pbuilder) aliveBatch(batch []*levelNode, out []clouds.Candidate) error {
	p, rank := b.c.Size(), b.c.Rank()
	var list []levelAlive
	for i, n := range batch {
		for _, ai := range n.alive {
			list = append(list, levelAlive{node: i, AliveInterval: ai})
		}
	}
	owner := assignIntervals(list, p)

	// This rank's points of every alive interval, as one value-sorted run
	// each. The statistics pass already counted them per interval, so every
	// slot is sized up front: a slot this rank will search itself gets room
	// for the interval's global count (the peers' runs are appended to it),
	// any other slot exactly the local points it will ship. A resident
	// node's run is a range of its sorted column, copied only when this
	// rank searches it; a streaming node's runs are collected in one pass
	// over its file and sorted. Every copied run and every collected slot
	// is carved from one scratch that every batch and level reuses.
	capacity := make([]int64, len(list))
	sendBytes := make([]int, p)
	var room int64
	for g, la := range list {
		n := batch[la.node]
		if owner[g] == rank {
			capacity[g] = la.Count
		} else {
			capacity[g] = gini.Sum(n.local.Numeric[la.AttrJ].Freq[la.Interval])
			sendBytes[owner[g]] += 8 + 12*int(capacity[g])
		}
		if owner[g] == rank || n.t.data == nil {
			room += capacity[g]
		}
	}
	if int64(cap(b.alivePts)) < room {
		b.alivePts = make([]clouds.Point, room)
	}
	free := b.alivePts[:room]

	pass := &scanPass{b: b}
	runs := make([][]clouds.Point, len(list))
	g := 0
	for _, n := range batch {
		first := g
		g += len(n.alive)
		if d := n.t.data; d != nil {
			for s, ai := range n.alive {
				nst := n.local.Numeric[ai.AttrJ]
				run := d.Range(ai.AttrJ, nst.Intervals, ai.Interval)
				if localN := gini.Sum(nst.Freq[ai.Interval]); int64(len(run)) != localN {
					pass.fail("", fmt.Errorf("pclouds: node %s: alive interval %d of attribute %d holds %d resident points, its statistics %d",
						n.t.id, ai.Interval, ai.AttrJ, len(run), localN))
				}
				if c := capacity[first+s]; owner[first+s] == rank {
					run = append(free[:0:c], run...)
					free = free[c:]
				}
				runs[first+s] = run
			}
			continue
		}
		col := clouds.NewAliveCollector(n.local.Intervals(), n.alive, capacity[first:g], free)
		free = free[gini.Sum(capacity[first:g]):]
		if !pass.scan(n.t.file, func(bt *clouds.Batch) error {
			col.AddBatch(bt)
			return nil
		}) {
			break
		}
		for s := range n.alive {
			runs[first+s] = col.Points(s)
			b.sorter.Sort(runs[first+s])
		}
	}
	if err := pass.finish(); err != nil {
		return err
	}

	// One all-to-all ships every run to its interval's assignee; the run
	// this rank keeps is never encoded. Send does not retain its data, so
	// the frames are carved from one scratch the builder reuses too.
	var frames int
	for _, n := range sendBytes {
		frames += n
	}
	if cap(b.sendBuf) < frames {
		b.sendBuf = make([]byte, frames)
	}
	parts, off := make([][]byte, p), 0
	for d := range parts {
		parts[d] = b.sendBuf[off : off : off+sendBytes[d]]
		off += sendBytes[d]
	}
	ends := make([][]int, len(list))
	for g, run := range runs {
		if d := owner[g]; d == rank {
			ends[g] = append(make([]int, 0, p), len(run))
		} else if len(run) > 0 {
			parts[d] = appendPointBucket(parts[d], g, run)
			b.stats.RecordsShipped += int64(len(run))
		}
	}
	recv, err := comm.AllToAll(b.c, parts)
	if err != nil {
		return err
	}
	for src, raw := range recv {
		if src == rank {
			continue
		}
		if err := decodePointBuckets(raw, runs, owner, rank, b.schema.NumClasses); err != nil {
			return err
		}
		// Each peer's bucket is one more sorted run of the slot (an empty
		// one where the peer sent nothing).
		for g := range runs {
			if owner[g] == rank {
				ends[g] = append(ends[g], len(runs[g]))
			}
		}
	}

	// Exact evaluation of owned intervals over their merged runs.
	numIdx := b.schema.NumericIndices()
	for g, la := range list {
		if owner[g] != rank {
			continue
		}
		// Ordering and scanning the interval costs ~2 touches per point.
		b.chargeCPU(2 * int64(len(runs[g])))
		pts := b.sorter.Merge(runs[g], ends[g])
		cand := clouds.EvaluateSorted(numIdx[la.AttrJ], la.LeftBefore, batch[la.node].t.classCounts, pts)
		if cand.Better(out[la.node]) {
			out[la.node] = cand
		}
	}
	return nil
}

// appendPointBucket frames one bucket as
// [u32 aliveIdx][u32 n][n × (f64 value, u32 class)].
func appendPointBucket(dst []byte, idx int, pts []clouds.Point) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pts)))
	for _, pt := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pt.V))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pt.Class))
	}
	return dst
}

// decodePointBuckets appends a peer's buckets to the slots of into that this
// rank owns. A frame holds non-empty buckets in ascending slot order, each
// slot at most once; a bucket for a slot this rank does not own, or a point
// whose class is not in [0, classes), is an error.
func decodePointBuckets(src []byte, into [][]clouds.Point, owner []int, rank, classes int) error {
	r := &frameReader{buf: src}
	prev := -1
	for r.more() {
		idx := int(r.u32())
		n := r.count(12)
		if r.err != nil {
			return fmt.Errorf("pclouds: point buckets: %w", r.err)
		}
		if n == 0 || idx <= prev {
			return fmt.Errorf("pclouds: point bucket %d (%d points) after bucket %d", idx, n, prev)
		}
		prev = idx
		if idx >= len(into) || owner[idx] != rank {
			return fmt.Errorf("pclouds: point bucket for alive interval %d, which rank %d does not own", idx, rank)
		}
		for k := 0; k < n; k++ {
			v, class := math.Float64frombits(r.u64()), r.u32()
			if class >= uint32(classes) {
				return fmt.Errorf("pclouds: point bucket %d holds class %d of %d", idx, class, classes)
			}
			into[idx] = append(into[idx], clouds.Point{V: v, Class: int32(class)})
		}
	}
	return nil
}
