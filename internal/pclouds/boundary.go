package pclouds

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
)

// This file is the boundary phase of the paper's exact (SSE) protocol for a
// whole frontier level (Section 5.1.1): the level's interval statistics are
// combined under the configured replication scheme, every boundary is
// evaluated by the rank holding its global statistics, and — for the SSE
// method — the alive intervals are determined and made known to all ranks.
//
// Full replication combines every statistic on every rank with one
// all-reduce; every rank then evaluates every node identically and no
// further exchange is needed. The other three schemes give every
// (attribute, interval) pair one owner (mapping.go): one all-to-all
// reduce-scatters the level's statistics to their owners, one prefix sum
// (block mappings only) yields the class counts below each owned run, one
// vector-of-candidates combine yields every node's gini_min, and one
// all-gather broadcasts the owners' alive-interval descriptors.

// ownedRun is the contiguous run of one numeric attribute's intervals this
// rank owns at one node, with globally combined statistics.
type ownedRun struct {
	j, first int
	rows     [][]int64 // rows[k] is the class vector of interval first+k
	before   []int64   // class counts of every interval below the run
}

// ownedCat is one categorical attribute this rank owns at one node.
type ownedCat struct {
	j  int
	cm *gini.CountMatrix
}

// levelAlive is one alive interval of the level: node indexes the level's
// node list.
type levelAlive struct {
	node int
	clouds.AliveInterval
}

func (b *pbuilder) boundarySplits(nodes []*levelNode) error {
	switch b.cfg.Boundary {
	case FullReplication:
		return b.boundaryFullReplication(nodes)
	case AttributeBased, IntervalBased, Hybrid:
		return b.boundaryOwned(nodes)
	default:
		return fmt.Errorf("pclouds: unknown boundary method %d", b.cfg.Boundary)
	}
}

// giniMinOf is the pruning threshold of the SSE method: the best boundary
// gini, or the node's own impurity when no boundary split is valid (any
// improvement counts).
func giniMinOf(best clouds.Candidate, total []int64) float64 {
	if best.Valid {
		return best.Gini
	}
	return gini.Index(total)
}

// reduceLevelStats combines every node's full statistics on every rank with
// one all-reduce over the concatenated Flatten vectors and returns the
// global statistics, node by node.
func (b *pbuilder) reduceLevelStats(nodes []*levelNode, op func(a, b int64) int64) ([]*clouds.NodeStats, error) {
	size := 0
	for _, n := range nodes {
		size += n.local.FlatLen()
	}
	flat := make([]int64, 0, size)
	for _, n := range nodes {
		flat = n.local.AppendFlatten(flat)
	}
	flat, err := comm.AllReduceInt64(b.c, flat, op)
	if err != nil {
		return nil, err
	}
	global := make([]*clouds.NodeStats, len(nodes))
	for i, n := range nodes {
		global[i] = clouds.NewNodeStats(b.schema, n.local.Intervals())
		if err := global[i].Unflatten(flat[:global[i].FlatLen()]); err != nil {
			return nil, err
		}
		flat = flat[global[i].FlatLen():]
	}
	return global, nil
}

// boundaryFullReplication combines every statistic of the level on every
// rank with one all-reduce; each rank then evaluates all boundaries and
// determines the alive sets identically.
func (b *pbuilder) boundaryFullReplication(nodes []*levelNode) error {
	global, err := b.reduceLevelStats(nodes, addI64)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		n.best = clouds.BestBoundarySplit(global[i])
		if b.cfg.Clouds.Method != clouds.SS {
			n.alive = clouds.DetermineAlive(global[i], giniMinOf(n.best, global[i].Class)).List
		}
	}
	return nil
}

// boundaryOwned runs the boundary phase under an owner mapping.
func (b *pbuilder) boundaryOwned(nodes []*levelNode) error {
	p, rank, c := b.c.Size(), b.c.Rank(), b.schema.NumClasses
	maps := make([]ownerMapping, len(nodes))
	for i, n := range nodes {
		maps[i] = newOwnerMapping(b.cfg.Boundary, intervalCounts(n.local), len(n.local.Cat), p)
	}

	// 1. Reduce-scatter the level's statistics to their owners with one
	// all-to-all. Shapes are identical on every rank, so the payload for
	// destination d is a bare int64 vector: node by node, the frequency rows
	// of the intervals d owns, then the count matrices of the categorical
	// attributes d owns.
	sizes := make([]int, p)
	for i, n := range nodes {
		for _, owners := range maps[i].numeric {
			for _, d := range owners {
				sizes[d] += c
			}
		}
		for j, cm := range n.local.Cat {
			sizes[maps[i].cat[j]] += cm.Cardinality() * c
		}
	}
	vecs := make([][]int64, p)
	for d := range vecs {
		vecs[d] = make([]int64, 0, sizes[d])
	}
	for i, n := range nodes {
		for j, nst := range n.local.Numeric {
			for iv, d := range maps[i].numeric[j] {
				vecs[d] = append(vecs[d], nst.Freq[iv]...)
			}
		}
		for j, cm := range n.local.Cat {
			d := maps[i].cat[j]
			for _, row := range cm.Counts {
				vecs[d] = append(vecs[d], row...)
			}
		}
	}
	parts := make([][]byte, p)
	for d := range parts {
		if d != rank {
			parts[d] = comm.Int64sToBytes(vecs[d])
		}
	}
	recv, err := comm.AllToAll(b.c, parts)
	if err != nil {
		return err
	}
	owned := vecs[rank]
	for src, raw := range recv {
		if src == rank {
			continue
		}
		if len(raw) != 8*len(owned) {
			return fmt.Errorf("pclouds: rank %d sent %d bytes of owned statistics, want %d", src, len(raw), 8*len(owned))
		}
		for k := range owned {
			owned[k] += int64(binary.LittleEndian.Uint64(raw[8*k:]))
		}
	}

	// Carve the combined vector back into per-node runs and matrices.
	for i, n := range nodes {
		n.runs, n.cats = n.runs[:0], n.cats[:0]
		for j := range n.local.Numeric {
			first, count := maps[i].run(j, rank)
			if count == 0 {
				continue
			}
			rows := make([][]int64, count)
			for k := range rows {
				rows[k], owned = owned[:c:c], owned[c:]
			}
			n.runs = append(n.runs, ownedRun{j: j, first: first, rows: rows})
		}
		for j, cm := range n.local.Cat {
			if maps[i].cat[j] != rank {
				continue
			}
			size := cm.Cardinality() * c
			n.cats = append(n.cats, ownedCat{j: j, cm: gini.UnflattenCountMatrix(owned[:size], cm.Cardinality(), c)})
			owned = owned[size:]
		}
	}

	// 2. Class counts below each owned run. A rank that owns whole
	// attributes starts every run at zero; block mappings get the offsets
	// from one prefix sum over the ranks (the paper's prefix-sum primitive).
	if err := b.runOffsets(nodes); err != nil {
		return err
	}

	// 3. Every owner evaluates its boundaries locally; one global
	// min-combine over the per-node candidate vector yields each gini_min.
	mine := make([]clouds.Candidate, len(nodes))
	catIdx, numIdx := b.schema.CategoricalIndices(), b.schema.NumericIndices()
	for i, n := range nodes {
		total, nTotal := n.t.classCounts, n.t.n
		for _, r := range n.runs {
			cuts := n.local.Numeric[r.j].Intervals.Cuts
			if cand := clouds.BestBoundaryInRun(numIdx[r.j], cuts, r.first, r.rows, r.before, total, nTotal); cand.Better(mine[i]) {
				mine[i] = cand
			}
		}
		for _, oc := range n.cats {
			if cand := clouds.BestCategorical(oc.cm, catIdx[oc.j], total, nTotal); cand.Better(mine[i]) {
				mine[i] = cand
			}
		}
	}
	best, err := combineCandidates(b.c, mine)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		n.best = best[i]
	}
	if b.cfg.Clouds.Method == clouds.SS {
		return nil
	}

	// 4. Owners determine the alive intervals of their runs and the
	// statuses are broadcast to all processors (one all-gather).
	var mineAlive []levelAlive
	var buf []clouds.AliveInterval
	for i, n := range nodes {
		giniMin := giniMinOf(n.best, n.t.classCounts)
		buf = buf[:0]
		for _, r := range n.runs {
			buf = clouds.AppendAliveInRun(buf, r.j, r.first, r.rows, r.before, n.t.classCounts, giniMin)
		}
		for _, ai := range buf {
			mineAlive = append(mineAlive, levelAlive{node: i, AliveInterval: ai})
		}
	}
	gathered, err := comm.AllGather(b.c, encodeAliveList(mineAlive, c))
	if err != nil {
		return err
	}
	for _, raw := range gathered {
		list, err := decodeAliveList(raw, c, len(nodes))
		if err != nil {
			return err
		}
		for _, la := range list {
			numeric := nodes[la.node].local.Numeric
			if la.AttrJ >= len(numeric) || la.Interval >= len(numeric[la.AttrJ].Freq) {
				return fmt.Errorf("pclouds: alive descriptor names interval %d of numeric attribute %d, which node %d does not have",
					la.Interval, la.AttrJ, la.node)
			}
			nodes[la.node].alive = append(nodes[la.node].alive, la.AliveInterval)
		}
	}
	for _, n := range nodes {
		sortAlive(n.alive)
	}
	return nil
}

// runOffsets fills in ownedRun.before for every run of the level.
func (b *pbuilder) runOffsets(nodes []*levelNode) error {
	c := b.schema.NumClasses
	numN := b.schema.NumNumeric()
	if b.cfg.Boundary == AttributeBased {
		zero := make([]int64, c)
		for _, n := range nodes {
			for r := range n.runs {
				n.runs[r].before = zero
			}
		}
		return nil
	}
	sums := make([]int64, len(nodes)*numN*c)
	for i, n := range nodes {
		for _, r := range n.runs {
			acc := sums[(i*numN+r.j)*c:][:c]
			for _, row := range r.rows {
				gini.Add(acc, row)
			}
		}
	}
	inclusive, err := comm.PrefixSumInt64(b.c, sums)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		for r := range n.runs {
			at := (i*numN + n.runs[r].j) * c
			before := make([]int64, c)
			for k := range before {
				before[k] = inclusive[at+k] - sums[at+k]
			}
			n.runs[r].before = before
		}
	}
	return nil
}

// sortAlive orders alive intervals canonically by (attribute, interval) so
// the assignment is deterministic on every rank.
func sortAlive(list []clouds.AliveInterval) {
	slices.SortFunc(list, func(a, b clouds.AliveInterval) int {
		return cmp.Or(cmp.Compare(a.AttrJ, b.AttrJ), cmp.Compare(a.Interval, b.Interval))
	})
}

// combineCandidates finds, for every position of the vector, the globally
// best candidate under the deterministic total order. Better is a total
// order with a unique maximum, so the element-wise combine is associative
// and commutative and the reduction tree's shape cannot change the result.
func combineCandidates(c comm.Communicator, mine []clouds.Candidate) ([]clouds.Candidate, error) {
	res, err := comm.AllReduceBytes(c, encodeCandidates(mine), mergeCandidates)
	if err != nil {
		return nil, err
	}
	return decodeCandidates(res, len(mine))
}

// encodeCandidates frames a candidate vector as [u32 n] n × ([u32 len][candidate]).
func encodeCandidates(cands []clouds.Candidate) []byte {
	size := 4
	for _, cd := range cands {
		size += 4 + cd.EncodedLen()
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(cands)))
	for _, cd := range cands {
		out = binary.LittleEndian.AppendUint32(out, uint32(cd.EncodedLen()))
		out = cd.AppendEncode(out)
	}
	return out
}

// nextCandidate reads one framed element: the decoded candidate and its raw
// bytes.
func nextCandidate(r *frameReader) (clouds.Candidate, []byte, error) {
	raw := r.take(r.count(1))
	if r.err != nil {
		return clouds.Candidate{}, nil, fmt.Errorf("pclouds: candidate vector: %w", r.err)
	}
	cd, err := clouds.DecodeCandidate(raw)
	return cd, raw, err
}

func decodeCandidates(src []byte, want int) ([]clouds.Candidate, error) {
	r := &frameReader{buf: src}
	// Every element carries at least its length field.
	n := r.count(4)
	if r.err != nil || n != want {
		return nil, fmt.Errorf("pclouds: candidate vector of %d elements in %d bytes, want %d", n, len(src), want)
	}
	out := make([]clouds.Candidate, n)
	for i := range out {
		var err error
		if out[i], _, err = nextCandidate(r); err != nil {
			return nil, err
		}
	}
	if r.more() {
		return nil, fmt.Errorf("pclouds: candidate vector: %d trailing bytes", len(r.buf))
	}
	return out, nil
}

// mergeCandidates is the reduction operator: element by element, the better
// candidate's bytes survive.
func mergeCandidates(a, b []byte) ([]byte, error) {
	ra, rb := &frameReader{buf: a}, &frameReader{buf: b}
	n := ra.count(4)
	if m := rb.count(4); ra.err != nil || rb.err != nil || n != m {
		return nil, fmt.Errorf("pclouds: combining candidate vectors of %d and %d elements", n, m)
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, max(len(a), len(b))), uint32(n))
	for i := 0; i < n; i++ {
		ca, rawA, err := nextCandidate(ra)
		if err != nil {
			return nil, err
		}
		cb, rawB, err := nextCandidate(rb)
		if err != nil {
			return nil, err
		}
		win := rawA
		if cb.Better(ca) {
			win = rawB
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(win)))
		out = append(out, win...)
	}
	return out, nil
}

// encodeAliveList frames alive descriptors, which must be grouped by node,
// as [u32 groups] groups × ([u32 node][u32 n] n × ([u32 attr][u32 interval]
// [u64 count][classes × u64])).
func encodeAliveList(list []levelAlive, classes int) []byte {
	groups := 0
	for i, la := range list {
		if i == 0 || la.node != list[i-1].node {
			groups++
		}
	}
	out := make([]byte, 0, 4+8*groups+len(list)*(16+8*classes))
	out = binary.LittleEndian.AppendUint32(out, uint32(groups))
	for i, la := range list {
		if i == 0 || la.node != list[i-1].node {
			n := 1
			for i+n < len(list) && list[i+n].node == la.node {
				n++
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(la.node))
			out = binary.LittleEndian.AppendUint32(out, uint32(n))
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(la.AttrJ))
		out = binary.LittleEndian.AppendUint32(out, uint32(la.Interval))
		out = binary.LittleEndian.AppendUint64(out, uint64(la.Count))
		for k := 0; k < classes; k++ {
			out = binary.LittleEndian.AppendUint64(out, uint64(la.LeftBefore[k]))
		}
	}
	return out
}

// decodeAliveList reverses encodeAliveList; node indices must lie in
// [0, nodes) and ascend from group to group.
func decodeAliveList(src []byte, classes, nodes int) ([]levelAlive, error) {
	r := &frameReader{buf: src}
	per := 16 + 8*classes
	var out []levelAlive
	malformed := fmt.Errorf("pclouds: malformed alive list (%d bytes)", len(src))
	prev := -1
	for groups := r.count(8 + per); groups > 0; groups-- {
		node, n := int(r.u32()), r.count(per)
		if r.err != nil || n == 0 {
			return nil, malformed
		}
		// Groups arrive in node order, one per node.
		if node <= prev || node >= nodes {
			return nil, fmt.Errorf("pclouds: alive descriptors for node %d after node %d, of %d", node, prev, nodes)
		}
		prev = node
		counts := make([]int64, n*classes)
		for ; n > 0; n-- {
			la := levelAlive{node: node}
			la.AttrJ, la.Interval, la.Count = int(r.u32()), int(r.u32()), int64(r.u64())
			la.LeftBefore, counts = counts[:classes:classes], counts[classes:]
			for k := range la.LeftBefore {
				la.LeftBefore[k] = int64(r.u64())
			}
			out = append(out, la)
		}
	}
	if r.err != nil || r.more() {
		return nil, malformed
	}
	return out, nil
}
