package pclouds

// Communication-efficient split finding. The SSE protocol's traffic per
// node grows with the node's interval count and pays extra rounds for
// the alive-interval exact search (boundary.go). The two protocols here
// trade split exactness for constant, mergeable payloads:
//
//   - hist: every rank accumulates class frequencies over HistBins fixed
//     quantile bins per numeric attribute (built from the node's shared
//     sample, so all ranks agree on the bin edges), the histograms merge
//     associatively in a single all-reduce, and every rank evaluates the
//     merged boundaries identically. One collective per level; the split
//     threshold is quantized to a bin edge.
//
//   - vote: PV-Tree-style two-round attribute voting over the same bins.
//     Round 1: each rank nominates its VoteTopK locally best attributes
//     (a tiny all-gather) and a deterministic majority election picks up
//     to 2*VoteTopK candidates. Round 2: full bin statistics are
//     all-reduced for the elected attributes only, and the exact (within
//     bin resolution) winner over the elected set is chosen. Attributes
//     that look poor on every rank never cross the wire.
//
// Both run over a whole frontier level at once (level.go): the per-node
// histograms and ballots are concatenated, so hist costs one all-reduce per
// level and vote one all-gather plus one all-reduce.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/histogram"
)

// splitsHist merges every rank's fixed-bin histograms of the level in one
// all-reduce and evaluates the merged boundaries identically on every rank.
func (b *pbuilder) splitsHist(nodes []*levelNode) error {
	// histogram.MergeCount is the shared associative histogram combine; the
	// streaming frontier (internal/stream) merges its window sketches with
	// the exact same op, so both layers inherit the same order-independence.
	global, err := b.reduceLevelStats(nodes, histogram.MergeCount)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		n.best = clouds.BestBoundarySplit(global[i])
	}
	return nil
}

// splitsVote runs the two voting rounds for the level. Every step after the
// all-gather is a deterministic function of identical inputs, so all ranks
// elect the same attributes and derive the same candidates.
func (b *pbuilder) splitsVote(nodes []*levelNode) error {
	// Round 1: nominate this rank's locally best attributes per node and
	// elect.
	ballots := make([][]int, len(nodes))
	for i, n := range nodes {
		ballots[i] = clouds.TopKAttrs(clouds.AttributeBest(n.local), b.cfg.Clouds.VoteTopK)
	}
	gathered, err := comm.AllGather(b.c, encodeVotes(ballots))
	if err != nil {
		return err
	}
	votes := make([][][]int, len(nodes)) // node -> rank -> nominated attributes
	for _, raw := range gathered {
		theirs, err := decodeVotes(raw, len(nodes))
		if err != nil {
			return err
		}
		for i := range nodes {
			votes[i] = append(votes[i], theirs[i])
		}
	}

	// Round 2: merge full bin statistics for the elected attributes only. A
	// node where no rank found any valid local split elects nothing, ships
	// nothing and becomes a leaf.
	elected := make([][]int, len(nodes))
	var flat []int64
	for i, n := range nodes {
		elected[i] = electAttrs(votes[i], 2*b.cfg.Clouds.VoteTopK)
		part, err := n.local.FlattenAttrs(elected[i])
		if err != nil {
			return err
		}
		flat = append(flat, part...)
	}
	if len(flat) == 0 {
		return nil
	}
	flat, err = comm.AllReduceInt64(b.c, flat, histogram.MergeCount)
	if err != nil {
		return err
	}
	for i, n := range nodes {
		if len(elected[i]) == 0 {
			continue
		}
		global := clouds.NewNodeStats(b.schema, n.local.Intervals())
		global.N = n.t.n
		copy(global.Class, n.t.classCounts)
		size := global.AttrFlatLen(elected[i])
		if err := global.UnflattenAttrs(elected[i], flat[:size]); err != nil {
			return err
		}
		flat = flat[size:]
		n.best = clouds.BestOfAttrs(clouds.AttributeBest(global), elected[i])
	}
	return nil
}

// electAttrs tallies every rank's nominations and elects up to electCount
// attributes: most votes first, lower attribute id breaking ties — a
// deterministic election every rank computes identically from the gathered
// ballots. The result is sorted ascending, the canonical layout order
// FlattenAttrs requires.
func electAttrs(ballots [][]int, electCount int) []int {
	tally := map[int]int{}
	for _, bal := range ballots {
		for _, a := range bal {
			tally[a]++
		}
	}
	attrs := make([]int, 0, len(tally))
	for a := range tally {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool {
		if tally[attrs[i]] != tally[attrs[j]] {
			return tally[attrs[i]] > tally[attrs[j]]
		}
		return attrs[i] < attrs[j]
	})
	if len(attrs) > electCount {
		attrs = attrs[:electCount]
	}
	sort.Ints(attrs)
	return attrs
}

// encodeVotes frames one rank's ballots for a level as
// [u32 nodes] nodes × ([u32 n][n × u32 attribute]).
func encodeVotes(ballots [][]int) []byte {
	size := 4
	for _, attrs := range ballots {
		size += 4 + 4*len(attrs)
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(ballots)))
	for _, attrs := range ballots {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(attrs)))
		for _, a := range attrs {
			out = binary.LittleEndian.AppendUint32(out, uint32(a))
		}
	}
	return out
}

func decodeVotes(src []byte, nodes int) ([][]int, error) {
	r := &frameReader{buf: src}
	if n := r.count(4); r.err != nil || n != nodes {
		return nil, fmt.Errorf("pclouds: ballots for %d nodes in %d bytes, want %d nodes", n, len(src), nodes)
	}
	out := make([][]int, nodes)
	for i := range out {
		out[i] = make([]int, r.count(4))
		for k := range out[i] {
			out[i][k] = int(r.u32())
		}
	}
	if r.err != nil || r.more() {
		return nil, fmt.Errorf("pclouds: malformed ballots (%d bytes for %d nodes)", len(src), nodes)
	}
	return out, nil
}
