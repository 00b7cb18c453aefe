package pclouds

import (
	"fmt"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Processor regrouping — the paper's stated future work ("we do not
// regroup the processors as they become idle, in our current implementation
// of task parallelism", Section 6). With Config.RegroupIdle set and fewer
// small tasks than processors, the small-node phase assigns each task a
// processor *subgroup* instead of a single owner: every rank belongs to
// some group (none idle), the task's records are shipped to all group
// members, and the group solves the subtree together by splitting the
// direct method's per-attribute exact searches across members (one
// min-combine per node). The resulting subtree is bit-identical to the
// single-owner result — only the load balance changes, which is what the
// scaleup tail of Figure 3 measures.

// groupAssignment describes the contiguous rank range solving each task.
type groupAssignment struct {
	lo, hi int // ranks [lo, hi)
}

// assignGroups splits p ranks into len(tasks) contiguous groups with sizes
// proportional to task cost (each at least 1), deterministically. Caller
// guarantees 0 < len(tasks) <= p.
func assignGroups(tasks []*nodeTask, p int) []groupAssignment {
	t := len(tasks)
	sizes := make([]int, t)
	for i := range sizes {
		sizes[i] = 1
	}
	// Apportion the extra ranks by the largest cost-per-assigned-rank
	// quotient (D'Hondt), breaking ties toward the earlier task.
	for extra := p - t; extra > 0; extra-- {
		best, bestQ := 0, -1.0
		for i := range tasks {
			q := float64(tasks[i].n) / float64(sizes[i]+1)
			if q > bestQ {
				best, bestQ = i, q
			}
		}
		sizes[best]++
	}
	out := make([]groupAssignment, t)
	lo := 0
	for i := range out {
		out[i] = groupAssignment{lo: lo, hi: lo + sizes[i]}
		lo += sizes[i]
	}
	return out
}

// smallNodePhaseRegroup is the regrouped variant of the small-node phase.
func (b *pbuilder) smallNodePhaseRegroup(small []*nodeTask) error {
	sort.Slice(small, func(i, j int) bool { return small[i].id < small[j].id })
	b.stats.SmallTasks = len(small)
	rank := b.c.Rank()
	groups := assignGroups(small, b.c.Size())

	// Ship each task's records to every member of its group, in one
	// all-to-all.
	taskRecs, err := b.redistributeSmall(small, func(i int) (lo, hi int) { return groups[i].lo, groups[i].hi })
	if err != nil {
		return err
	}

	// Identify this rank's group and build its tasks cooperatively.
	gspan := b.rec.Start("small-solve")
	results := make([][]byte, len(small))
	myGroup := -1
	for i, g := range groups {
		if rank >= g.lo && rank < g.hi {
			myGroup = i
			break
		}
	}
	if myGroup < 0 {
		return fmt.Errorf("pclouds: rank %d not in any regrouped assignment", rank)
	}
	g := groups[myGroup]
	ranks := make([]int, 0, g.hi-g.lo)
	for r := g.lo; r < g.hi; r++ {
		ranks = append(ranks, r)
	}
	sub, err := comm.NewSub(b.c, ranks)
	if err != nil {
		return err
	}
	t := small[myGroup]
	nd, err := b.groupSolve(sub, t, taskRecs[myGroup])
	if err != nil {
		return err
	}
	if sub.Rank() == 0 {
		results[myGroup] = tree.Encode(&tree.Tree{Schema: b.schema, Root: nd})
	}
	gspan.End()

	// Exchange the finished subtrees (as in the single-owner phase).
	return b.exchangeSubtrees(small, results)
}

// groupSolve builds one small task's subtree cooperatively on subgroup sub:
// every member holds the full record set; at each node the per-attribute
// exact searches are divided among members and a min-combine selects the
// winner. The tree is identical to the sequential direct-method result.
func (b *pbuilder) groupSolve(sub comm.Communicator, t *nodeTask, recs []record.Record) (*tree.Node, error) {
	var build func(recs []record.Record, depth int) (*tree.Node, error)
	build = func(recs []record.Record, depth int) (*tree.Node, error) {
		n := int64(len(recs))
		counts := make([]int64, b.schema.NumClasses)
		for _, r := range recs {
			counts[r.Class]++
		}
		leaf := func() *tree.Node {
			nd := &tree.Node{ClassCounts: counts, N: n}
			nd.Class = nd.Majority()
			return nd
		}
		if b.cfg.Clouds.ShouldStop(counts, n, depth) {
			return leaf(), nil
		}
		cand, err := b.distributedDirectSplit(sub, recs, counts, n)
		if err != nil {
			return nil, err
		}
		if !cand.Valid {
			return leaf(), nil
		}
		sp := cand.Splitter()
		var left, right []record.Record
		for _, r := range recs {
			if sp.GoesLeft(b.schema, r) {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return leaf(), nil
		}
		nd := &tree.Node{Splitter: sp, ClassCounts: counts, N: n}
		nd.Class = nd.Majority()
		if nd.Left, err = build(left, depth+1); err != nil {
			return nil, err
		}
		if nd.Right, err = build(right, depth+1); err != nil {
			return nil, err
		}
		return nd, nil
	}
	return build(recs, t.depth)
}

// distributedDirectSplit is the direct method with its per-attribute exact
// searches divided across the subgroup: member k evaluates the attributes
// with position % size == k, and a min-combine picks the global best. The
// result equals clouds.DirectSplit on the same records.
func (b *pbuilder) distributedDirectSplit(sub comm.Communicator, recs []record.Record, total []int64, nTotal int64) (clouds.Candidate, error) {
	size, rank := sub.Size(), sub.Rank()
	myBest := clouds.Candidate{Valid: false}
	pts := make([]clouds.Point, len(recs))
	assigned := 0

	for j, attr := range b.schema.NumericIndices() {
		if attr%size != rank {
			continue
		}
		assigned++
		for i, r := range recs {
			pts[i] = clouds.Point{V: r.Num[j], Class: r.Class}
		}
		cand := clouds.EvaluateInterval(attr, make([]int64, len(total)), total, pts)
		if cand.Better(myBest) {
			myBest = cand
		}
	}

	for j, attr := range b.schema.CategoricalIndices() {
		if attr%size != rank {
			continue
		}
		assigned++
		cm := gini.NewCountMatrix(b.schema.Attrs[attr].Cardinality, b.schema.NumClasses)
		for _, r := range recs {
			cm.Add(r.Cat[j], r.Class)
		}
		ss := cm.BestSubsetSplit()
		var nLeft int64
		for v, in := range ss.InLeft {
			if in {
				nLeft += gini.Sum(cm.Counts[v])
			}
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		cand := clouds.Candidate{
			Valid: true, Gini: ss.Gini,
			Attr: attr, Kind: tree.CategoricalSplit, InLeft: ss.InLeft,
		}
		if cand.Better(myBest) {
			myBest = cand
		}
	}

	// Charge this member's share of the sort/scan work (~2 touches per
	// record per assigned attribute).
	if b.cfg.CPUPerRecord > 0 && assigned > 0 {
		totalAttrs := len(b.schema.Attrs)
		b.c.Clock().Advance(float64(2*len(recs)*assigned) / float64(totalAttrs) * b.cfg.CPUPerRecord)
	}
	best, err := combineCandidates(sub, []clouds.Candidate{myBest})
	if err != nil {
		return clouds.Candidate{}, err
	}
	return best[0], nil
}
