package clouds

import (
	"fmt"

	"pclouds/internal/gini"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// BuildOutOfCore constructs a CLOUDS tree over a disk-resident dataset: the
// records live in store under rootName and are streamed, never fully
// loaded, until a node's data fits within mem. Node data is physically
// partitioned into per-child files at every split (reading and writing a
// number of records equal to the node size, as the paper accounts), and the
// parent file is deleted afterwards.
//
// sample is the pre-drawn random sample (kept in memory and partitioned
// logically alongside the data). mem bounds the record bytes loaded for
// in-memory processing; nil or a non-positive limit means unlimited.
func BuildOutOfCore(cfg Config, store *ooc.Store, rootName string, sample []record.Record, mem *ooc.MemLimit) (*tree.Tree, *BuildStats, error) {
	cfg = cfg.WithDefaults()
	n, err := store.Count(rootName)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("clouds: empty training file %q", rootName)
	}
	schema := store.Schema()
	// One counting pass for the root's class frequencies; every later node
	// inherits its counts from the parent's partition pass.
	rootCounts := make([]int64, schema.NumClasses)
	if _, err := ScanBatches(store, rootName, func(bt *Batch) error {
		for _, c := range bt.Classes() {
			rootCounts[c]++
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	b := &oocBuilder{
		builder: builder{cfg: cfg, schema: schema, nRoot: n},
		store:   store,
		mem:     mem,
	}
	b.stats.RecordReads += n
	root, err := b.build(rootName, Presort(schema, sample), 0, rootCounts, n, nil)
	if err != nil {
		return nil, nil, err
	}
	st := b.stats
	return &tree.Tree{Schema: schema, Root: root}, &st, nil
}

type oocBuilder struct {
	builder
	store  *ooc.Store
	mem    *ooc.MemLimit
	nextID int
	// alivePts is the room every streamed node's alive points are
	// collected into, reused from node to node.
	alivePts []Point
}

// build constructs the subtree rooted at the node whose records live in
// file name. fusedStats, when non-nil, holds the node's statistics
// accumulated by the parent's partition pass (the paper's fused
// partitioning), saving this node's statistics scan.
func (b *oocBuilder) build(name string, sample *Presorted, depth int, classCounts []int64, n int64, fusedStats *NodeStats) (*tree.Node, error) {
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	if b.cfg.ShouldStop(classCounts, n, depth) {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}

	// In-memory processing when the node fits the memory budget. Small
	// nodes (the interval-count criterion) are always brought in-core and
	// solved with the direct method, as the paper prescribes — the memory
	// limit governs large-node processing only.
	bytes := n * int64(b.schema.RecordBytes())
	if small := b.cfg.IsSmall(n, b.nRoot); small || b.mem.Fits(bytes) {
		charge := bytes
		if small && !b.mem.Fits(bytes) {
			charge = 0 // forced in-core; the paper assumes small nodes fit
		}
		if err := b.mem.Acquire(charge); err != nil {
			return nil, err
		}
		recs, err := b.store.ReadAll(name)
		if err != nil {
			b.mem.Release(charge)
			return nil, err
		}
		b.store.Remove(name)
		nd := b.builder.build(Presort(b.schema, recs), sample, depth)
		b.mem.Release(charge)
		return nd, nil
	}

	// Large out-of-core node: stream the statistics pass (unless the
	// parent's fused partition already produced the statistics).
	cand, err := b.streamSplit(name, sample, n, fusedStats)
	if err != nil {
		return nil, err
	}
	if !cand.Valid {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}
	sp := cand.Splitter()

	// Children's sizes and class counts are known from the winning
	// candidate, so the child interval structures can be built now and the
	// child statistics accumulated during the partition pass — the paper's
	// fused partitioning ("avoids a separate additional pass").
	nl := cand.LeftN
	nr := n - nl
	leftCounts := gini.Clone(cand.LeftCounts)
	rightCounts := make([]int64, b.schema.NumClasses)
	for i := range rightCounts {
		rightCounts[i] = classCounts[i] - leftCounts[i]
	}
	if nl <= 0 || nr <= 0 {
		b.store.Remove(name)
		return b.leaf(classCounts, n), nil
	}
	leftSample, rightSample := sample.Split(b.schema, sp)
	var leftStats, rightStats *NodeStats
	if b.oocLargeChild(leftCounts, nl, depth+1) {
		leftStats = NewNodeStats(b.schema, leftSample.Intervals(b.cfg.NodeQ(nl, b.nRoot)))
	}
	if b.oocLargeChild(rightCounts, nr, depth+1) {
		rightStats = NewNodeStats(b.schema, rightSample.Intervals(b.cfg.NodeQ(nr, b.nRoot)))
	}

	b.nextID++
	leftName := fmt.Sprintf("%s.%dL", name, b.nextID)
	rightName := fmt.Sprintf("%s.%dR", name, b.nextID)
	lw, err := b.store.CreateWriter(leftName)
	if err != nil {
		return nil, err
	}
	rw, err := b.store.CreateWriter(rightName)
	if err != nil {
		lw.Close()
		return nil, err
	}
	_, err = Partition(b.store, name, sp, lw, rw, leftStats, rightStats)
	b.stats.RecordReads += n
	if err2 := lw.Close(); err == nil {
		err = err2
	}
	if err2 := rw.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return nil, err
	}
	b.store.Remove(name)

	nd := &tree.Node{Splitter: sp, ClassCounts: gini.Clone(classCounts), N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	if nd.Left, err = b.build(leftName, leftSample, depth+1, leftCounts, nl, leftStats); err != nil {
		return nil, err
	}
	if nd.Right, err = b.build(rightName, rightSample, depth+1, rightCounts, nr, rightStats); err != nil {
		return nil, err
	}
	return nd, nil
}

// oocLargeChild reports whether a child node will take the streaming
// large-node path (neither a leaf, nor small, nor in-core), i.e. whether
// fused statistics would be used.
func (b *oocBuilder) oocLargeChild(counts []int64, n int64, depth int) bool {
	if b.cfg.ShouldStop(counts, n, depth) {
		return false
	}
	if b.cfg.IsSmall(n, b.nRoot) {
		return false
	}
	bytes := n * int64(b.schema.RecordBytes())
	return !b.mem.Fits(bytes)
}

// streamSplit derives the splitting point of a disk-resident node under
// cfg.Split, streaming the file for each required pass. fusedStats, when
// non-nil, replaces the statistics scan.
func (b *oocBuilder) streamSplit(name string, sample *Presorted, n int64, fusedStats *NodeStats) (Candidate, error) {
	ns := fusedStats
	if ns == nil {
		ns = NewNodeStats(b.schema, sample.Intervals(b.cfg.NodeQ(n, b.nRoot)))
		if _, err := ScanBatches(b.store, name, func(bt *Batch) error {
			ns.AddBatch(bt, nil)
			return nil
		}); err != nil {
			return Candidate{}, err
		}
		b.stats.RecordReads += n
	}
	// The SSE alive points take a second streaming pass (the paper assumes
	// each alive interval fits in main memory).
	return b.splitLarge(ns, func(alive []AliveInterval) ([][]Point, error) {
		capacity := make([]int64, len(alive))
		var total int64
		for s, ai := range alive {
			capacity[s] = ai.Count
			total += ai.Count
		}
		col := NewAliveCollector(ns.Intervals(), alive, capacity, scratch(&b.alivePts, int(total)))
		if _, err := ScanBatches(b.store, name, func(bt *Batch) error {
			col.AddBatch(bt)
			return nil
		}); err != nil {
			return nil, err
		}
		runs := make([][]Point, len(alive))
		for s := range runs {
			runs[s] = col.Points(s)
			SortPoints(runs[s])
		}
		return runs, nil
	})
}
