package pclouds

import (
	"fmt"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
	"pclouds/internal/tree"
)

// The large-node frontier is processed one whole tree level at a time — the
// paper's concatenated parallelism (Section 3): every subproblem of a level
// is solved together, so each collective of the data-parallel pipeline is
// issued once per level, not once per node. Node files are still scanned
// one by one; what is concatenated is every payload that crosses the wire.
// See DESIGN.md §17 for the per-level collective schedule.

// levelNode is one large node of the level being processed.
type levelNode struct {
	t *nodeTask
	// local is this rank's statistics for the node: fused by the parent's
	// partition pass, or accumulated by this level's statistics pass.
	local *clouds.NodeStats
	// runs and cats are the statistics this rank owns under the replication
	// scheme (boundary.go), globally combined.
	runs []ownedRun
	cats []ownedCat
	// best is the node's split: the boundary winner first, the overall
	// winner once the alive intervals have been searched.
	best clouds.Candidate
	// alive lists the node's alive intervals, canonically ordered and
	// identical on every rank.
	alive []clouds.AliveInterval
}

// scanPass is one pass of a level over many frontier files (statistics,
// alive collection, partition, small-node redistribution). It remembers the
// first local failure and the file it happened in; finish turns that into
// the pass's outcome — with integrity on, one collective verdict for the
// whole pass, so every rank leaves the pass with the same answer before
// the data it gathered is exchanged.
type scanPass struct {
	b    *pbuilder
	file string
	err  error
}

// scan streams one file through fn one column batch at a time, counting
// the records it touched. It reports false once the pass has failed;
// callers stop scanning then.
func (p *scanPass) scan(file string, fn func(*clouds.Batch) error) bool {
	if p.err != nil {
		return false
	}
	n, err := clouds.ScanBatches(p.b.store, file, fn)
	return p.done(file, n, err)
}

// pages is scan for a pass that moves records without looking inside them:
// fn sees each page of whole encoded records.
func (p *scanPass) pages(file string, fn func(page []byte) error) bool {
	if p.err != nil {
		return false
	}
	n, err := p.b.store.ScanPages(file, fn)
	return p.done(file, n, err)
}

// done counts a finished scan's records and keeps its error.
func (p *scanPass) done(file string, n int64, err error) bool {
	p.touch(n)
	if err != nil {
		p.file, p.err = file, err
	}
	return err == nil
}

// touch counts n records the pass worked on, read from a file or from a
// resident node's columns.
func (p *scanPass) touch(n int64) {
	p.b.stats.Build.RecordReads += n
	p.b.chargeCPU(n)
}

// fail records a local failure that is not a scan error (a writer that
// would not open or close) so it reaches the verdict like one.
func (p *scanPass) fail(file string, err error) {
	if p.err == nil && err != nil {
		p.file, p.err = file, err
	}
}

func (p *scanPass) finish() error {
	if !p.b.cfg.Integrity {
		return p.err
	}
	return dataVerdict(p.b.c, p.file, p.err)
}

// processLevel runs the data-parallel pipeline of Section 5 on every large
// node of one level and returns the level's child tasks in frontier order
// (none for leaves).
func (b *pbuilder) processLevel(level int, queue []*nodeTask) ([]*nodeTask, error) {
	var nodes []*levelNode
	for _, t := range queue {
		if b.cfg.Clouds.ShouldStop(t.classCounts, t.n, t.depth) {
			b.leafNode(t)
			continue
		}
		b.stats.LargeNodes++
		nodes = append(nodes, &levelNode{t: t, local: t.localStats})
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	span := b.rec.StartID("large-node", fmt.Sprintf("level-%d", level))
	defer span.End()

	// The traffic of the whole derivation is attributed to Stats.SplitComm,
	// so the three protocols' bytes on the wire are directly comparable.
	t0 := b.c.Clock().Time()
	sc := comm.NewScope(b.c)
	err := b.deriveSplits(nodes)
	b.stats.SplitComm.Add(sc.Delta())
	b.stats.TimeSplitDerive += b.c.Clock().Time() - t0
	if err != nil {
		return nil, err
	}

	tPart := b.c.Clock().Time()
	pspan := b.rec.Start("partition")
	children, err := b.partitionLevel(nodes)
	pspan.End()
	b.stats.TimePartition += b.c.Clock().Time() - tPart
	return children, err
}

// deriveSplits fills in every node's splitting point under the configured
// split-finding protocol. All ranks derive the same candidates.
func (b *pbuilder) deriveSplits(nodes []*levelNode) error {
	if err := b.statsPass(nodes); err != nil {
		return err
	}
	bnd := b.rec.Start("boundary")
	var err error
	switch b.cfg.Clouds.Split {
	case clouds.SplitHist:
		err = b.splitsHist(nodes)
	case clouds.SplitVote:
		err = b.splitsVote(nodes)
	default:
		err = b.boundarySplits(nodes)
	}
	bnd.End()
	if err != nil || b.cfg.Clouds.Split != clouds.SplitSSE || b.cfg.Clouds.Method == clouds.SS {
		return err
	}

	var withAlive []*levelNode
	for _, n := range nodes {
		if len(n.alive) == 0 {
			continue
		}
		withAlive = append(withAlive, n)
		b.stats.Build.AliveIntervals += len(n.alive)
		for _, ai := range n.alive {
			b.stats.Build.AlivePoints += ai.Count
		}
		b.stats.Build.BoundaryEvaluated += n.t.n
	}
	if len(withAlive) == 0 {
		return nil
	}
	tAlive := b.c.Clock().Time()
	aspan := b.rec.Start("alive")
	err = b.evaluateAlive(withAlive)
	aspan.End()
	b.stats.TimeAliveEval += b.c.Clock().Time() - tAlive
	return err
}

// statsPass gives every node that has no fused statistics from its parent
// (the root and resumed frontier tasks) one pass: over its file, or over
// its sorted columns when the node is resident.
func (b *pbuilder) statsPass(nodes []*levelNode) error {
	var todo []*levelNode
	for _, n := range nodes {
		if n.local == nil {
			todo = append(todo, n)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	defer b.rec.Start("stats").End()
	pass := &scanPass{b: b}
	for _, n := range todo {
		local := clouds.NewNodeStats(b.schema, n.t.sample.Intervals(b.cfg.Clouds.NodeQ(n.t.n, b.nRoot)))
		n.local = local
		if d := n.t.data; d != nil {
			d.AccumulateStats(local)
			pass.touch(int64(d.Len()))
			continue
		}
		if !pass.scan(n.t.file, func(bt *clouds.Batch) error {
			local.AddBatch(bt, nil)
			return nil
		}) {
			break
		}
	}
	return pass.finish()
}

// partitionLevel splits every node that found a valid split into its two
// children: two child files, or a resident node's split columns. Fused
// partitioning (Sections 4.2 and 5.2): while a node streams into its
// children, each large child's local statistics are accumulated on the
// child's own interval structures — the statistics pass the child would
// otherwise need is saved.
func (b *pbuilder) partitionLevel(nodes []*levelNode) ([]*nodeTask, error) {
	var children []*nodeTask
	pass := &scanPass{b: b}
	var split []*levelNode
	for _, n := range nodes {
		t := n.t
		// The winning candidate carries the split's global left size and
		// class counts, so both children's bookkeeping is known before any
		// data moves — no combine is needed after the partition pass.
		nl := n.best.LeftN
		nr := t.n - nl
		if !n.best.Valid || nl <= 0 || nr <= 0 {
			b.leafNode(t)
			continue
		}
		sp := n.best.Splitter()
		leftCounts := gini.Clone(n.best.LeftCounts)
		rightCounts := make([]int64, b.schema.NumClasses)
		for i := range rightCounts {
			rightCounts[i] = t.classCounts[i] - leftCounts[i]
		}
		leftSample, rightSample := t.sample.Split(b.schema, sp)
		var leftStats, rightStats *clouds.NodeStats
		if !b.cfg.Clouds.IsSmall(nl, b.nRoot) && !b.cfg.Clouds.ShouldStop(leftCounts, nl, t.depth+1) {
			leftStats = clouds.NewNodeStats(b.schema, leftSample.Intervals(b.cfg.Clouds.NodeQ(nl, b.nRoot)))
		}
		if !b.cfg.Clouds.IsSmall(nr, b.nRoot) && !b.cfg.Clouds.ShouldStop(rightCounts, nr, t.depth+1) {
			rightStats = clouds.NewNodeStats(b.schema, rightSample.Intervals(b.cfg.Clouds.NodeQ(nr, b.nRoot)))
		}

		b.nextID++
		var leftFile, rightFile string
		var leftData, rightData *clouds.Presorted
		if t.data != nil {
			leftData, rightData = b.partitionResident(pass, t.data, sp, leftStats, rightStats)
		} else {
			leftFile = fmt.Sprintf("%s-%dL", t.file, b.nextID)
			rightFile = fmt.Sprintf("%s-%dR", t.file, b.nextID)
			if pass.err == nil {
				pass.fail(t.file, b.partitionNode(pass, t.file, sp, leftFile, rightFile, leftStats, rightStats))
			}
		}

		nd := &tree.Node{Splitter: sp, ClassCounts: gini.Clone(t.classCounts), N: t.n}
		nd.Class = nd.Majority()
		t.attach(nd)
		split = append(split, n)
		children = append(children,
			&nodeTask{
				id: t.id + "L", file: leftFile, data: leftData, sample: leftSample, depth: t.depth + 1,
				n: nl, classCounts: leftCounts, localStats: leftStats,
				attach: func(x *tree.Node) { nd.Left = x },
			},
			&nodeTask{
				id: t.id + "R", file: rightFile, data: rightData, sample: rightSample, depth: t.depth + 1,
				n: nr, classCounts: rightCounts, localStats: rightStats,
				attach: func(x *tree.Node) { nd.Right = x },
			})
	}
	if len(split) == 0 {
		return nil, nil
	}
	if err := pass.finish(); err != nil {
		return nil, err
	}
	for _, n := range split {
		b.removeFile(n.t.file)
	}
	return children, nil
}

// partitionResident splits a resident node's rows into its children with
// Presorted.Split — the children take over the node's storage, and no file
// is created — and fills the large children's statistics from their sorted
// columns.
func (b *pbuilder) partitionResident(pass *scanPass, data *clouds.Presorted, sp *tree.Splitter, leftStats, rightStats *clouds.NodeStats) (left, right *clouds.Presorted) {
	localN := int64(data.Len())
	pass.touch(localN)
	left, right = data.Split(b.schema, sp)
	if leftStats != nil {
		left.AccumulateStats(leftStats)
	}
	if rightStats != nil {
		right.AccumulateStats(rightStats)
	}
	if leftStats != nil || rightStats != nil {
		b.chargeCPU(localN)
	}
	return left, right
}

// partitionNode streams one node's file into its two child files. A scan
// failure lands in pass; the error returned is a writer's.
func (b *pbuilder) partitionNode(pass *scanPass, file string, sp *tree.Splitter, leftFile, rightFile string, leftStats, rightStats *clouds.NodeStats) error {
	lw, err := b.store.CreateWriter(leftFile)
	if err != nil {
		return err
	}
	rw, err := b.store.CreateWriter(rightFile)
	if err != nil {
		lw.Close()
		return err
	}
	localN, err := clouds.Partition(b.store, file, sp, lw, rw, leftStats, rightStats)
	pass.done(file, localN, err)
	if leftStats != nil || rightStats != nil {
		// The fused statistics work is real compute even though the I/O
		// pass is shared.
		b.chargeCPU(localN)
	}
	err = lw.Close()
	if err2 := rw.Close(); err == nil {
		err = err2
	}
	return err
}
