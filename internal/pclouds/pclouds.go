// Package pclouds implements pCLOUDS, the parallel out-of-core decision
// tree classifier of the paper (Section 5). It is an SPMD algorithm: every
// rank runs Build over its private partition of the training data, held in
// an out-of-core store, and all ranks return the identical finished tree.
//
// The tree is built with mixed parallelism:
//
//   - Large nodes use data parallelism, one whole tree level at a time
//     (concatenated parallelism: every collective is issued once per level,
//     carrying all of the level's nodes). Per level: a local statistics
//     pass over the rank's share of each node's records; evaluation of the
//     interval boundaries with the replication method (attribute-based
//     assignment of each attribute's global frequency vectors to one
//     processor, or full replication via all-reduce — Config.Boundary);
//     determination of the SSE alive intervals, whose status is broadcast
//     to all processors; exact evaluation of alive intervals under the
//     single-assignment approach (each alive interval shipped to exactly
//     one processor, chosen by sorting cost); and a partition pass that
//     splits the local data and sample, piggy-backing the child class
//     counts. A rank whose whole share fits its memory budget
//     (Config.MemLimit) holds it presorted in memory and runs these passes
//     over sorted columns instead of frontier files; it sends exactly what
//     a streaming rank sends.
//
//   - Small nodes — nodes whose interval count would drop below the switch
//     threshold — are deferred until every large node is done, then
//     assigned each to a single processor (cost-based), their data
//     redistributed in one batched exchange (delayed task parallelism with
//     compute-dependent parallel I/O), and solved in-memory with the
//     direct method. The finished subtrees are exchanged so that every
//     rank assembles the same tree.
//
// Given the same data (in any distribution), the same configuration and the
// same pre-drawn sample, Build produces exactly the tree that the
// sequential CLOUDS builder produces — the repository's strongest
// correctness property, exercised by the determinism tests.
package pclouds

import (
	"errors"
	"fmt"
	"log"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/gini"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// BoundaryMethod selects how interval-boundary statistics are combined
// (Section 5.1.1).
type BoundaryMethod int

const (
	// AttributeBased assigns all global frequency vectors of each numeric
	// attribute to one processor (the paper's chosen implementation of the
	// replication method).
	AttributeBased BoundaryMethod = iota
	// FullReplication combines every statistic on every processor with one
	// all-reduce; simple, with communication O(q·c·f) per node.
	FullReplication
	// IntervalBased assigns each interval's global frequency vector to one
	// processor, dividing every attribute's range across all ranks (the
	// paper's interval-based approach).
	IntervalBased
	// Hybrid divides the concatenated (attribute, interval) stream into p
	// contiguous runs, combining the attribute- and interval-based
	// approaches for better load balance (the paper's hybrid approach).
	Hybrid
)

func (m BoundaryMethod) String() string {
	switch m {
	case AttributeBased:
		return "attribute-based"
	case FullReplication:
		return "full-replication"
	case IntervalBased:
		return "interval-based"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("BoundaryMethod(%d)", int(m))
	}
}

// Config parameterises a parallel build.
type Config struct {
	// Clouds carries the classifier parameters shared with the sequential
	// builders (method, interval counts, switch threshold, stopping rules).
	Clouds clouds.Config
	// Boundary selects the boundary-statistics scheme.
	Boundary BoundaryMethod
	// CPUPerRecord is the simulated compute cost (seconds) charged to the
	// rank's clock per record touched in a pass; 0 disables simulated
	// compute accounting (disk and network costs are charged by the store
	// and communicator regardless).
	CPUPerRecord float64
	// MemLimit is the bytes of training rows one rank may hold in memory
	// during the large-node phase (see ooc.MemLimit): a rank whose whole
	// root share fits, at ooc.ResidentRowBytes per row, reads its root file
	// once, presorts it, and builds every large node from the sorted
	// columns without reading, writing or creating a frontier file. 0 means
	// ooc.DefaultMemLimit; a negative value means none, so every large node
	// streams from disk as in the paper. A build with CheckpointDir holds
	// nothing in memory: its level manifests name frontier files. The
	// choice is each rank's own and changes no message, so resident and
	// streaming ranks mix freely.
	MemLimit int64
	// Trace, when non-nil, records per-phase spans, communication and I/O
	// attribution for this rank (see package obs). It must be enabled on
	// either every rank of the group or none: the end-of-build merged
	// report is a collective. A nil Trace costs one pointer comparison per
	// phase boundary.
	Trace *obs.Recorder
	// CheckpointDir, when non-empty, enables per-level checkpointing and
	// resume: the build continues from the newest level every rank can
	// restore, or with none every rank starts fresh and clears its own
	// stale levels. See checkpoint.go for the recovery guarantees.
	CheckpointDir string
	// Resume makes the resume strict: with no checkpoint level common to
	// every rank the build fails with ErrNoCheckpoint instead of starting
	// fresh. It requires CheckpointDir.
	Resume bool
	// StopAfterLevel, when positive, aborts the build with ErrStopped right
	// after checkpointing that many levels (if frontier work remains). It
	// exists for crash-recovery tests: all ranks stop at the same
	// deterministic boundary, simulating a coordinated kill.
	StopAfterLevel int
	// LevelHook, when non-nil, runs after every completed level (after its
	// checkpoint, if any, is committed) with the 1-based level number.
	// Chaos tests use it to kill a rank at a deterministic boundary.
	LevelHook func(level int)
	// Progress, when non-nil, receives one obs.LevelProgress record per
	// completed tree level with this rank's level deltas (records routed,
	// split evaluations, comm bytes, io-wait) — the live build telemetry
	// behind the -progress-out flags. The same records accumulate in
	// Stats.Levels and fold into the rank-0 merged report regardless.
	Progress func(obs.LevelProgress)
	// Metrics, when non-nil, receives live build gauges and counters
	// (current level, frontier size, records routed, checkpoint outcomes)
	// labelled by rank, so a scrape of /metrics mid-build shows where the
	// build is. Nil disables registry updates.
	Metrics *obs.Registry
	// Warnf receives degraded-mode warnings (checkpoint write failures,
	// garbage-collection hiccups — conditions the build survives but the
	// operator should see). Nil logs to the standard logger.
	Warnf func(format string, args ...any)
	// Integrity enables collective corruption verdicts on every pass over
	// frontier files (see integrity.go) and, when CheckpointDir is also set, the
	// detect–quarantine–restore recovery ladder in Build. It pairs with a
	// store whose backend was wrapped by ooc.Store.EnableIntegrity; off (the
	// default), the build's communication volume is bit-identical with
	// earlier releases.
	Integrity bool
	// DataChecksum, when nonzero, is the fingerprint of the dataset this
	// build reads (the record-file v2 header CRC). It is recorded in every
	// checkpoint manifest, and a resume whose fingerprint differs is refused
	// — resuming against a swapped or regenerated dataset would silently
	// train on different data.
	DataChecksum uint32
}

// Stats aggregates one rank's view of a parallel build.
type Stats struct {
	// Build carries the classifier counters; node counts are global,
	// record reads are this rank's.
	Build clouds.BuildStats
	// LargeNodes and SmallTasks count the two phases globally.
	LargeNodes int
	SmallTasks int
	// RecordsShipped counts records this rank sent during alive-interval
	// evaluation and small-node redistribution.
	RecordsShipped int64
	// Comm and IO are this rank's transport and disk counters.
	Comm comm.Stats
	IO   ooc.IOStats
	// SplitComm is the subset of Comm attributable to splitting-point
	// derivation (the deriveSplits scope) — the traffic the -split-method
	// protocols compete on.
	SplitComm comm.Stats
	// SimTime is this rank's simulated clock after the build.
	SimTime float64
	// Phase timings: simulated seconds this rank spent in each phase of
	// the build (splitting-point derivation including boundary statistics,
	// the alive-interval exact search inside it, the partition passes, and
	// the delayed small-node phase). They explain where scaleup time goes.
	TimeSplitDerive float64
	TimeAliveEval   float64
	TimePartition   float64
	TimeSmallPhase  float64
	// PhaseReport is the rank-0 merged cross-rank phase table (empty on
	// other ranks, and everywhere when tracing is off).
	PhaseReport string
	// Checkpoints counts the per-level checkpoints this rank wrote;
	// ResumedLevel is the level the build restarted from (0 = fresh build).
	Checkpoints  int
	ResumedLevel int
	// Checkpoint garbage collection and degraded mode: levels this rank
	// pruned (superseded, orphaned, stale at a fresh start, or cleaned up
	// after success), levels
	// still retained at the last commit, and checkpoint writes that failed
	// and were skipped without failing the build.
	CheckpointsPruned  int
	CheckpointsKept    int
	CheckpointFailures int
	// Levels holds this rank's per-level progress records (see
	// Config.Progress); always collected — the per-level section of the
	// rank-0 merged report is built from every rank's records.
	Levels []obs.LevelProgress
	// Recoveries counts detect–quarantine–restore cycles the build survived
	// (Config.Integrity with checkpointing); Quarantines counts store files
	// this rank renamed aside as corrupt during them.
	Recoveries  int
	Quarantines int
	// Integrity carries the verifying backend's frame counters when the
	// store has one (ooc.Store.EnableIntegrity); zero otherwise.
	Integrity ooc.IntegrityStats
	// ResidentBytes is what this rank charged to its memory budget for
	// holding its root share presorted in memory (Config.MemLimit): rows ×
	// ooc.ResidentRowBytes, or 0 when the rank streamed.
	ResidentBytes int64
}

// nodeTask is one pending tree node, tracked identically on every rank.
type nodeTask struct {
	id   string
	file string // this rank's share on disk; "" for a resident node below the root
	// data, when non-nil, holds this rank's share of the node's rows in
	// memory, presorted (a resident rank, Config.MemLimit).
	data        *clouds.Presorted
	sample      *clouds.Presorted // the node's share of the shared sample
	depth       int
	n           int64   // global record count
	classCounts []int64 // global class counts
	attach      func(*tree.Node)
	// localStats, when non-nil, holds this rank's statistics for the node,
	// accumulated by the parent's fused partition pass — the paper's
	// "avoids a separate additional pass over the entire data". The split
	// derivation then skips its statistics scan.
	localStats *clouds.NodeStats
}

type pbuilder struct {
	cfg    Config
	c      comm.Communicator
	store  *ooc.Store
	schema *record.Schema
	nRoot  int64
	stats  Stats
	nextID int
	rec    *obs.Recorder // nil when tracing is off
	// sorter orders alive points and merges their runs (aliveBatch),
	// reusing its scratch across intervals and levels.
	sorter clouds.PointSorter
	// Deferred frontier-file removal (checkpointed builds only): store
	// files the build has let go of, deleted by pruneLevels once no
	// retained checkpoint level names them. rootFile is the staged root,
	// which the fresh start (level 0) names. See checkpoint.go.
	consumed map[string]bool
	rootFile string
}

// warnf reports a survivable degradation (see Config.Warnf).
func (b *pbuilder) warnf(format string, args ...any) {
	if b.cfg.Warnf != nil {
		b.cfg.Warnf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// removeFile disposes of a consumed store file. With checkpointing off it
// is removed immediately; with checkpointing on the physical removal is
// deferred until no retained checkpoint level names the file, so a restart
// can fall back to an earlier level's frontier.
func (b *pbuilder) removeFile(name string) {
	if name == "" {
		return // a resident node has no file
	}
	if b.cfg.CheckpointDir == "" {
		b.store.Remove(name)
		return
	}
	b.consumed[name] = true
}

// Build runs pCLOUDS on this rank. The rank's partition of the training
// data must be staged in store under rootName; sample is the pre-drawn
// random sample of the full training set and must be identical on every
// rank. All ranks return the same tree.
//
// With Config.Integrity and checkpointing both enabled, Build also runs
// the recovery ladder: when a collectively-agreed data corruption aborts an
// attempt, the victim rank quarantines the corrupt store file (renamed
// aside with its attribution preserved), and every rank retries from the
// newest checkpoint level that is still clean everywhere — the collective
// resume agreement steps past levels whose frontier files were quarantined.
// Up to maxCorruptionRecoveries cycles are attempted before the corruption
// error (with its file/offset/CRC attribution) surfaces to the caller.
func Build(cfg Config, c comm.Communicator, store *ooc.Store, rootName string, sample []record.Record) (*tree.Tree, *Stats, error) {
	t, st, err := buildAttempt(cfg, c, store, rootName, sample)
	if err == nil || !cfg.Integrity || cfg.CheckpointDir == "" {
		return t, st, err
	}
	recoveries, quarantines := 0, 0
	warnf := log.Printf
	if cfg.Warnf != nil {
		warnf = cfg.Warnf
	}
	// A retry resumes from whatever level is still clean, or starts over:
	// the strict Resume check applied to the first attempt only.
	cfg.Resume = false
	for errors.Is(err, ErrDataCorrupt) && recoveries < maxCorruptionRecoveries {
		var dce *DataCorruptError
		if errors.As(err, &dce) && dce.Report.Rank == c.Rank() && dce.Report.File != "" {
			q, qerr := store.Quarantine(dce.Report.File)
			if qerr != nil {
				warnf("pclouds: rank %d: quarantining %q: %v", c.Rank(), dce.Report.File, qerr)
			} else {
				quarantines++
				warnf("pclouds: rank %d: quarantined corrupt store file %q as %q (%s)",
					c.Rank(), dce.Report.File, q, dce.Report)
			}
		}
		recoveries++
		warnf("pclouds: rank %d: data corruption detected (%v); recovery attempt %d/%d from newest clean checkpoint",
			c.Rank(), err, recoveries, maxCorruptionRecoveries)
		t, st, err = buildAttempt(cfg, c, store, rootName, sample)
	}
	if st != nil {
		st.Recoveries = recoveries
		st.Quarantines = quarantines
	}
	return t, st, err
}

// buildAttempt is one end-to-end build try; Build wraps it with the
// corruption-recovery ladder.
func buildAttempt(cfg Config, c comm.Communicator, store *ooc.Store, rootName string, sample []record.Record) (*tree.Tree, *Stats, error) {
	cfg.Clouds = cfg.Clouds.WithDefaults()
	schema := store.Schema()

	// Attach the tracer to this rank's clock, transport and store so every
	// span carries simulated-time, communication and I/O deltas. All rec
	// methods are no-ops on a nil recorder.
	rec := cfg.Trace
	rec.SetClock(c.Clock())
	rec.SetComm(c.Stats)
	rec.AddIO("store", store.Stats)
	// Thread the recorder into the direct-method builder so shipped
	// small-node subtrees appear nested under the small-node phase.
	cfg.Clouds.Trace = rec
	bspan := rec.StartID("build", rootName)

	var (
		b     *pbuilder
		root  *tree.Node
		queue []*nodeTask
		small []*nodeTask
		level int
	)
	resumed := false
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("pclouds: Resume requires CheckpointDir")
	}
	if cfg.CheckpointDir != "" {
		// Restart from the newest level complete on every rank: the
		// frontier comes from the checkpoint manifest, the nodes above it
		// from the persisted partial tree, and the staged root file is not
		// consulted, so it is consumed from the start (level 0 names it
		// until the retained levels move past it).
		b = &pbuilder{cfg: cfg, c: c, store: store, schema: schema, rec: rec, consumed: map[string]bool{rootName: true}, rootFile: rootName}
		rs, err := loadCheckpoint(cfg, c, b, sample)
		switch {
		case err == nil:
			b.nRoot, b.nextID = rs.nRoot, rs.nextID
			root, queue, small, level = rs.root, rs.queue, rs.small, rs.level
			b.stats.ResumedLevel = level
			b.rec.Count("resumed-level", int64(level))
			resumed = true
		case errors.Is(err, ErrNoCheckpoint) && !cfg.Resume:
			// No usable checkpoint anywhere: start a fresh build.
			// durable.Resume is collective, so every rank starts over together.
		default:
			return nil, nil, err
		}
	}
	if !resumed {
		// Global root class counts (one counting pass + one combine). A
		// rank whose share fits its memory budget keeps the rows it scans.
		pre := rec.Start("preprocess")
		localCounts := make([]int64, schema.NumClasses)
		res := residentShare(cfg, store, rootName)
		localN, scanErr := clouds.ScanBatches(store, rootName, func(bt *clouds.Batch) error {
			for _, c := range bt.Class {
				localCounts[c]++
			}
			return res.add(bt)
		})
		if cfg.Integrity {
			scanErr = dataVerdict(c, rootName, scanErr)
		}
		if scanErr != nil {
			return nil, nil, scanErr
		}
		globalCounts, err := comm.AllReduceInt64(c, localCounts, addI64)
		var data *clouds.Presorted
		if err == nil {
			data = res.presort()
		}
		pre.End()
		if err != nil {
			return nil, nil, err
		}
		n := gini.Sum(globalCounts)
		if n == 0 {
			return nil, nil, fmt.Errorf("pclouds: empty global training set")
		}
		b = &pbuilder{cfg: cfg, c: c, store: store, schema: schema, nRoot: n, rec: rec, consumed: map[string]bool{}, rootFile: rootName}
		b.stats.Build.RecordReads += localN
		b.chargeCPU(localN)
		b.stats.ResidentBytes = res.charged
		if cfg.CheckpointDir != "" {
			// A fresh build invalidates whatever this rank checkpointed
			// before (levels no other rank can match): prune every level so
			// stale ones can never look newer than the ones this build is
			// about to write.
			b.pruneLevels(0, 0)
		}
		queue = []*nodeTask{{
			id: "n", file: rootName, data: data, sample: clouds.Presort(schema, sample), depth: 0,
			n: n, classCounts: globalCounts,
			attach: func(nd *tree.Node) { root = nd },
		}}
	}

	// Level-order walk over the large nodes. Processing whole levels (in
	// the same FIFO order the queue formulation used) creates the natural
	// checkpoint boundary: after a level completes, every rank's store
	// holds exactly one file per frontier task.
	for len(queue) > 0 {
		meter := b.startLevel()
		children, err := b.processLevel(level+1, queue)
		if err != nil {
			return nil, nil, err
		}
		queue = queue[:0]
		for _, ch := range children {
			if cfg.Clouds.IsSmall(ch.n, b.nRoot) {
				small = append(small, ch)
			} else {
				queue = append(queue, ch)
			}
		}
		level++
		if cfg.CheckpointDir != "" {
			cspan := rec.Start("checkpoint")
			err := b.checkpointLevel(level, root, queue, small)
			cspan.End()
			if err != nil {
				return nil, nil, err
			}
		}
		b.finishLevel(meter, level, len(queue), len(small))
		if cfg.LevelHook != nil {
			cfg.LevelHook(level)
		}
		if cfg.StopAfterLevel > 0 && level >= cfg.StopAfterLevel && (len(queue) > 0 || len(small) > 0) {
			return nil, nil, fmt.Errorf("%w %d", ErrStopped, level)
		}
	}

	tSmall := c.Clock().Time()
	sspan := rec.Start("small-phase")
	if err := b.smallNodePhase(small); err != nil {
		return nil, nil, err
	}
	sspan.End()
	b.stats.TimeSmallPhase = c.Clock().Time() - tSmall

	if cfg.CheckpointDir != "" {
		// The build succeeded; every checkpoint level and deferred frontier
		// file is now garbage.
		b.pruneLevels(0, 0)
	}

	t := &tree.Tree{Schema: schema, Root: root}
	b.stats.Build.Nodes = t.NumNodes()
	b.stats.Build.Leaves = t.NumLeaves()
	b.stats.Build.MaxDepth = t.Depth()
	// Close the build span before reading the final counters so its deltas
	// match Stats exactly; the merged report's own gather is deliberately
	// outside both.
	bspan.End()
	b.stats.Comm = c.Stats()
	b.stats.IO = store.Stats()
	b.stats.SimTime = c.Clock().Time()
	if vb := store.Integrity(); vb != nil {
		b.stats.Integrity = vb.Stats()
	}
	if rec != nil {
		// Surface the split-derivation traffic in the merged report's
		// counters line — the number the -split-method comparison reads.
		rec.Count("split-comm-bytes", b.stats.SplitComm.BytesSent)
		rec.Count("resident-bytes", b.stats.ResidentBytes)
		// The checkpoint lifecycle events were counted as they happened;
		// only the retained-level gauge is read at the end.
		if cfg.CheckpointDir != "" {
			rec.Count("checkpoints-kept", int64(b.stats.CheckpointsKept))
		}
		report, err := obs.MergedReportWith(c, rec, b.stats.Levels)
		if err != nil {
			return nil, nil, fmt.Errorf("pclouds: merging phase report: %w", err)
		}
		b.stats.PhaseReport = report
	}
	st := b.stats
	return t, &st, nil
}

func addI64(a, b int64) int64 { return a + b }

// chargeCPU advances the rank's simulated clock by n record touches.
func (b *pbuilder) chargeCPU(n int64) {
	if b.cfg.CPUPerRecord > 0 {
		b.c.Clock().Advance(float64(n) * b.cfg.CPUPerRecord)
	}
}

// residentRoot gathers a rank's root share while the preprocessing pass
// scans it, when the share fits the rank's memory budget.
type residentRoot struct {
	keep    bool
	charged int64 // bytes charged to the budget
	arena   recordArena
	recs    []record.Record
}

// residentShare decides from the root file's record count whether this
// rank holds its share in memory: never under checkpointing or a negative
// budget, otherwise when rows × ooc.ResidentRowBytes fits the budget.
func residentShare(cfg Config, store *ooc.Store, rootName string) *residentRoot {
	res := &residentRoot{}
	budget := cfg.MemLimit
	if budget == 0 {
		budget = ooc.DefaultMemLimit
	}
	if budget < 0 || cfg.CheckpointDir != "" {
		return res
	}
	rows, err := store.Count(rootName)
	if err != nil {
		return res // the scan reports what is wrong with the file
	}
	charge := rows * ooc.ResidentRowBytes(store.Schema())
	if ooc.NewMemLimit(budget).Acquire(charge) != nil {
		return res
	}
	res.keep, res.charged = true, charge
	res.arena = recordArena{schema: store.Schema()}
	res.arena.reserve(int(rows))
	res.recs = make([]record.Record, 0, rows)
	return res
}

// add keeps a copy of every row of a scanned batch.
func (res *residentRoot) add(bt *clouds.Batch) error {
	if !res.keep {
		return nil
	}
	for i := 0; i < bt.Len(); i++ {
		rec, err := res.arena.decode(bt.Row(i))
		if err != nil {
			return err
		}
		res.recs = append(res.recs, rec)
	}
	return nil
}

// presort sorts the kept rows once along every numeric attribute; nil when
// the rank streams.
func (res *residentRoot) presort() *clouds.Presorted {
	if !res.keep {
		return nil
	}
	return clouds.Presort(res.arena.schema, res.recs)
}

// leafNode attaches a leaf for task t (identically on every rank).
func (b *pbuilder) leafNode(t *nodeTask) {
	nd := &tree.Node{ClassCounts: gini.Clone(t.classCounts), N: t.n}
	nd.Class = nd.Majority()
	t.attach(nd)
	b.removeFile(t.file)
}
