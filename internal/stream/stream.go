// Package stream turns the batch pCLOUDS machinery into a continuously
// learning pipeline: every rank ingests the same unbounded record stream,
// partitions it into tumbling windows, and at each window close either
// grows the current tree's frontier from mergeable fixed-bin histogram
// sketches (the PR 7 hist split path, one all-reduce per window) or
// rebuilds the tree from a retained sample reservoir. Every committed
// window's model is validated and published atomically into a registry
// directory, where the internal/serve hot-swap poller picks it up — train
// while serving, with zero downtime.
//
// The window state machine, per rank:
//
//	resume    collective agreement (durable.Resume) on the newest window
//	          checkpoint every rank still holds and can load; replay the
//	          source to the agreed high-water mark, or fresh-start from
//	          record 0.
//	ingest    scan the global stream block by block (Source.Rows),
//	          failing on a record outside the schema; own records with
//	          index % p == rank; count each block's owned training rows
//	          into the per-frontier-leaf sketches as one batch (a batched
//	          leaf walk, rows grouped by leaf, NodeStats.AddBatch), and
//	          copy held-out rows and a 1-in-SampleEvery reservoir sample
//	          out as their encoded bytes.
//	close     exchange window samples (all-gather, merged in global index
//	          order), then either refresh — rebuild the replicated
//	          reservoir's tree from the kept sorted columns, each rank
//	          building its share of the subtrees below a shallow
//	          replicated top, one all-gather of them when p > 1 — or
//	          grow: merge all frontier sketches in one all-reduce
//	          (histogram.MergeCount) and apply the same split decisions
//	          everywhere.
//	commit    validate the model and all-reduce the ok votes (sum): all
//	          ranks agree window N is good before model N publishes.
//	publish   rank 0 writes the model atomically into PublishDir, behind
//	          the next window (one write in flight, joined before the
//	          next publish, before a checkpoint and when Run returns);
//	          every rank checkpoints its replicated state.
//
// Determinism: with a fixed seed and count-based window boundaries, the
// published model sequence is bit-identical at any rank count — ownership
// partitions the same global stream, sketches merge associatively, the
// reservoir is replicated in canonical global-index order, and every
// decision is a deterministic function of replicated state. Time-based
// windows (WindowDuration) trade that away: boundaries then depend on
// wall-clock arrival and are agreed per window via an all-reduce max.
package stream

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"slices"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/dnc"
	"pclouds/internal/durable"
	"pclouds/internal/histogram"
	"pclouds/internal/obs"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// ErrStopped is returned by Run when Config.Stop was closed.
var ErrStopped = errors.New("stream: stopped")

// Config parameterises one rank of the streaming pipeline. Every field
// that shapes the state machine must be identical on all ranks; the
// checkpoint fingerprint enforces that across restarts.
type Config struct {
	// Schema describes the stream's records.
	Schema *record.Schema
	// Clouds parameterises refresh builds and frontier growth: Split
	// (default SplitHist), HistBins (sketch resolution), MaxDepth,
	// MinNodeSize, Seed. A refresh builds the tree clouds.BuildInCore
	// builds with this configuration over the replicated reservoir, its
	// subtrees split across the ranks: one all-gather when p > 1.
	Clouds clouds.Config
	// WindowRecords is the tumbling window size in global records
	// (default 1024). Ignored when WindowDuration is set.
	WindowRecords int
	// WindowDuration switches to time-based windows: a window closes at
	// the first record after the deadline, at a boundary agreed via an
	// all-reduce max of the ranks' stream positions. Time-based windows
	// are NOT deterministic across runs or rank counts.
	WindowDuration time.Duration
	// MaxWindows stops the run after that many committed windows
	// (counting windows committed before a resume); 0 runs until the
	// source ends.
	MaxWindows int
	// SampleEvery puts every SampleEvery-th global record into the
	// replicated reservoir (default 8; 1 retains everything).
	SampleEvery int
	// ReservoirCap bounds the reservoir; the oldest records are evicted
	// first (default 4096).
	ReservoirCap int
	// RefreshEvery triggers a full rebuild over the reservoir every that
	// many windows (default 4); the first window always refreshes (it
	// bootstraps the model). Windows in between grow the frontier. With
	// holdout evaluation enabled the drift detector can additionally
	// schedule an adaptive refresh at any window; RefreshEvery then acts
	// as the fallback ceiling on model staleness.
	RefreshEvery int
	// HoldoutEvery holds every HoldoutEvery-th global record out of
	// training (it enters neither sketches nor the reservoir) and scores
	// each window's candidate model on the held-out slice — the input to
	// the drift detector and the publish quality gate. 0 disables holdout
	// evaluation, drift detection and gating (the PR-8 behaviour).
	HoldoutEvery int
	// DriftDelta is the Page–Hinkley tolerated per-window deviation of
	// the holdout error rate (default 0.005 when HoldoutEvery > 0).
	DriftDelta float64
	// DriftLambda is the Page–Hinkley alarm threshold on the cumulative
	// deviation (default 0.25 when HoldoutEvery > 0). When it fires, the
	// next window refreshes from the reservoir instead of growing.
	DriftLambda float64
	// GateTolerance is how much worse (absolute holdout error rate) a
	// candidate may be than the last-published model and still publish.
	// Default 0.05 when HoldoutEvery > 0; negative means exactly zero
	// tolerance. A gated window commits but does not publish.
	GateTolerance float64
	// GrowMinRecords is the evidence threshold for growing: a frontier
	// leaf splits only when the merged window sketch holds at least this
	// many records (default 64).
	GrowMinRecords int64
	// PublishDir, when set, receives one atomically-written model per
	// committed window ("model-w%06d.tree"), rank 0 only. The
	// internal/serve registry can point at the same directory.
	PublishDir string
	// CheckpointDir, when set, persists per-rank window checkpoints for
	// crash recovery (see checkpoint.go).
	CheckpointDir string
	// SourceChecksum, when nonzero, is the fingerprint of the dataset this
	// run ingests (the tailed v2 record file's header checksum, see
	// TailSource.HeaderChecksum). It is bound into every window checkpoint;
	// a resume whose source fingerprint differs fails with
	// ErrSourceMismatch instead of replaying a swapped dataset.
	SourceChecksum uint32
	// Stop aborts the run cleanly when closed; Run returns ErrStopped.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives live pclouds_stream_* series.
	Metrics *obs.Registry
	// Logf reports window commits and recovery (nil disables).
	Logf func(format string, args ...any)
	// RecordHook, when non-nil, observes every scanned global record
	// (window index, global record index) before it is processed. Test
	// instrumentation: the chaos suite uses it to kill a rank mid-window.
	RecordHook func(window int, globalIdx int64)
}

func (cfg Config) withDefaults() Config {
	if cfg.WindowRecords <= 0 {
		cfg.WindowRecords = 1024
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 8
	}
	if cfg.ReservoirCap <= 0 {
		cfg.ReservoirCap = 4096
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = 4
	}
	if cfg.GrowMinRecords <= 0 {
		cfg.GrowMinRecords = 64
	}
	if cfg.HoldoutEvery > 0 {
		if cfg.DriftDelta <= 0 {
			cfg.DriftDelta = 0.005
		}
		if cfg.DriftLambda <= 0 {
			cfg.DriftLambda = 0.25
		}
		switch {
		case cfg.GateTolerance < 0:
			cfg.GateTolerance = 0
		case cfg.GateTolerance == 0:
			cfg.GateTolerance = 0.05
		}
	}
	if cfg.Clouds.Split == clouds.SplitSSE {
		cfg.Clouds.Split = clouds.SplitHist
	}
	cfg.Clouds = cfg.Clouds.WithDefaults()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Stats summarises one Run (one recovery attempt's perspective).
type Stats struct {
	// Windows is the total committed windows, including windows committed
	// before a resume; ResumedAt is the window the run restored from (0 =
	// fresh start).
	Windows   int
	ResumedAt int
	// Records counts records this rank owned; Scanned counts every global
	// record this rank read past (ownership filter included).
	Records int64
	Scanned int64
	// SketchBytes is this rank's contribution to frontier sketch
	// all-reduces (8 bytes per histogram counter), the communication the
	// hist protocol makes windowed and mergeable.
	SketchBytes int64
	// Refreshes, Grown and Published count reservoir rebuilds, frontier
	// leaves split by window sketches, and models written to PublishDir.
	Refreshes int
	Grown     int
	Published int
	// Holdout evaluation (all zero when HoldoutEvery == 0):
	// HoldoutRecords is the global count of held-out records scored,
	// HoldoutErr the last window's global candidate error rate on them.
	HoldoutRecords int64
	HoldoutErr     float64
	// DriftFires counts Page–Hinkley alarms (each schedules an adaptive
	// refresh); FirstDriftWindow is the 1-based window of the first alarm
	// (0 = never fired). GateSkips counts windows that committed but were
	// refused publication by the quality gate.
	DriftFires       int
	FirstDriftWindow int
	GateSkips        int
	// Reservoir is the retained sample size at exit.
	Reservoir int
	// Comm holds the communicator's counters at exit.
	Comm comm.Stats
}

// Result is a completed Run: the final model (nil if the stream ended
// before the first refresh) and the run's statistics.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
}

// engine is the per-rank state machine.
type engine struct {
	cfg  Config
	c    comm.Communicator
	src  Source
	fp   uint32
	live *liveMetrics

	window    int   // committed windows
	nextIdx   int64 // next global record index to scan
	tree      *tree.Tree
	reservoir []record.Record

	// frontier lists the tree's leaves in preorder, empty in a refresh
	// window; frontierOf maps each leaf index of flat to that leaf's
	// frontier position. flat is e.tree compiled, or nil when the tree
	// changed since: the close that scores the holdout compiles its model
	// once, and the next window's frontier routes through that same
	// compile.
	frontier   []frontierLeaf
	flat       *tree.Compiled
	frontierOf []int32

	// cols keeps the reservoir's numeric columns sorted across windows.
	cols sortedColumns

	// refresh holds a refresh's presorted root, its sample and the
	// sample's row mask from one refresh to the next; nothing of them is
	// in use between refreshes.
	refresh struct {
		data, sample *clouds.Presorted
		inSample     []bool
	}

	// Scratch reused across windows: ingest's, the frontier cut
	// construction's (with the interval structures the frontier counts
	// over), the sketch vector every frontier leaf's counters are carved
	// from (the sketch all-reduce's payload), the holdout scoring's class
	// output and the sample merge's entries.
	in      ingestScratch
	cuts    cutScratch
	sketch  []int64
	classes []int32
	merged  []sampleEntry

	// pending is rank 0's in-flight model write, nil when none: publish
	// hands a window's file bytes to one background write and the next
	// window starts at once. It is joined (joinPublish) before the next
	// publish, before a checkpoint write and on every exit of Run.
	pending chan publishDone

	// samples is this rank's sample payload for the current window, in
	// the sample all-gather's layout: a u32 record count (set at close),
	// then each owned reservoir candidate as its u64 global index and its
	// encoded row. mergeSamples sends and resets it.
	samples []byte

	// holdout buffers this rank's owned held-out rows for the current
	// window (HoldoutEvery > 0), encoded; consumed at window close.
	holdout []byte

	// Drift/gate state, replicated and checkpointed: the Page–Hinkley
	// detector, whether it has scheduled an adaptive refresh for the next
	// window, and the last model that passed the publish gate (with the
	// window it was published at), kept as its tree.Encode bytes.
	det          phDetector
	driftPending bool
	lastPubBlob  []byte
	lastPubWin   int
	// lastPubFlat is the last published model compiled: the compile of
	// the candidate it was, or of the checkpointed model after a resume.
	lastPubFlat *tree.Compiled

	stats   Stats
	pubHist *obs.Histogram
}

// Run executes the streaming pipeline on this rank until MaxWindows
// windows are committed, the source ends, or Stop closes. All ranks must
// call it with identical configuration. The returned tree is identical on
// every rank.
func Run(cfg Config, c comm.Communicator, src Source) (*Result, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("stream: nil schema")
	}
	cfg = cfg.withDefaults()
	e := &engine{cfg: cfg, c: c, src: src, fp: cfg.fingerprint(), pubHist: obs.NewHistogram(obs.ExpBounds(1e-4, 2, 14)...)}
	e.live = newLiveMetrics(cfg.Metrics, e)
	if err := e.resume(); err != nil {
		return nil, err
	}
	err := e.loop()
	if perr := e.joinPublish(); perr != nil {
		err = errors.Join(err, perr)
	}
	if err != nil {
		return nil, err
	}
	e.stats.Windows = e.window
	e.stats.Reservoir = len(e.reservoir)
	e.stats.Comm = c.Stats()
	return &Result{Tree: e.tree, Stats: e.stats}, nil
}

func (e *engine) stopped() bool {
	if e.cfg.Stop == nil {
		return false
	}
	select {
	case <-e.cfg.Stop:
		return true
	default:
		return false
	}
}

// resume restores the replicated state from the collectively agreed window
// checkpoint and replays the source to its high-water mark. Without a
// checkpoint directory every start is fresh.
func (e *engine) resume() error {
	if e.cfg.CheckpointDir == "" {
		return nil
	}
	st, err := agreeResume(&e.cfg, e.c)
	if err != nil {
		return err
	}
	if st == nil {
		return nil
	}
	e.window, e.nextIdx, e.tree, e.reservoir = st.window, st.nextIdx, st.tree, st.reservoir
	e.det, e.driftPending = st.det, st.driftPending
	e.lastPubBlob, e.lastPubWin = st.lastPubBlob, st.lastPubWin
	if st.lastPub != nil {
		e.lastPubFlat = tree.Compile(st.lastPub)
	}
	e.stats.ResumedAt = st.window
	e.live.set(e)
	// Replay skips whole blocks without decoding them.
	rb := int64(e.cfg.Schema.RecordBytes())
	for i := int64(0); i < st.nextIdx; {
		rows, err := e.src.Rows(int(min(st.nextIdx-i, 1<<16)))
		if err != nil {
			return fmt.Errorf("stream: replaying to checkpoint high-water %d: %w", st.nextIdx, err)
		}
		if len(rows) == 0 {
			return fmt.Errorf("stream: source ended at record %d while replaying to checkpoint high-water %d", i, st.nextIdx)
		}
		i += int64(len(rows)) / rb
	}
	e.cfg.Logf("stream: rank %d: resumed at window %d (stream position %d, %d reservoir records)",
		e.c.Rank(), e.window, e.nextIdx, len(e.reservoir))
	return nil
}

func (e *engine) loop() error {
	for e.cfg.MaxWindows == 0 || e.window < e.cfg.MaxWindows {
		if e.stopped() {
			return ErrStopped
		}
		// Refresh when the model is missing (bootstrap), when the drift
		// detector scheduled an adaptive refresh at the previous close, or
		// on the fixed-period ceiling.
		willRefresh := e.tree == nil || e.driftPending || (e.window+1)%e.cfg.RefreshEvery == 0
		if !willRefresh {
			e.buildFrontier()
		} else {
			e.frontier = e.frontier[:0]
		}
		scanned, streamEnd, err := e.ingestWindow()
		if err != nil {
			return err
		}
		if scanned == 0 {
			return nil // clean end exactly at a window boundary
		}
		if err := e.closeWindow(willRefresh); err != nil {
			return err
		}
		if streamEnd {
			return nil
		}
	}
	return nil
}

// closeWindow runs the collective close: sample exchange, grow-or-refresh,
// holdout scoring + validation vote (one all-reduce), drift detection,
// publish gate, publish, checkpoint.
func (e *engine) closeWindow(refresh bool) error {
	windowNum := e.window // 0-based index of the window being closed
	// The arena is free once ingest is done: the holdout decodes into it.
	holdout := e.in.arena.decodeRows(e.cfg.Schema, e.holdout)
	e.holdout = e.holdout[:0]
	if err := e.mergeSamples(); err != nil {
		return err
	}
	if refresh {
		if err := e.refreshTree(); err != nil {
			return err
		}
		e.driftPending = false // the scheduled adaptive refresh ran
	} else {
		if err := e.growFrontier(); err != nil {
			return err
		}
	}

	// Collective commit: every rank validates its (replicated) model and
	// the group agrees before anything durable happens. A disagreement can
	// only mean divergent state — fail loudly rather than publish it. The
	// holdout tallies ride the same all-reduce: [ok votes, candidate
	// errors, last-published errors, holdout records], summed, so holdout
	// evaluation costs no extra round trip.
	ok := int64(1)
	var verr error
	if e.tree != nil {
		if verr = e.tree.Validate(); verr != nil {
			ok = 0
		}
	}
	var candErr, lastErr int64
	score := e.cfg.HoldoutEvery > 0 && e.tree != nil
	// Growth or a refresh changed the tree; the compile that scores the
	// candidate also routes the next window's frontier.
	e.flat = nil
	if score {
		e.flat = tree.Compile(e.tree)
		candErr = e.misclassified(e.flat, holdout)
		if e.lastPubFlat != nil {
			lastErr = e.misclassified(e.lastPubFlat, holdout)
		}
	}
	sums, err := comm.AllReduceInt64(e.c, []int64{ok, candErr, lastErr, int64(len(holdout))}, sumI64)
	if err != nil {
		return err
	}
	if sums[0] != int64(e.c.Size()) {
		return fmt.Errorf("stream: window %d failed the commit vote (local validation: %v)", windowNum, verr)
	}

	e.window++

	// Drift detection and the publish quality gate, both deterministic
	// functions of the all-reduced tallies — identical on every rank.
	publish := true
	if score && sums[3] > 0 {
		candRate := float64(sums[1]) / float64(sums[3])
		e.stats.HoldoutRecords += sums[3]
		e.stats.HoldoutErr = candRate
		e.live.holdoutRecords.Add(sums[3])
		e.live.setHoldoutErr(candRate)
		if e.lastPubBlob != nil {
			lastRate := float64(sums[2]) / float64(sums[3])
			if candRate > lastRate+e.cfg.GateTolerance {
				publish = false
				e.stats.GateSkips++
				e.live.gateSkips.Add(1)
				e.cfg.Logf("stream: rank %d: window %d publish gated: candidate holdout error %.4f vs last published (window %d) %.4f, tolerance %.4f",
					e.c.Rank(), e.window, candRate, e.lastPubWin, lastRate, e.cfg.GateTolerance)
			}
		}
		if e.det.observe(candRate, e.cfg.DriftDelta, e.cfg.DriftLambda) {
			e.det.reset()
			e.driftPending = true
			e.stats.DriftFires++
			if e.stats.FirstDriftWindow == 0 {
				e.stats.FirstDriftWindow = e.window
			}
			e.live.driftFires.Add(1)
			e.cfg.Logf("stream: rank %d: window %d drift detected (holdout error %.4f): scheduling adaptive refresh",
				e.c.Rank(), e.window, candRate)
		}
	}

	// Publish before checkpointing: a crash between the two replays the
	// window and rewrites the identical model, whereas the opposite order
	// could commit a window whose model never reached the registry. A
	// gated window skips both the file write and the last-published
	// update — serving (and the next window's gate baseline) keep the
	// last good model.
	if publish && e.tree != nil {
		// One encoding feeds both the published file and the checkpoint,
		// and the candidate's compile is the gate baseline: both are
		// snapshots, which the baseline must be, since frontier growth
		// mutates e.tree in place and would make every grown candidate
		// compare against itself. Without holdout scoring nothing
		// compiled the candidate yet; the compile then also routes the
		// next window's frontier.
		blob := tree.Encode(e.tree)
		if err := e.publish(blob); err != nil {
			return err
		}
		if e.flat == nil {
			e.flat = tree.Compile(e.tree)
		}
		e.lastPubBlob, e.lastPubWin, e.lastPubFlat = blob, e.window, e.flat
	}
	if e.cfg.CheckpointDir != "" {
		// The window's model is on disk before its checkpoint can be.
		if err := e.joinPublish(); err != nil {
			return err
		}
		if err := e.checkpoint(); err != nil {
			return err
		}
	}
	e.live.set(e)
	e.cfg.Logf("stream: rank %d: window %d committed (%s%s, reservoir %d, tree %s)",
		e.c.Rank(), e.window, map[bool]string{true: "refresh", false: "grow"}[refresh],
		map[bool]string{true: "", false: ", publish gated"}[publish], len(e.reservoir), treeShape(e.tree))
	return nil
}

// sampleEntry is one reservoir candidate of a window's merged samples.
type sampleEntry struct {
	idx int64
	rec record.Record
}

// mergeSamples all-gathers every rank's window sample and appends the
// union to the reservoir in global-index order — the canonical order that
// makes the reservoir (and everything derived from it) independent of the
// rank count.
func (e *engine) mergeSamples() error {
	if len(e.samples) == 0 {
		e.samples = append(e.samples, 0, 0, 0, 0)
	}
	n := (len(e.samples) - 4) / (8 + e.cfg.Schema.RecordBytes())
	binary.LittleEndian.PutUint32(e.samples, uint32(n))
	blocks, err := comm.AllGather(e.c, e.samples)
	// The all-gather copied the payload out (or, alone, hands it back):
	// every block decodes below, before the next window appends to it.
	e.samples = e.samples[:4]
	if err != nil {
		return err
	}
	entries := e.merged[:0]
	for _, raw := range blocks {
		idxs, recs, err := decodeSamples(raw, e.cfg.Schema)
		if err != nil {
			return err
		}
		for i := range idxs {
			entries = append(entries, sampleEntry{idxs[i], recs[i]})
		}
	}
	// Global index order is the canonical reservoir order; indices are
	// unique, so the sort is total and identical on every rank.
	slices.SortFunc(entries, func(a, b sampleEntry) int { return cmp.Compare(a.idx, b.idx) })
	for _, en := range entries {
		e.reservoir = append(e.reservoir, en.rec)
	}
	e.evict(len(entries))
	clear(entries)
	e.merged = entries[:0]
	return nil
}

// evict drops the oldest reservoir records over ReservoirCap once added
// records were appended, and keeps the sorted columns in step.
func (e *engine) evict(added int) {
	over := max(len(e.reservoir)-e.cfg.ReservoirCap, 0)
	if over > 0 {
		// Evict the oldest in place; nothing holds the reservoir across
		// windows but e.reservoir itself.
		n := copy(e.reservoir, e.reservoir[over:])
		clear(e.reservoir[n:])
		e.reservoir = e.reservoir[:n]
	}
	e.cols.admit(e.reservoir, over, min(added, len(e.reservoir)))
}

// refreshTree rebuilds the model over the replicated reservoir: the tree
// clouds.BuildInCore builds over it, started from the kept sorted columns
// instead of a fresh sort. The ranks share the build (the paper's delayed
// task parallelism for small nodes): every rank builds the replicated top
// of the tree down to cut depth ⌈log₂ p⌉ + 1, the nodes there are assigned
// to ranks longest first (dnc.AssignTasks), each rank builds its own, and
// one all-gather hands every subtree to every rank. The cut, the tasks and
// their owners are functions of replicated state, so every rank agrees on
// them and on whether there is a collective at all (none at p = 1, or when
// no node reaches the cut); the tree's bytes depend on neither p nor the
// cut.
func (e *engine) refreshTree() error {
	if len(e.reservoir) == 0 {
		e.cfg.Logf("stream: rank %d: refresh skipped, empty reservoir", e.c.Rank())
		return nil
	}
	schema, cfg, n := e.cfg.Schema, e.cfg.Clouds, len(e.reservoir)
	if !e.cols.valid {
		e.cols.rebuild(e.reservoir, schema.NumNumeric())
	}
	// The sample is the one clouds.BuildInCore would draw, taken from the
	// same columns.
	rs := &e.refresh
	rs.inSample = resized(rs.inSample, n)
	clear(rs.inSample)
	for _, r := range cfg.SampleRows(n) {
		rs.inSample[r] = true
	}
	rs.data = clouds.NewPresorted(e.reservoir, e.cols.cols, nil, rs.data)
	rs.sample = clouds.NewPresorted(e.reservoir, e.cols.cols, rs.inSample, rs.sample)
	p, rank := e.c.Size(), e.c.Rank()
	cut := 0
	if p > 1 {
		cut = bits.Len(uint(p-1)) + 1
	}
	t, tasks := clouds.BuildTop(cfg, schema, rs.data, rs.sample, cut)
	if len(tasks) > 0 {
		// Zero-padded preorder IDs break LPT's ties in preorder.
		sizes := make([]dnc.Task, len(tasks))
		for i, tk := range tasks {
			sizes[i] = dnc.Task{ID: fmt.Sprintf("%06d", i), Depth: tk.Depth, N: int64(tk.Data.Len())}
		}
		owner := dnc.AssignTasks(sizes, p)
		built := make([][]byte, len(tasks))
		for i, tk := range tasks {
			if owner[i] == rank {
				nd, _ := clouds.BuildSubtree(cfg, schema, tk.Data, tk.Sample, tk.Depth, int64(n))
				built[i] = tree.Encode(&tree.Tree{Schema: schema, Root: nd})
			}
		}
		blocks, err := comm.AllGather(e.c, tree.EncodeSubtrees(built))
		if err != nil {
			return err
		}
		if err := tree.AttachSubtrees(schema, blocks, len(tasks), func(i int, root *tree.Node) { tasks[i].Attach(root) }); err != nil {
			return fmt.Errorf("stream: refresh subtrees: %w", err)
		}
	}
	e.tree = t
	e.stats.Refreshes++
	e.live.refreshes.Add(1)
	return nil
}

// growFrontier merges every rank's window sketches in one all-reduce and
// applies identical split decisions: a frontier leaf with enough window
// evidence becomes an internal node whose children carry the window's
// class partition (the merged statistics that justified the split — a
// split node's counts restart from the deciding window so that record
// conservation stays exact). Leaves that don't split absorb their window
// counts; ancestors are recomputed bottom-up.
func (e *engine) growFrontier() error {
	// The merged counts overwrite each leaf's local ones in place: the
	// frontier is rebuilt before the next window counts into it.
	if _, err := comm.AllReduceInt64(e.c, e.sketchVector(), histogram.MergeCount); err != nil {
		return err
	}
	e.stats.SketchBytes += 8 * int64(len(e.sketch))
	e.live.sketchBytes.Add(8 * int64(len(e.sketch)))
	for l := range e.frontier {
		fl := &e.frontier[l]
		fl.stats.N = e.sketch[fl.off]
		e.applyLeaf(fl)
	}
	recomputeCounts(e.tree.Root)
	return nil
}

// sketchVector returns the sketch all-reduce's payload: the vector every
// frontier leaf's counters are carved from, each leaf's Flatten vector in
// preorder, once each leaf's N, the one count that lives outside it, is
// stored in its slot.
func (e *engine) sketchVector() []int64 {
	for l := range e.frontier {
		e.sketch[e.frontier[l].off] = e.frontier[l].stats.N
	}
	return e.sketch
}

// applyLeaf folds one leaf's merged window statistics into the tree.
func (e *engine) applyLeaf(fl *frontierLeaf) {
	nd, g := fl.node, &fl.stats
	if g.N == 0 {
		return
	}
	mayGrow := g.N >= e.cfg.GrowMinRecords &&
		(e.cfg.Clouds.MaxDepth == 0 || fl.depth < e.cfg.Clouds.MaxDepth) &&
		!e.cfg.Clouds.ShouldStop(g.Class, g.N, fl.depth)
	if mayGrow {
		if cand := clouds.BestBoundarySplit(g); cand.Valid && cand.LeftN > 0 && cand.LeftN < g.N {
			left := &tree.Node{ClassCounts: append([]int64(nil), cand.LeftCounts...), N: cand.LeftN}
			right := &tree.Node{ClassCounts: make([]int64, len(g.Class)), N: g.N - cand.LeftN}
			for c := range g.Class {
				right.ClassCounts[c] = g.Class[c] - cand.LeftCounts[c]
			}
			left.Class, right.Class = left.Majority(), right.Majority()
			nd.Splitter = cand.Splitter()
			nd.Left, nd.Right = left, right
			e.stats.Grown++
			e.live.grown.Add(1)
			return
		}
	}
	for c := range nd.ClassCounts {
		nd.ClassCounts[c] += g.Class[c]
	}
	nd.N += g.N
}

// recomputeCounts restores the record-conservation invariant bottom-up
// after leaves were updated or split: every internal node's counts are the
// element-wise sum of its children's, and every Class is the majority.
func recomputeCounts(n *tree.Node) {
	if n.IsLeaf() {
		n.Class = n.Majority()
		return
	}
	recomputeCounts(n.Left)
	recomputeCounts(n.Right)
	n.N = n.Left.N + n.Right.N
	for c := range n.ClassCounts {
		n.ClassCounts[c] = n.Left.ClassCounts[c] + n.Right.ClassCounts[c]
	}
	n.Class = n.Majority()
}

// publish starts writing the committed window's model, blob its
// tree.Encode bytes, into PublishDir (rank 0 only; the model is
// replicated, so one writer suffices and the registry sees exactly one
// atomic rename per window). The write runs behind the next window: it
// owns the file bytes alone and reads nothing of the engine, whose tree
// the next window's growth mutates in place. It first joins the previous
// write, so one is in flight at a time and the registry sees the windows
// in order.
func (e *engine) publish(blob []byte) error {
	if e.cfg.PublishDir == "" || e.c.Rank() != 0 {
		return nil
	}
	if err := e.joinPublish(); err != nil {
		return err
	}
	file, err := tree.FileBytes(e.cfg.Schema, blob)
	if err != nil {
		return fmt.Errorf("stream: publishing window %d: %w", e.window, err)
	}
	name := filepath.Join(e.cfg.PublishDir, fmt.Sprintf("model-w%06d.tree", e.window))
	done, window := make(chan publishDone, 1), e.window
	go func() {
		start := time.Now()
		err := durable.WriteFile(name, file)
		done <- publishDone{window: window, took: time.Since(start), err: err}
	}()
	e.pending = done
	return nil
}

// publishDone is the outcome of one model write.
type publishDone struct {
	window int
	took   time.Duration
	err    error
}

// joinPublish waits for the in-flight model write, if any, and accounts
// for it; a failed write fails the rank here.
func (e *engine) joinPublish() error {
	if e.pending == nil {
		return nil
	}
	p := <-e.pending
	e.pending = nil
	if p.err != nil {
		return fmt.Errorf("stream: publishing window %d: %w", p.window, p.err)
	}
	e.pubHist.Observe(p.took.Seconds())
	e.stats.Published++
	e.live.published.Add(1)
	return nil
}

// misclassified counts the records of recs that flat does not classify as
// their class.
func (e *engine) misclassified(flat *tree.Compiled, recs []record.Record) int64 {
	e.classes = resized(e.classes, len(recs))
	flat.ClassifyBatch(recs, e.classes)
	var n int64
	for i, r := range recs {
		if e.classes[i] != r.Class {
			n++
		}
	}
	return n
}

func treeShape(t *tree.Tree) string {
	if t == nil {
		return "none"
	}
	return fmt.Sprintf("%d nodes depth %d", t.NumNodes(), t.Depth())
}

func decodeSamples(src []byte, schema *record.Schema) ([]int64, []record.Record, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("stream: truncated sample block")
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	rb := schema.RecordBytes()
	if len(src) != n*(8+rb) {
		return nil, nil, fmt.Errorf("stream: sample block %d bytes for %d records", len(src), n)
	}
	idxs := make([]int64, n)
	recs := make([]record.Record, n)
	// Every record's columns are carved from two arrays, which Decode
	// fills in place.
	nNum, nCat := schema.NumNumeric(), schema.NumCategorical()
	nums, cats := make([]float64, n*nNum), make([]int32, n*nCat)
	for i := 0; i < n; i++ {
		recs[i].Num = nums[i*nNum : (i+1)*nNum : (i+1)*nNum]
		recs[i].Cat = cats[i*nCat : (i+1)*nCat : (i+1)*nCat]
		idxs[i] = int64(binary.LittleEndian.Uint64(src))
		src = src[8:]
		if _, err := recs[i].Decode(schema, src[:rb]); err != nil {
			return nil, nil, err
		}
		if err := recs[i].Validate(schema); err != nil {
			return nil, nil, fmt.Errorf("stream: sample of record %d: %w", idxs[i], err)
		}
		src = src[rb:]
	}
	return idxs, recs, nil
}

func sumI64(a, b int64) int64 { return a + b }
