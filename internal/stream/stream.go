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
//	ingest    scan the global stream, failing on a record outside the
//	          schema; own records with index % p == rank; accumulate
//	          owned records into per-frontier-leaf sketches and a
//	          1-in-SampleEvery reservoir sample.
//	close     exchange window samples (all-gather, merged in global index
//	          order), then either refresh — rebuild via clouds.BuildInCore
//	          over the replicated reservoir, identically on every rank —
//	          or grow: merge all frontier sketches in one all-reduce
//	          (histogram.MergeCount) and apply the same split decisions
//	          everywhere.
//	commit    validate the model and all-reduce the ok votes (sum): all
//	          ranks agree window N is good before model N publishes.
//	publish   rank 0 writes the model atomically (tree.SaveFile) into
//	          PublishDir; every rank checkpoints its replicated state.
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
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
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
	// MinNodeSize, Seed. Refresh builds run clouds.BuildInCore with this
	// configuration over the replicated reservoir — no communication.
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

	// frontier lists the tree's leaves in preorder; frontierOf maps each
	// leaf index of flat to that leaf's frontier position. flat is e.tree
	// compiled, or nil when the tree changed since: the close that scores
	// the holdout compiles its model once, and the next window's frontier
	// routes through that same compile.
	frontier   []*frontierLeaf
	flat       *tree.Compiled
	frontierOf []int32

	// Window-close scratch, reused across windows: the frontier cut
	// construction's buffers, the sketch all-reduce vector, and the
	// holdout scoring's class output.
	cuts    cutScratch
	sketch  []int64
	classes []int32

	// winSampleIdx/winSample accumulate this rank's owned reservoir
	// candidates for the current window; cleared by mergeSamples.
	winSampleIdx []int64
	winSample    []record.Record

	// winHoldout buffers this rank's owned held-out records for the
	// current window (HoldoutEvery > 0); consumed at window close.
	winHoldout []record.Record

	// Drift/gate state, replicated and checkpointed: the Page–Hinkley
	// detector, whether it has scheduled an adaptive refresh for the next
	// window, and the last model that passed the publish gate (with the
	// window it was published at).
	det          phDetector
	driftPending bool
	lastPub      *tree.Tree
	lastPubWin   int
	// lastPubFlat is lastPub compiled, once per publish or resume.
	lastPubFlat *tree.Compiled

	stats   Stats
	pubHist *obs.Histogram
}

// frontierLeaf is one growable leaf of the current tree plus the window's
// sketch accumulating over it.
type frontierLeaf struct {
	node  *tree.Node
	depth int
	stats *clouds.NodeStats
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
	if err := e.loop(); err != nil {
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
	e.lastPub, e.lastPubWin = st.lastPub, st.lastPubWin
	if e.lastPub != nil {
		e.lastPubFlat = tree.Compile(e.lastPub)
	}
	e.stats.ResumedAt = st.window
	e.live.set(e)
	var rec record.Record
	for i := int64(0); i < st.nextIdx; i++ {
		ok, err := e.src.Next(&rec)
		if err != nil {
			return fmt.Errorf("stream: replaying to checkpoint high-water %d: %w", st.nextIdx, err)
		}
		if !ok {
			return fmt.Errorf("stream: source ended at record %d while replaying to checkpoint high-water %d", i, st.nextIdx)
		}
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
			e.frontier, e.frontierOf = nil, nil
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

// ingestWindow scans the stream to the window boundary, accumulating owned
// records into the frontier sketches and the window's reservoir sample.
// It returns how many global records this window scanned and whether the
// source ended inside the window.
func (e *engine) ingestWindow() (scanned int64, streamEnd bool, err error) {
	p, rank := e.c.Size(), e.c.Rank()
	var rec record.Record
	consume := func() (bool, error) {
		ok, err := e.src.Next(&rec)
		if err != nil || !ok {
			return ok, err
		}
		idx := e.nextIdx
		// Every rank scans every record, so every rank refuses a record
		// outside the schema at the same index, before any collective.
		if err := rec.Validate(e.cfg.Schema); err != nil {
			return false, fmt.Errorf("stream: global record %d: %w", idx, err)
		}
		e.nextIdx++
		scanned++
		e.stats.Scanned++
		if e.cfg.RecordHook != nil {
			e.cfg.RecordHook(e.window, idx)
		}
		if idx%int64(p) == int64(rank) {
			e.stats.Records++
			e.live.records.Add(1)
			if holdoutIdx(idx, e.cfg.HoldoutEvery) {
				// Held out of training entirely: scored against the
				// window's candidate model at close, then discarded.
				e.winHoldout = append(e.winHoldout, rec.Clone())
				return true, nil
			}
			if e.frontier != nil {
				e.frontier[e.route(rec)].stats.Add(rec)
			}
			if idx%int64(e.cfg.SampleEvery) == 0 {
				e.winSampleIdx = append(e.winSampleIdx, idx)
				e.winSample = append(e.winSample, rec.Clone())
			}
		}
		return true, nil
	}

	if e.cfg.WindowDuration > 0 {
		// Time-based: ingest until the local deadline, then agree on the
		// boundary (the furthest position any rank reached) and catch up.
		deadline := time.Now().Add(e.cfg.WindowDuration)
		for time.Now().Before(deadline) {
			if e.stopped() {
				return scanned, false, ErrStopped
			}
			ok, err := consume()
			if err != nil {
				return scanned, false, err
			}
			if !ok {
				streamEnd = true
				break
			}
		}
		target, err := comm.AllReduceInt64(e.c, []int64{e.nextIdx}, func(a, b int64) int64 { return max(a, b) })
		if err != nil {
			return scanned, false, err
		}
		for e.nextIdx < target[0] {
			// Some rank has already read these records, so the source can
			// produce them; a clean end before the target is a source that
			// violated the identical-global-stream contract.
			ok, err := consume()
			if err != nil {
				return scanned, false, err
			}
			if !ok {
				return scanned, false, fmt.Errorf("stream: source ended at %d before agreed boundary %d", e.nextIdx, target[0])
			}
		}
		return scanned, streamEnd, nil
	}

	target := e.nextIdx + int64(e.cfg.WindowRecords)
	for e.nextIdx < target {
		if e.stopped() {
			return scanned, false, ErrStopped
		}
		ok, err := consume()
		if err != nil {
			return scanned, false, err
		}
		if !ok {
			return scanned, true, nil
		}
	}
	return scanned, false, nil
}

// route returns the frontier index of the leaf rec lands in.
func (e *engine) route(rec record.Record) int {
	return int(e.frontierOf[e.flat.Leaf(rec)])
}

// buildFrontier enumerates the tree's leaves in preorder and allocates a
// window sketch per leaf. Each leaf's bin edges are its reservoir share's
// quantile cuts merged (histogram.Merge) with the global attribute grid, so
// a leaf whose reservoir share is tiny still has candidate boundaries; a
// leaf's share is the reservoir records routed to it (frontierIntervals).
// Everything here is a deterministic function of replicated state, so all
// ranks build identical shapes — the precondition for the flat sketch
// all-reduce.
func (e *engine) buildFrontier() {
	if e.flat == nil {
		e.flat = tree.Compile(e.tree)
	}
	e.frontierOf = resized(e.frontierOf, e.flat.NumNodes())
	e.frontier = e.frontier[:0]
	i := 0 // the preorder index Walk is at, the compiled node index
	e.tree.Walk(func(n *tree.Node, depth int) {
		if n.IsLeaf() {
			e.frontierOf[i] = int32(len(e.frontier))
			e.frontier = append(e.frontier, &frontierLeaf{node: n, depth: depth})
		}
		i++
	})
	leafOf := resized(e.cuts.leafOf, len(e.reservoir))
	for k, r := range e.reservoir {
		leafOf[k] = int32(e.route(r))
	}
	e.cuts.leafOf = leafOf
	ivs := frontierIntervals(e.cfg.Schema, e.reservoir, leafOf, len(e.frontier), e.cfg.Clouds.HistBins, &e.cuts)
	nNum := e.cfg.Schema.NumNumeric()
	for l, fl := range e.frontier {
		fl.stats = clouds.NewNodeStats(e.cfg.Schema, ivs[l*nNum:(l+1)*nNum])
	}
}

// resized returns buf at length n, reusing its array when it is large
// enough; the contents are not cleared.
func resized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// cutScratch holds the frontier cut construction's buffers between
// windows: each reservoir row's leaf, and frontierIntervals' own.
type cutScratch struct {
	leafOf      []int32
	pts         []clouds.Point
	all, shares []float64
	start, next []int
}

// frontierIntervals returns the interval structures each of nLeaves
// frontier leaves counts its sketch over, leaf l's numeric attributes at
// [l*k, (l+1)*k) for k numeric attributes: the q-bin quantile cuts of the
// rows routed to the leaf (leafOf[i] is row i's leaf) merged with the
// q-bin cuts of all rows, the grid. Each column is sorted once
// (clouds.SortPoints, NaN last) and one pass scatters it into the leaves'
// shares, so every share arrives sorted and the cuts come from
// histogram.FromSorted. The cuts are those of histogram.FromSample over
// each share: both drop NaN, and FromSorted stores zero as +0, so the
// order of tied values, the only thing the two sorts can disagree on,
// reaches no cut.
func frontierIntervals(schema *record.Schema, rows []record.Record, leafOf []int32, nLeaves, q int, s *cutScratch) []*histogram.Intervals {
	n, nNum := len(rows), schema.NumNumeric()
	// Leaf l's share is shares[start[l]:start[l+1]], filled up to next[l].
	start := resized(s.start, nLeaves+1)
	clear(start)
	for _, l := range leafOf {
		start[l+1]++
	}
	for l := range nLeaves {
		start[l+1] += start[l]
	}
	next := resized(s.next, nLeaves)
	pts := resized(s.pts, n)
	all := resized(s.all, n)
	shares := resized(s.shares, n)
	s.start, s.next, s.pts, s.all, s.shares = start, next, pts, all, shares

	out := make([]*histogram.Intervals, nLeaves*nNum)
	for j := range nNum {
		for i, r := range rows {
			pts[i] = clouds.Point{V: r.Num[j], Row: int32(i)}
		}
		clouds.SortPoints(pts)
		copy(next, start)
		m := 0
		for _, pt := range pts {
			if pt.V != pt.V {
				break // NaN sorts last: the rest are NaN too
			}
			all[m] = pt.V
			m++
			l := leafOf[pt.Row]
			shares[next[l]] = pt.V
			next[l]++
		}
		grid := histogram.FromSorted(all[:m], q)
		for l := range nLeaves {
			out[l*nNum+j] = histogram.Merge(histogram.FromSorted(shares[start[l]:next[l]], q), grid)
		}
	}
	return out
}

// closeWindow runs the collective close: sample exchange, grow-or-refresh,
// holdout scoring + validation vote (one all-reduce), drift detection,
// publish gate, publish, checkpoint.
func (e *engine) closeWindow(refresh bool) error {
	windowNum := e.window // 0-based index of the window being closed
	holdout := e.winHoldout
	e.winHoldout = e.winHoldout[:0]
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
		if e.lastPub != nil {
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
		if err := e.publish(); err != nil {
			return err
		}
		// The gate baseline must be a snapshot: frontier growth mutates
		// e.tree in place, so aliasing it here would make every grown
		// candidate compare against itself.
		snap, err := tree.Decode(e.cfg.Schema, tree.Encode(e.tree))
		if err != nil {
			return fmt.Errorf("stream: snapshotting published model: %w", err)
		}
		e.lastPub, e.lastPubWin, e.lastPubFlat = snap, e.window, tree.Compile(snap)
	}
	if e.cfg.CheckpointDir != "" {
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

// mergeSamples all-gathers every rank's window sample and appends the
// union to the reservoir in global-index order — the canonical order that
// makes the reservoir (and everything derived from it) independent of the
// rank count.
func (e *engine) mergeSamples() error {
	payload := encodeSamples(e.winSampleIdx, e.winSample, e.cfg.Schema)
	e.winSampleIdx, e.winSample = e.winSampleIdx[:0], e.winSample[:0]
	blocks, err := comm.AllGather(e.c, payload)
	if err != nil {
		return err
	}
	type entry struct {
		idx int64
		rec record.Record
	}
	var entries []entry
	for _, raw := range blocks {
		idxs, recs, err := decodeSamples(raw, e.cfg.Schema)
		if err != nil {
			return err
		}
		for i := range idxs {
			entries = append(entries, entry{idxs[i], recs[i]})
		}
	}
	// Global index order is the canonical reservoir order; indices are
	// unique, so the sort is total and identical on every rank.
	sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
	for _, en := range entries {
		e.reservoir = append(e.reservoir, en.rec)
	}
	if over := len(e.reservoir) - e.cfg.ReservoirCap; over > 0 {
		// Evict the oldest in place; nothing holds the reservoir across
		// windows but e.reservoir itself.
		n := copy(e.reservoir, e.reservoir[over:])
		clear(e.reservoir[n:])
		e.reservoir = e.reservoir[:n]
	}
	return nil
}

// refreshTree rebuilds the model over the replicated reservoir. The build
// is purely local — the reservoir is identical everywhere, so every rank
// computes the identical tree with zero communication.
func (e *engine) refreshTree() error {
	if len(e.reservoir) == 0 {
		e.cfg.Logf("stream: rank %d: refresh skipped, empty reservoir", e.c.Rank())
		return nil
	}
	data := &record.Dataset{Schema: e.cfg.Schema, Records: e.reservoir}
	t, _, err := clouds.BuildInCore(e.cfg.Clouds, data, nil)
	if err != nil {
		return fmt.Errorf("stream: refresh build: %w", err)
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
	e.sketch = e.sketch[:0]
	for _, fl := range e.frontier {
		e.sketch = fl.stats.AppendFlatten(e.sketch)
	}
	gflat, err := comm.AllReduceInt64(e.c, e.sketch, histogram.MergeCount)
	if err != nil {
		return err
	}
	e.stats.SketchBytes += 8 * int64(len(e.sketch))
	e.live.sketchBytes.Add(8 * int64(len(e.sketch)))

	// The merged counts replace each leaf's local ones in place: the
	// frontier is rebuilt before the next window counts into it.
	off := 0
	for _, fl := range e.frontier {
		n := fl.stats.FlatLen()
		if err := fl.stats.Unflatten(gflat[off : off+n]); err != nil {
			return err
		}
		off += n
		e.applyLeaf(fl)
	}
	recomputeCounts(e.tree.Root)
	return nil
}

// applyLeaf folds one leaf's merged window statistics into the tree.
func (e *engine) applyLeaf(fl *frontierLeaf) {
	nd, g := fl.node, fl.stats
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

// publish writes the committed window's model into PublishDir (rank 0
// only; the model is replicated, so one writer suffices and the registry
// sees exactly one atomic rename per window).
func (e *engine) publish() error {
	if e.cfg.PublishDir == "" || e.tree == nil || e.c.Rank() != 0 {
		return nil
	}
	name := filepath.Join(e.cfg.PublishDir, fmt.Sprintf("model-w%06d.tree", e.window))
	start := time.Now()
	if err := tree.SaveFile(e.tree, name); err != nil {
		return fmt.Errorf("stream: publishing window %d: %w", e.window, err)
	}
	e.pubHist.Observe(time.Since(start).Seconds())
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

func encodeSamples(idxs []int64, recs []record.Record, schema *record.Schema) []byte {
	out := make([]byte, 0, 4+len(recs)*(8+schema.RecordBytes()))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(recs)))
	for i, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, uint64(idxs[i]))
		out = r.Encode(out)
	}
	return out
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
	for i := 0; i < n; i++ {
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
