package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
)

// LevelProgress is one rank's telemetry for one completed tree level of a
// build: how much frontier remains, and the level's deltas of the counters
// the paper's evaluation cares about (records routed, split evaluations,
// bytes on the wire, io-wait). Builders emit one record per level as the
// level completes, so an operator tailing the stream sees the build move.
type LevelProgress struct {
	Rank  int `json:"rank"`
	Level int `json:"level"`
	// Frontier is the number of large-node tasks remaining after this
	// level; SmallPending the small tasks deferred so far. Both are global
	// (identical on every rank of an SPMD build).
	Frontier     int `json:"frontier"`
	SmallPending int `json:"small_pending"`
	// RecordsRouted is this rank's level delta of records shipped to other
	// ranks; SplitEvals the large nodes whose split this level derived.
	RecordsRouted int64 `json:"records_routed"`
	SplitEvals    int64 `json:"split_evals"`
	// CommBytes and IOWaitSec are this rank's level deltas of bytes sent
	// and async-pipeline stall seconds.
	CommBytes int64   `json:"comm_bytes"`
	IOWaitSec float64 `json:"io_wait_s"`
	// Collectives is the number of collective operations this rank entered
	// during the level (comm.Stats.Ops[*].Calls) — the level's rounds. A
	// level-synchronous build pays the same few whatever the frontier's
	// width.
	Collectives int64 `json:"collectives"`
	// WallSec and SimSec are the level's duration on this rank.
	WallSec float64 `json:"wall_s"`
	SimSec  float64 `json:"sim_s"`
	// Checkpoint is the level's checkpoint outcome: "ok", "failed"
	// (degraded mode: write skipped), or "" when checkpointing is off.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// ProgressWriter emits LevelProgress records as JSON lines. It is safe for
// concurrent use (simulated builds run many ranks in one process) and safe
// as a nil receiver, which disables it.
type ProgressWriter struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	err error
}

// NewProgressWriter wraps w. If w is also an io.Closer, Close closes it.
func NewProgressWriter(w io.Writer) *ProgressWriter {
	pw := &ProgressWriter{w: w}
	if c, ok := w.(io.Closer); ok {
		pw.c = c
	}
	return pw
}

// CreateProgressFile creates path and returns a writer emitting to it.
func CreateProgressFile(path string) (*ProgressWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewProgressWriter(f), nil
}

// Write emits one record as a JSON line. Errors are sticky: the first one
// is remembered and returned by Close, so emitters on the build's hot path
// don't have to check every line.
func (p *ProgressWriter) Write(rec LevelProgress) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		p.err = err
		return
	}
	line = append(line, '\n')
	if _, err := p.w.Write(line); err != nil {
		p.err = err
	}
}

// Close flushes the underlying writer and returns the first error seen.
func (p *ProgressWriter) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		if err := p.c.Close(); err != nil && p.err == nil {
			p.err = err
		}
		p.c = nil
	}
	return p.err
}

// Emit returns a callback writing to p, shaped for pclouds.Config.Progress.
// A nil p returns nil (telemetry off).
func (p *ProgressWriter) Emit() func(LevelProgress) {
	if p == nil {
		return nil
	}
	return p.Write
}

// mergedLevel aggregates one level across ranks for the rank-0 report.
type mergedLevel struct {
	level, frontier, smallPending int
	records, splits, commBytes    int64
	collectives                   int64 // the busiest rank's
	ioWait                        float64
	maxWall, maxSim               float64
	ranks                         int
	// checkpoint outcomes seen across ranks ("ok"/"failed"), worst wins.
	ckptOK, ckptFailed int
}

// renderLevelTable renders gathered per-level records (all ranks) as the
// per-level section of the rank-0 merged report: one row per level with
// group-total routed records, split evaluations, comm bytes and io-wait,
// the collectives one rank entered (the level's rounds), the slowest rank's
// wall/sim seconds, and the checkpoint outcome.
func renderLevelTable(all []LevelProgress) string {
	if len(all) == 0 {
		return ""
	}
	byLevel := make(map[int]*mergedLevel)
	var order []int
	for _, lp := range all {
		m, ok := byLevel[lp.Level]
		if !ok {
			m = &mergedLevel{level: lp.Level}
			byLevel[lp.Level] = m
			order = append(order, lp.Level)
		}
		m.ranks++
		// Frontier sizes are global and identical across ranks; keep one.
		m.frontier = lp.Frontier
		m.smallPending = lp.SmallPending
		m.records += lp.RecordsRouted
		m.splits += lp.SplitEvals
		m.commBytes += lp.CommBytes
		m.collectives = max(m.collectives, lp.Collectives)
		m.ioWait += lp.IOWaitSec
		if lp.WallSec > m.maxWall {
			m.maxWall = lp.WallSec
		}
		if lp.SimSec > m.maxSim {
			m.maxSim = lp.SimSec
		}
		switch lp.Checkpoint {
		case "ok":
			m.ckptOK++
		case "failed":
			m.ckptFailed++
		}
	}
	sort.Ints(order)

	var sb strings.Builder
	sb.WriteString("per-level progress (group totals; collectives are per rank, wall/sim the slowest rank's seconds)\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "level\tfrontier\tsmall\tsplit-evals\trouted\tcomm-bytes\tcollectives\tio-wait-s\twall-max\tsim-max\tckpt")
	for _, lv := range order {
		m := byLevel[lv]
		ckpt := "-"
		switch {
		case m.ckptFailed > 0:
			ckpt = fmt.Sprintf("failed(%d)", m.ckptFailed)
		case m.ckptOK > 0:
			ckpt = "ok"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%s\n",
			m.level, m.frontier, m.smallPending, m.splits, m.records,
			m.commBytes, m.collectives, m.ioWait, m.maxWall, m.maxSim, ckpt)
	}
	if err := tw.Flush(); err != nil {
		return ""
	}
	return sb.String()
}
