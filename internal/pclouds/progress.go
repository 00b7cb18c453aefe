package pclouds

import (
	"strconv"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/obs"
)

// levelMeter snapshots the counters a level's progress record is the delta
// of. One is armed at the start of each frontier level and finished after
// the level's checkpoint commits, so the record carries the level's own
// traffic, shipping and io-wait rather than running totals.
type levelMeter struct {
	wallStart    time.Time
	simStart     float64
	commBytes    int64
	collectives  int64
	shipped      int64
	largeNodes   int
	ioWait       float64
	ckptFailures int
	ckptPruned   int
}

// collectiveCalls sums the per-class collective invocation counters.
func collectiveCalls(s comm.Stats) int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.Calls
	}
	return n
}

func (b *pbuilder) startLevel() levelMeter {
	cs := b.c.Stats()
	return levelMeter{
		wallStart:    time.Now(),
		simStart:     b.c.Clock().Time(),
		commBytes:    cs.BytesSent,
		collectives:  collectiveCalls(cs),
		shipped:      b.stats.RecordsShipped,
		largeNodes:   b.stats.LargeNodes,
		ioWait:       b.store.Stats().WaitSec,
		ckptFailures: b.stats.CheckpointFailures,
		ckptPruned:   b.stats.CheckpointsPruned,
	}
}

// finishLevel turns the meter into the level's progress record, appends it
// to Stats.Levels, and feeds the configured sinks (callback + registry).
func (b *pbuilder) finishLevel(m levelMeter, level, frontier, smallPending int) {
	cs := b.c.Stats()
	lp := obs.LevelProgress{
		Rank:          b.c.Rank(),
		Level:         level,
		Frontier:      frontier,
		SmallPending:  smallPending,
		RecordsRouted: b.stats.RecordsShipped - m.shipped,
		SplitEvals:    int64(b.stats.LargeNodes - m.largeNodes),
		CommBytes:     cs.BytesSent - m.commBytes,
		Collectives:   collectiveCalls(cs) - m.collectives,
		IOWaitSec:     b.store.Stats().WaitSec - m.ioWait,
		WallSec:       time.Since(m.wallStart).Seconds(),
		SimSec:        b.c.Clock().Time() - m.simStart,
	}
	if b.cfg.CheckpointDir != "" {
		if b.stats.CheckpointFailures > m.ckptFailures {
			lp.Checkpoint = "failed"
		} else {
			lp.Checkpoint = "ok"
		}
	}
	b.stats.Levels = append(b.stats.Levels, lp)
	if b.cfg.Progress != nil {
		b.cfg.Progress(lp)
	}
	b.updateMetrics(lp, b.stats.CheckpointsPruned-m.ckptPruned)
}

// updateMetrics mirrors the level record onto the live metrics registry.
func (b *pbuilder) updateMetrics(lp obs.LevelProgress, prunedDelta int) {
	reg := b.cfg.Metrics
	if reg == nil {
		return
	}
	rank := strconv.Itoa(lp.Rank)
	reg.Gauge("pclouds_build_level", "Last completed tree level of the running build.", "rank").
		With(rank).Set(float64(lp.Level))
	reg.Gauge("pclouds_build_frontier", "Large-node tasks remaining after the last completed level.", "rank").
		With(rank).Set(float64(lp.Frontier))
	reg.Gauge("pclouds_build_small_pending", "Small-node tasks deferred so far.", "rank").
		With(rank).Set(float64(lp.SmallPending))
	reg.Counter("pclouds_build_split_evals_total", "Large-node splits derived.", "rank").
		With(rank).Add(float64(lp.SplitEvals))
	reg.Counter("pclouds_build_records_routed_total", "Records shipped to other ranks.", "rank").
		With(rank).Add(float64(lp.RecordsRouted))
	if lp.Checkpoint != "" {
		reg.Counter("pclouds_checkpoints_total", "Per-level checkpoint commits by outcome.", "rank", "outcome").
			With(rank, lp.Checkpoint).Inc()
	}
	if prunedDelta > 0 {
		reg.Counter("pclouds_checkpoints_pruned_total", "Checkpoint levels garbage-collected.", "rank").
			With(rank).Add(float64(prunedDelta))
	}
	reg.Gauge("pclouds_checkpoints_kept", "Checkpoint levels currently retained.", "rank").
		With(rank).Set(float64(b.stats.CheckpointsKept))
}
