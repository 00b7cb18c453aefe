package stream

import (
	"math"
	"sync/atomic"

	"pclouds/internal/obs"
)

// liveMetrics is the engine's live telemetry: atomics the hot path bumps
// and scrape-time Func closures read, the same pull pattern the batch
// build's vars use. All fields are safe to use with a nil registry (the
// atomics still count; nothing is exported).
type liveMetrics struct {
	records        atomic.Int64
	sketchBytes    atomic.Int64
	refreshes      atomic.Int64
	grown          atomic.Int64
	published      atomic.Int64
	windows        atomic.Int64
	reservoir      atomic.Int64
	holdoutRecords atomic.Int64
	holdoutErr     atomic.Uint64 // float64 bits of the last window's rate
	driftFires     atomic.Int64
	gateSkips      atomic.Int64
}

func newLiveMetrics(reg *obs.Registry, e *engine) *liveMetrics {
	lm := &liveMetrics{}
	if reg == nil {
		return lm
	}
	reg.Counter("pclouds_stream_records_total", "Stream records this rank owned and processed.").
		Func(func() float64 { return float64(lm.records.Load()) })
	reg.Counter("pclouds_stream_sketch_bytes_total", "Bytes this rank contributed to frontier sketch all-reduces.").
		Func(func() float64 { return float64(lm.sketchBytes.Load()) })
	reg.Counter("pclouds_stream_refreshes_total", "Full reservoir rebuilds.").
		Func(func() float64 { return float64(lm.refreshes.Load()) })
	reg.Counter("pclouds_stream_growths_total", "Frontier leaves split from window sketches.").
		Func(func() float64 { return float64(lm.grown.Load()) })
	reg.Counter("pclouds_stream_published_total", "Models published into the registry directory.").
		Func(func() float64 { return float64(lm.published.Load()) })
	reg.Counter("pclouds_stream_windows_total", "Committed windows.").
		Func(func() float64 { return float64(lm.windows.Load()) })
	reg.Gauge("pclouds_stream_reservoir_records", "Records currently retained in the sample reservoir.").
		Func(func() float64 { return float64(lm.reservoir.Load()) })
	reg.Counter("pclouds_stream_holdout_records_total", "Held-out records scored against window candidates (global).").
		Func(func() float64 { return float64(lm.holdoutRecords.Load()) })
	reg.Gauge("pclouds_stream_holdout_error_rate", "Last window's candidate error rate on the holdout slice.").
		Func(func() float64 { return math.Float64frombits(lm.holdoutErr.Load()) })
	reg.Counter("pclouds_stream_drift_fires_total", "Page-Hinkley drift alarms (each schedules an adaptive refresh).").
		Func(func() float64 { return float64(lm.driftFires.Load()) })
	reg.Counter("pclouds_stream_gate_skips_total", "Windows that committed but were refused publication by the quality gate.").
		Func(func() float64 { return float64(lm.gateSkips.Load()) })
	reg.HistogramVec("pclouds_stream_publish_seconds", "Model publish latency: the model file write, from temp file to directory fsync.",
		obs.ExpBounds(1e-4, 2, 14)).Attach(e.pubHist)
	return lm
}

// set refreshes the state-derived gauges after a window commit or resume.
func (lm *liveMetrics) set(e *engine) {
	lm.windows.Store(int64(e.window))
	lm.reservoir.Store(int64(len(e.reservoir)))
}

// setHoldoutErr publishes the last window's holdout error rate (stored as
// float bits so the scrape-time reader needs no lock).
func (lm *liveMetrics) setHoldoutErr(rate float64) {
	lm.holdoutErr.Store(math.Float64bits(rate))
}
