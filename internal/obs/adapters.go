package obs

import (
	"pclouds/internal/comm"
	"pclouds/internal/ooc"
)

// RegisterCommStats wires a live comm.Stats source (typically
// Communicator.Stats, or a closure over an atomically repointed transport)
// onto reg as pclouds_comm_* series: aggregate message/byte/wait counters,
// the fault-tolerance counters (heartbeats, peer downs, generation-fencing
// rejects), and the per-collective breakdown. Values are read at scrape
// time, so the series track a build live. Registration is idempotent; the
// latest source wins.
func RegisterCommStats(reg *Registry, fn func() comm.Stats) {
	get := func(sel func(comm.Stats) float64) func() float64 {
		return func() float64 { return sel(fn()) }
	}

	msgs := reg.Counter("pclouds_comm_msgs_total", "Transport messages by direction.", "dir")
	msgs.Func(get(func(s comm.Stats) float64 { return float64(s.MsgsSent) }), "sent")
	msgs.Func(get(func(s comm.Stats) float64 { return float64(s.MsgsRecv) }), "recv")

	bytes := reg.Counter("pclouds_comm_bytes_total", "Transport payload bytes by direction (bytes on the wire).", "dir")
	bytes.Func(get(func(s comm.Stats) float64 { return float64(s.BytesSent) }), "sent")
	bytes.Func(get(func(s comm.Stats) float64 { return float64(s.BytesRecv) }), "recv")

	reg.Counter("pclouds_comm_wait_seconds_total", "Wall seconds blocked in Recv.").
		Func(get(func(s comm.Stats) float64 { return s.WaitSec }))

	hb := reg.Counter("pclouds_comm_heartbeats_total", "Failure-detector heartbeat frames by direction.", "dir")
	hb.Func(get(func(s comm.Stats) float64 { return float64(s.HeartbeatsSent) }), "sent")
	hb.Func(get(func(s comm.Stats) float64 { return float64(s.HeartbeatsRecv) }), "recv")

	reg.Counter("pclouds_comm_peer_downs_total", "Peers this rank declared down.").
		Func(get(func(s comm.Stats) float64 { return float64(s.PeerDowns) }))
	reg.Counter("pclouds_comm_generation_rejects_total", "Connections fenced off for carrying a stale build generation.").
		Func(get(func(s comm.Stats) float64 { return float64(s.GenerationRejects) }))

	opBytes := reg.Counter("pclouds_comm_op_bytes_total", "Payload bytes by collective primitive and direction.", "op", "dir")
	opWait := reg.Counter("pclouds_comm_op_wait_seconds_total", "Blocked-wait seconds by collective primitive.", "op")
	for cl := comm.OpClass(0); cl < comm.NumOpClasses; cl++ {
		cl := cl
		opBytes.Func(get(func(s comm.Stats) float64 { return float64(s.Ops[cl].BytesSent) }), cl.String(), "sent")
		opBytes.Func(get(func(s comm.Stats) float64 { return float64(s.Ops[cl].BytesRecv) }), cl.String(), "recv")
		opWait.Func(get(func(s comm.Stats) float64 { return s.Ops[cl].WaitSec }), cl.String())
	}
}

// RegisterIOStats wires a live ooc.IOStats source (typically Store.Stats)
// onto reg as pclouds_io_* series, labelled with the store name. The
// io-wait series is the async-pipeline stall accounting the phase reports
// use, exposed continuously.
func RegisterIOStats(reg *Registry, store string, fn func() ooc.IOStats) {
	get := func(sel func(ooc.IOStats) float64) func() float64 {
		return func() float64 { return sel(fn()) }
	}
	ops := reg.Counter("pclouds_io_ops_total", "Disk operations by store and direction.", "store", "dir")
	ops.Func(get(func(s ooc.IOStats) float64 { return float64(s.ReadOps) }), store, "read")
	ops.Func(get(func(s ooc.IOStats) float64 { return float64(s.WriteOps) }), store, "write")

	bytes := reg.Counter("pclouds_io_bytes_total", "Disk bytes by store and direction.", "store", "dir")
	bytes.Func(get(func(s ooc.IOStats) float64 { return float64(s.ReadBytes) }), store, "read")
	bytes.Func(get(func(s ooc.IOStats) float64 { return float64(s.WriteBytes) }), store, "write")

	reg.Counter("pclouds_io_wait_seconds_total", "Wall seconds stalled on the async I/O pipeline.", "store").
		Func(get(func(s ooc.IOStats) float64 { return s.WaitSec }), store)
}

// RegisterIntegrityStats wires a live ooc.IntegrityStats source (typically
// VerifyingBackend.Stats) onto reg as pclouds_integrity_* series, labelled
// with the store name. The corruption counter is the one to alert on: it
// only moves when a checksum failure exhausted the retry budget and
// surfaced to the build.
func RegisterIntegrityStats(reg *Registry, store string, fn func() ooc.IntegrityStats) {
	get := func(sel func(ooc.IntegrityStats) float64) func() float64 {
		return func() float64 { return sel(fn()) }
	}
	frames := reg.Counter("pclouds_integrity_frames_total", "Checksummed frames by store and direction.", "store", "dir")
	frames.Func(get(func(s ooc.IntegrityStats) float64 { return float64(s.FramesWritten) }), store, "write")
	frames.Func(get(func(s ooc.IntegrityStats) float64 { return float64(s.FramesRead) }), store, "read")

	reg.Counter("pclouds_integrity_retries_total", "Frame reads retried after an error or checksum mismatch.", "store").
		Func(get(func(s ooc.IntegrityStats) float64 { return float64(s.Retries) }), store)
	reg.Counter("pclouds_integrity_corruptions_total", "Checksum failures that exhausted retries and surfaced.", "store").
		Func(get(func(s ooc.IntegrityStats) float64 { return float64(s.Corruptions) }), store)
}
