package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// buildParams sizes one batch-build workload. The generator seed is part
// of the workload, not of -seed: under Agrawal function 2 the tree's shape
// (12 to 26 large nodes on build-scan) and with it the amount of work
// changes by ±25% from one generator seed to the next, which would drown
// any code change. -seed drives the record order (so each rank's partition
// and every page's contents) and the sampling seed (so the interval
// boundaries, alive intervals and shipped points).
type buildParams struct {
	rows                    int
	noise                   float64
	dataSeed                int64
	qroot, qmin, sampleSize int
}

func buildParamsFor(r *run) buildParams {
	if r.workload == "build-deep" {
		return buildParams{rows: r.pick(100_000, 4_000), noise: 0.05, dataSeed: 2,
			qroot: 400, qmin: 20, sampleSize: 4000}
	}
	return buildParams{rows: r.pick(500_000, 30_000), noise: 0, dataSeed: 1,
		qroot: 1000, qmin: 50, sampleSize: 10000}
}

type buildEnv struct {
	dir    string
	data   *record.Dataset
	sample []record.Record
	cfg    clouds.Config
	comms  []*tcpcomm.Comm
	stores []*ooc.Store // the shipped configuration: pipeline on, checksums on
}

func (e *buildEnv) close() {
	closeMesh(e.comms)
	os.RemoveAll(e.dir)
}

// setupBuild does everything that precedes the first timed build: generate
// and order the data, draw the sample, dial the mesh, create each rank's
// store and stage its root file.
func setupBuild(r *run, p buildParams, dir string, parent int) (*buildEnv, error) {
	base, err := generate(p.rows, p.dataSeed, p.noise)
	if err != nil {
		return nil, err
	}
	e := &buildEnv{dir: dir, data: shuffled(base, r.seed)}
	e.cfg = clouds.Config{
		Method: clouds.SSE, Split: clouds.SplitSSE,
		QRoot: p.qroot, QMin: p.qmin, SmallNodeQ: 10, SampleSize: p.sampleSize,
		MaxDepth: 16, MinNodeSize: 2, Seed: r.seed,
	}
	e.sample = e.cfg.SampleFor(e.data)
	id := r.tr.begin(parent, "tcpcomm.Dial", -1)
	e.comms, err = dialMesh(ranks)
	r.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin(parent, "stage", -1)
	e.stores, err = e.newStores("store", storeOptions{pipeline: true, integrity: true, slow: r.slowBackend})
	r.tr.end(id, 0)
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// newStores creates and stages one store per rank.
func (e *buildEnv) newStores(kind string, o storeOptions, meters ...*backendMeter) ([]*ooc.Store, error) {
	stores := make([]*ooc.Store, ranks)
	err := eachRank(ranks, func(rank int) error {
		if meters != nil {
			o.meter = meters[rank]
		}
		s, err := newStore(e.data.Schema, rankDir(e.dir, kind, rank), o)
		if err != nil {
			return err
		}
		stores[rank] = s
		return stageRoot(s, e.data, rank, ranks)
	})
	return stores, err
}

// repOptions selects what one build repetition runs on and records.
type repOptions struct {
	stores    []*ooc.Store
	integrity bool
	// The traced pass sets all three: the wrapped communicators, the meters
	// of the stores' timing backends, and one phase recorder per rank.
	tcomms    []*tracedComm
	meters    []*backendMeter
	recorders []*obs.Recorder
}

type repResult struct {
	start    time.Time // first rank in
	end      time.Time // last rank out
	wall     float64   // seconds from the one to the other
	rankWall []float64 // each rank's own pclouds.Build wall
	encoded  [][]byte  // each rank's tree
	stats    []*pclouds.Stats
	comm     []comm.Stats  // this repetition's traffic, per rank
	io       []ooc.IOStats // this repetition's disk work, per rank
	frames   []int64       // page frames verified on read, per rank
	wrapped  []wrapperView // what the benchmark's wrappers saw, per rank
}

// wrapperView is one rank's build as seen from the benchmark's comm and
// backend wrappers.
type wrapperView struct {
	sendBusy, backendBusy            float64
	sentBytes, readBytes, wroteBytes int64
}

func viewOf(c *tracedComm, m *backendMeter) wrapperView {
	return wrapperView{
		sendBusy: float64(c.sendNs.Load()) / 1e9, backendBusy: m.busySeconds(),
		sentBytes: c.sendBytes.Load(), readBytes: m.readBytes.Load(), wroteBytes: m.writeBytes.Load(),
	}
}

func (v wrapperView) sub(o wrapperView) wrapperView {
	return wrapperView{v.sendBusy - o.sendBusy, v.backendBusy - o.backendBusy,
		v.sentBytes - o.sentBytes, v.readBytes - o.readBytes, v.wroteBytes - o.wroteBytes}
}

// rep runs one parallel build on already staged stores and restages them
// afterwards (the build consumes its root file); only the build is timed.
func (e *buildEnv) rep(o repOptions) (*repResult, error) {
	res := &repResult{
		rankWall: make([]float64, ranks), encoded: make([][]byte, ranks),
		stats: make([]*pclouds.Stats, ranks), comm: make([]comm.Stats, ranks), io: make([]ooc.IOStats, ranks),
		frames: make([]int64, ranks), wrapped: make([]wrapperView, ranks),
	}
	cfg := pclouds.Config{Clouds: e.cfg, Integrity: o.integrity, Warnf: func(string, ...any) {}}
	t0 := time.Now()
	err := eachRank(ranks, func(rank int) error {
		var c comm.Communicator = e.comms[rank]
		rcfg, store := cfg, o.stores[rank]
		var view0 wrapperView
		if o.recorders != nil {
			c, rcfg.Trace = o.tcomms[rank], o.recorders[rank]
			view0 = viewOf(o.tcomms[rank], o.meters[rank])
		}
		var frames0 int64
		if vb := store.Integrity(); vb != nil {
			frames0 = vb.Stats().FramesRead
		}
		comm0, io0 := c.Stats(), store.Stats()
		start := time.Now()
		tr, st, err := pclouds.Build(rcfg, c, store, "root", e.sample)
		res.rankWall[rank] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		res.encoded[rank], res.stats[rank] = tree.Encode(tr), st
		res.comm[rank], res.io[rank] = c.Stats().Sub(comm0), store.Stats().Sub(io0)
		if vb := store.Integrity(); vb != nil {
			res.frames[rank] = vb.Stats().FramesRead - frames0
		}
		if o.recorders != nil {
			res.wrapped[rank] = viewOf(o.tcomms[rank], o.meters[rank]).sub(view0)
		}
		return nil
	})
	res.start, res.end = t0, time.Now()
	res.wall = res.end.Sub(t0).Seconds()
	if err != nil {
		return nil, err
	}
	err = eachRank(ranks, func(rank int) error { return stageRoot(o.stores[rank], e.data, rank, ranks) })
	return res, err
}

// reference builds the sequential in-core tree every rank's tree must equal.
func (e *buildEnv) reference() ([]byte, *tree.Tree, error) {
	ref, _, err := clouds.BuildInCore(e.cfg, e.data, e.sample)
	if err != nil {
		return nil, nil, err
	}
	return tree.Encode(ref), ref, nil
}

// checkReps counts one operation per repetition: it fails when the rank
// trees differ from each other or from the sequential reference.
func checkReps(r *run, reps []*repResult, ref []byte) {
	for i, rep := range reps {
		ok := true
		for rank := range rep.encoded {
			ok = ok && bytes.Equal(rep.encoded[rank], ref)
		}
		r.op(ok, "repetition %d: a rank's tree differs from the sequential reference", i)
	}
}

func runBuild(r *run) error {
	p := buildParamsFor(r)
	if r.traced() {
		return runBuildTraced(r, p)
	}
	n := 0
	env, setups, err := repeatSetup(r.setups(), func() (*buildEnv, error) {
		n++
		return setupBuild(r, p, filepath.Join(r.dir, fmt.Sprintf("setup%d", n)), 0)
	}, (*buildEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	plain := repOptions{stores: env.stores, integrity: true}
	if _, err := env.rep(plain); err != nil { // warm-up
		return err
	}
	var reps []*repResult
	var slices []slice
	log := startStealLog()
	_, err = repsFor(r.seconds, 3, func() (float64, error) {
		rep, err := env.rep(plain)
		if err != nil {
			return 0, err
		}
		reps, slices = append(reps, rep), append(slices, slice{from: rep.start, to: rep.end, rows: float64(p.rows), ops: []float64{rep.wall}})
		return rep.wall, nil
	})
	log.close()
	if err != nil {
		return err
	}
	ref, _, err := env.reference()
	if err != nil {
		return err
	}
	checkReps(r, reps, ref)
	r.notes["tree_crc"] = fmt.Sprintf("%08x", record.Checksum(ref))
	r.emitEndToEnd(setups, log, slices, slices)
	return nil
}

// runBuildTraced is the per-layer pass over a build workload. It
// interleaves three kinds of repetition so that machine drift hits them
// alike: the shipped configuration untraced, the same traced (benchmark
// spans around every Send, Recv and backend call, plus the program's own
// phase recorder), and checksums off. One sequential out-of-core build
// gives the parallel efficiency.
func runBuildTraced(r *run, p buildParams) error {
	wl := r.tr.begin(0, "workload:"+r.workload, -1)
	defer func() { r.tr.end(wl, 0) }()
	env, err := setupBuild(r, p, filepath.Join(r.dir, "setup"), wl)
	if err != nil {
		return err
	}
	defer env.close()

	meters := make([]*backendMeter, ranks)
	tcomms := make([]*tracedComm, ranks)
	for rank := range meters {
		meters[rank] = &backendMeter{tr: r.tr, rank: rank}
		tcomms[rank] = &tracedComm{inner: env.comms[rank], tr: r.tr}
	}
	tracedStores, err := env.newStores("traced", storeOptions{pipeline: true, integrity: true, slow: r.slowBackend}, meters...)
	if err != nil {
		return err
	}
	rawStores, err := env.newStores("raw", storeOptions{pipeline: true, slow: r.slowBackend})
	if err != nil {
		return err
	}
	plain := repOptions{stores: env.stores, integrity: true}
	raw := repOptions{stores: rawStores}
	if _, err := env.rep(plain); err != nil { // warm-up
		return err
	}

	var plainReps, tracedReps, rawReps []*repResult
	var plainWalls, tracedWalls, rawWalls, coverage []float64
	phaseSelf := map[string][]float64{}
	var mem0, mem1 runtime.MemStats

	_, err = repsFor(r.seconds, 2, func() (float64, error) {
		runtime.ReadMemStats(&mem0)
		rep, err := env.rep(plain)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&mem1)
		plainReps, plainWalls = append(plainReps, rep), append(plainWalls, rep.wall)

		recs := make([]*obs.Recorder, ranks)
		spans := make([]int, ranks)
		for rank := range recs {
			recs[rank] = obs.New(rank)
			spans[rank] = r.tr.begin(wl, "pclouds.Build", rank)
			tcomms[rank].parent = spans[rank]
			meters[rank].parent.Store(int64(spans[rank]))
		}
		trep, err := env.rep(repOptions{stores: tracedStores, integrity: true, tcomms: tcomms, meters: meters, recorders: recs})
		if err != nil {
			return 0, err
		}
		tracedReps, tracedWalls = append(tracedReps, trep), append(tracedWalls, trep.wall)
		slowest := 0
		perRank := make([]map[string]float64, ranks)
		for rank, rec := range recs {
			r.tr.end(spans[rank], trep.io[rank].ReadBytes+trep.io[rank].WriteBytes)
			perRank[rank] = phaseSelfTimes(rec.Summary())
			if trep.rankWall[rank] > trep.rankWall[slowest] {
				slowest = rank
			}
		}
		var named float64
		for phase := range phaseMetric {
			v := 0.0
			for rank := range perRank {
				v = max(v, perRank[rank][phase])
			}
			phaseSelf[phase] = append(phaseSelf[phase], v)
			named += perRank[slowest][phase]
		}
		coverage = append(coverage, 100*named/trep.rankWall[slowest])

		rrep, err := env.rep(raw)
		if err != nil {
			return 0, err
		}
		rawReps, rawWalls = append(rawReps, rrep), append(rawWalls, rrep.wall)
		return rep.wall + trep.wall + rrep.wall, nil
	})
	if err != nil {
		return err
	}

	ref, refTree, err := env.reference()
	if err != nil {
		return err
	}
	checkReps(r, plainReps, ref)
	checkReps(r, tracedReps, ref)
	checkReps(r, rawReps, ref)
	r.notes["tree_crc"] = fmt.Sprintf("%08x", record.Checksum(ref))

	// Sequential out-of-core baseline: one rank, the same store settings.
	seqStore, err := newStore(env.data.Schema, rankDir(env.dir, "seq", 0), storeOptions{pipeline: true, integrity: true, slow: r.slowBackend})
	if err != nil {
		return err
	}
	if err := stageRoot(seqStore, env.data, 0, 1); err != nil {
		return err
	}
	t0 := time.Now()
	seqTree, _, err := clouds.BuildOutOfCore(env.cfg, seqStore, "root", env.sample, nil)
	if err != nil {
		return err
	}
	seqWall := time.Since(t0).Seconds()
	r.op(bytes.Equal(tree.Encode(seqTree), ref), "sequential out-of-core tree differs from the in-core reference")

	last := tracedReps[len(tracedReps)-1]
	var sent, msgs, split, shipped, readB, writeB, frames, corrupt, retries int64
	var wrapSent, wrapRead, wrapWrote int64
	var recvWait, ioWait, busy, sendBusy []float64
	for _, rep := range tracedReps {
		var w, iw, b, sb float64
		for rank := 0; rank < ranks; rank++ {
			w, iw = max(w, rep.comm[rank].WaitSec), max(iw, rep.io[rank].WaitSec)
			b, sb = max(b, rep.wrapped[rank].backendBusy), max(sb, rep.wrapped[rank].sendBusy)
		}
		recvWait, ioWait = append(recvWait, w), append(ioWait, iw)
		busy, sendBusy = append(busy, b), append(sendBusy, sb)
	}
	for rank := 0; rank < ranks; rank++ {
		sent += last.comm[rank].BytesSent
		msgs += last.comm[rank].MsgsSent
		split += last.stats[rank].SplitComm.BytesSent
		shipped += last.stats[rank].RecordsShipped
		readB += last.io[rank].ReadBytes
		writeB += last.io[rank].WriteBytes
		frames += last.frames[rank]
		wrapSent += last.wrapped[rank].sentBytes
		wrapRead += last.wrapped[rank].readBytes
		wrapWrote += last.wrapped[rank].wroteBytes
		for _, stores := range [][]*ooc.Store{env.stores, tracedStores} {
			st := stores[rank].Integrity().Stats()
			corrupt, retries = corrupt+st.Corruptions, retries+st.Retries
		}
	}
	// The wrappers and the program's own counters watched the same calls:
	// sends must agree exactly, and the backend wrapper sits above the
	// verifier, where it sees the same logical page bytes ooc.IOStats counts.
	if wrapSent != sent {
		r.problem("comm wrapper saw %d bytes sent, comm.Stats %d", wrapSent, sent)
	}
	if wrapRead != readB || wrapWrote != writeB {
		r.problem("backend wrapper saw %d read / %d written, ooc.IOStats %d / %d", wrapRead, wrapWrote, readB, writeB)
	}
	if corrupt != 0 {
		r.problem("%d page corruptions on an undisturbed store", corrupt)
	}

	r.emit("comm.bytes_sent", float64(sent))
	r.emit("comm.msgs_sent", float64(msgs))
	r.emit("comm.split_bytes", float64(split))
	r.emitTimes("comm.recv_wait_s", recvWait, 1)
	r.emitTimes("comm.send_busy_s", sendBusy, 1)
	r.emit("ooc.read_bytes", float64(readB))
	r.emit("ooc.write_bytes", float64(writeB))
	r.emit("ooc.frames_verified", float64(frames))
	r.emitTimes("ooc.io_wait_s", ioWait, 1)
	r.emitTimes("ooc.backend_busy_s", busy, 1)
	r.emit("ooc.corruptions", float64(corrupt))
	r.emit("ooc.retries", float64(retries))
	for phase, name := range phaseMetric {
		r.emitTimes(name, phaseSelf[phase], 1)
	}
	r.emitTimes("pclouds.phase_coverage_pct", coverage, 1)
	r.emit("pclouds.records_shipped", float64(shipped))
	r.emit("pclouds.large_nodes", float64(last.stats[0].LargeNodes))
	r.emit("pclouds.small_tasks", float64(last.stats[0].SmallTasks))
	r.emit("pclouds.tree_nodes", float64(refTree.NumNodes()))
	r.emit("pclouds.allocs_per_row", float64(mem1.Mallocs-mem0.Mallocs)/float64(p.rows))
	r.emit("pclouds.alloc_bytes_per_row", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(p.rows))
	r.emitTimes("pclouds.build_wall_s", tracedWalls, 1)
	r.emit("pclouds.parallel_efficiency", seqWall/(ranks*median(plainWalls)))
	r.emit("pclouds.integrity_overhead_pct", 100*(median(plainWalls)/median(rawWalls)-1))
	r.emit("obs.trace_overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1))
	return nil
}

// phaseMetric maps the program's phase spans to metric names. The
// container spans (build, large-node, small-phase) hold no work of their
// own worth naming; small-solve is the wrapper around small-subtree.
var phaseMetric = map[string]string{
	"preprocess":         "pclouds.phase.preprocess_s",
	"stats":              "pclouds.phase.stats_s",
	"boundary":           "pclouds.phase.boundary_s",
	"alive":              "pclouds.phase.alive_s",
	"partition":          "pclouds.phase.partition_s",
	"small-redistribute": "pclouds.phase.small_redistribute_s",
	"small-subtree":      "pclouds.phase.small_subtree_s",
	"small-exchange":     "pclouds.phase.small_exchange_s",
}

// phaseSelfTimes folds one rank's recorder summary into self wall seconds
// per named phase.
func phaseSelfTimes(sum []obs.PhaseTotal) map[string]float64 {
	out := map[string]float64{}
	for _, pt := range sum {
		name := pt.Name
		if name == "small-solve" {
			name = "small-subtree"
		}
		if _, ok := phaseMetric[name]; ok {
			out[name] += pt.WallSelf
		}
	}
	return out
}
