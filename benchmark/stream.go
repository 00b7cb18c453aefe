package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

// streamParams sizes stream-tail. The open-loop writer appends one block per
// tick at a fixed record rate; a window therefore closes every
// windowRecords/rate seconds whatever the ranks do, and a window's latency
// is counted from when its last record was due.
type streamParams struct {
	windowRecords int
	rate          int // records per second
	tick          time.Duration
	windows       int
}

func streamParamsFor(r *run) streamParams {
	// 512 records per tick, four ticks per window: a window's last record is
	// always the last of a block, so no latency sample carries a share of a
	// tick that depends on where in the block the window happened to end.
	p := streamParams{windowRecords: 1024, rate: 20_000, tick: 25600 * time.Microsecond}
	// Three fifths of the measuring time is the paced phase, the rest
	// catch-up. A window close costs the ranks under 10 ms (sketch all-reduce,
	// grow, publish with fsync), so one window every 51 ms keeps them under a
	// fifth busy: the open loop must not queue.
	p.windows = int(0.6 * r.seconds * float64(p.rate) / float64(p.windowRecords))
	if r.quick {
		p.windows = 20
	}
	return p
}

func (p streamParams) total() int    { return p.windows * p.windowRecords }
func (p streamParams) perBlock() int { return int(float64(p.rate) * p.tick.Seconds()) }
func (p streamParams) window() string {
	return fmt.Sprint(time.Duration(float64(p.windowRecords) / float64(p.rate) * 1e9))
}

// due is when the writer's schedule appends the block holding window k's
// last record, as an offset from the writer's start.
func (p streamParams) due(k int) time.Duration {
	last := (k+1)*p.windowRecords - 1
	return time.Duration(last/p.perBlock()+1) * p.tick
}

type streamEnv struct {
	p         streamParams
	dir       string
	header    []byte
	blocks    [][]byte // one checksummed v2 block per writer tick
	probe     []byte   // the one-row request the probe posts
	bootstrap *tree.Tree
	runs      int
}

func setupStream(r *run, dir string) (*streamEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := streamParamsFor(r)
	data, err := generate(p.total(), r.seed, 0.05)
	if err != nil {
		return nil, err
	}
	schema := data.Schema
	e := &streamEnv{p: p, dir: dir, header: record.EncodeV2Header(uint32(schema.RecordBytes()), uint64(r.seed))}
	for i := 0; i < len(data.Records); i += p.perBlock() {
		end := min(i+p.perBlock(), len(data.Records))
		e.blocks = append(e.blocks, record.EncodeV2Block(nil, record.EncodeAll(data.Records[i:end])))
	}
	if e.probe, err = json.Marshal(jsonRow{data.Records[0].Num, data.Records[0].Cat}); err != nil {
		return nil, err
	}
	// The server needs a model before the first window is published.
	cfg := e.config("").Clouds
	head := &record.Dataset{Schema: schema, Records: data.Records[:p.windowRecords]}
	e.bootstrap, _, err = clouds.BuildInCore(cfg, head, cfg.SampleFor(head))
	return e, err
}

func (e *streamEnv) config(publishDir string) stream.Config {
	return stream.Config{
		Schema:        datagen.Schema(),
		Clouds:        clouds.Config{Split: clouds.SplitHist, HistBins: 16, MaxDepth: 6, Seed: 1},
		WindowRecords: e.p.windowRecords, SampleEvery: 8, ReservoirCap: 2048,
		RefreshEvery: 8, HoldoutEvery: 8, PublishDir: publishDir,
	}
}

// ingestResult is one pass of both ranks over the stream file.
type ingestResult struct {
	wall  float64
	stats []stream.Stats
	comm  []comm.Stats
	send  []float64 // seconds inside Send, per rank (traced only)
	// closeGaps holds, per window boundary, the seconds between rank 0
	// scanning the window's last record and the next window's first
	// (traced only): the close, seen from outside through the record hook.
	// It means that only where the next record is already in the file.
	closeGaps []float64
}

// ingest runs stream.Run on a fresh mesh over path until the file's last
// record, publishing into pubDir; the wall it returns runs from the first
// rank starting to the last returning.
func (e *streamEnv) ingest(r *run, parent int, path, pubDir string) (*ingestResult, error) {
	id := r.tr.begin(parent, "tcpcomm.Dial", -1)
	comms, err := dialMesh(ranks)
	r.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	defer closeMesh(comms)
	res := &ingestResult{stats: make([]stream.Stats, ranks), comm: make([]comm.Stats, ranks), send: make([]float64, ranks)}
	t0 := time.Now()
	err = eachRank(ranks, func(rank int) error {
		src, err := stream.TailFile(datagen.Schema(), path, stream.TailOptions{Poll: time.Millisecond, Limit: int64(e.p.total())})
		if err != nil {
			return err
		}
		defer src.Close()
		cfg := e.config(pubDir)
		var c comm.Communicator = comms[rank]
		var tc *tracedComm
		if r.traced() {
			span := r.tr.begin(parent, "stream.Run", rank)
			defer func() { r.tr.end(span, 0) }()
			tc = &tracedComm{inner: comms[rank], tr: r.tr, parent: span}
			c = tc
			if rank == 0 {
				prevWindow, prevCall := 0, time.Time{}
				cfg.RecordHook = func(window int, _ int64) {
					now := time.Now()
					if window != prevWindow && !prevCall.IsZero() {
						res.closeGaps = append(res.closeGaps, now.Sub(prevCall).Seconds())
					}
					prevWindow, prevCall = window, now
				}
			}
		}
		out, err := stream.Run(cfg, c, src)
		if err != nil {
			return err
		}
		res.stats[rank], res.comm[rank] = out.Stats, comms[rank].Stats()
		if tc != nil {
			res.send[rank] = float64(tc.sendNs.Load()) / 1e9
			if tc.sendBytes.Load() != res.comm[rank].BytesSent {
				return fmt.Errorf("comm wrapper saw %d bytes sent, comm.Stats %d", tc.sendBytes.Load(), res.comm[rank].BytesSent)
			}
		}
		return nil
	})
	res.wall = time.Since(t0).Seconds()
	return res, err
}

// pacedResult is what the open-loop phase observed.
type pacedResult struct {
	ingest    *ingestResult
	start     time.Time
	servedAt  map[int]time.Time // window → first reply naming its model
	writerLag time.Duration     // how late the writer ever ran
}

// paced runs the open-loop phase: writer, two tailing ranks, registry
// watcher, server and probe, all at once.
func (e *streamEnv) paced(r *run, parent int, path, pubDir string) (*pacedResult, error) {
	if err := os.MkdirAll(pubDir, 0o755); err != nil {
		return nil, err
	}
	boot := filepath.Join(pubDir, "bootstrap.tree")
	if err := tree.SaveFile(e.bootstrap, boot); err != nil {
		return nil, err
	}
	old := time.Now().Add(-time.Hour) // every published window is newer
	if err := os.Chtimes(boot, old, old); err != nil {
		return nil, err
	}
	reg, err := serve.OpenRegistry(pubDir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(reg, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if err := awaitServer("http://" + ln.Addr().String()); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	defer func() {
		cancel()
		bg.Wait()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(sctx) //nolint:errcheck // teardown of a loopback server
		scancel()
		<-served
	}()
	bg.Add(1)
	go func() { defer bg.Done(); reg.Watch(ctx, 5*time.Millisecond) }()

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Write(e.header); err != nil {
		return nil, err
	}

	res := &pacedResult{servedAt: map[int]time.Time{}}
	var mu sync.Mutex // guards servedAt
	lastWindow := atomic.Int64{}
	bg.Add(1)
	go func() { // probe: one one-row request per millisecond
		defer bg.Done()
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer hc.CloseIdleConnections()
		url := "http://" + ln.Addr().String() + "/v1/classify"
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tk.C:
			}
			_, body, err := post(hc, url, "application/json", e.probe)
			if err != nil {
				continue
			}
			now := time.Now()
			var reply struct {
				Version string `json:"model_version"`
			}
			var k int
			if json.Unmarshal(body, &reply) != nil {
				continue
			}
			if _, err := fmt.Sscanf(reply.Version, "model-w%06d.tree", &k); err != nil {
				continue // still the bootstrap model
			}
			mu.Lock()
			if _, seen := res.servedAt[k-1]; !seen {
				res.servedAt[k-1] = now
				lastWindow.Store(int64(k))
			}
			mu.Unlock()
		}
	}()

	res.start = time.Now()
	writerErr := make(chan error, 1)
	go func() { // open-loop writer: block i is due at start + (i+1)·tick
		for i, block := range e.blocks {
			due := res.start.Add(time.Duration(i+1) * e.p.tick)
			time.Sleep(time.Until(due))
			if lag := time.Since(due); lag > res.writerLag {
				res.writerLag = lag
			}
			if _, err := f.Write(block); err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()
	res.ingest, err = e.ingest(r, parent, path, pubDir)
	if werr := <-writerErr; err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	// Give the last published window its five seconds to be served.
	final := int64(lastPublished(pubDir))
	for wait := time.Now(); lastWindow.Load() < final && time.Since(wait) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	cancel()
	bg.Wait()
	return res, nil
}

// published lists the window models in dir: 1-based window → path.
func published(dir string) map[int]string {
	out := map[int]string{}
	names, _ := filepath.Glob(filepath.Join(dir, "model-w*.tree"))
	for _, name := range names {
		var k int
		if _, err := fmt.Sscanf(filepath.Base(name), "model-w%06d.tree", &k); err == nil {
			out[k] = name
		}
	}
	return out
}

func lastPublished(dir string) int {
	last := 0
	for k := range published(dir) {
		last = max(last, k)
	}
	return last
}

func runStream(r *run) error {
	wl := r.tr.begin(0, "workload:"+r.workload, -1)
	defer func() { r.tr.end(wl, 0) }()
	n := 0
	env, setupTimes, err := repeatSetup(r.setups(), func() (*streamEnv, error) {
		n++
		return setupStream(r, filepath.Join(r.dir, fmt.Sprintf("setup%d", n)))
	}, func(e *streamEnv) { os.RemoveAll(e.dir) })
	if err != nil {
		return err
	}
	path := filepath.Join(env.dir, "stream.bin")
	pacedDir := filepath.Join(env.dir, "paced")
	log := startStealLog()
	defer log.close()
	pc, err := env.paced(r, wl, path, pacedDir)
	if err != nil {
		return err
	}

	// Catch-up: fresh ranks and publish directories re-ingest the finished
	// file as fast as they can, for the rest of the measuring time.
	var catchDir string
	var last *ingestResult
	var catchups []slice
	budget := r.seconds - time.Since(pc.start).Seconds()
	walls, err := repsFor(budget, 2, func() (float64, error) {
		env.runs++
		catchDir = filepath.Join(env.dir, fmt.Sprintf("catchup%d", env.runs))
		if err := os.MkdirAll(catchDir, 0o755); err != nil {
			return 0, err
		}
		last, err = env.ingest(r, wl, path, catchDir)
		if err != nil {
			return 0, err
		}
		catchups = append(catchups, repSlice(env.p.total(), last.wall))
		return last.wall, nil
	})
	if err != nil {
		return err
	}

	// One operation per window the catch-up phase published: the paced
	// phase must have published the same bytes and served them in time.
	want, got := published(catchDir), published(pacedDir)
	var latencies, pubToServed []float64
	var perWindow []slice
	for _, k := range sortedInts(want) {
		a, errA := os.ReadFile(want[k])
		b, errB := os.ReadFile(got[k])
		servedAt, served := pc.servedAt[k-1]
		due := pc.start.Add(env.p.due(k - 1))
		switch {
		case errA != nil || errB != nil || !bytes.Equal(a, b):
			r.op(false, "window %d: the paced and catch-up phases published different models", k)
		case !served || servedAt.Sub(due) > 5*time.Second:
			r.op(false, "window %d was not served within 5 s of its due time", k)
		default:
			r.op(true, "")
			latencies = append(latencies, servedAt.Sub(due).Seconds())
			perWindow = append(perWindow, slice{from: due, to: servedAt, ops: latencies[len(latencies)-1:]})
			if st, err := os.Stat(got[k]); err == nil {
				pubToServed = append(pubToServed, servedAt.Sub(st.ModTime()).Seconds())
			}
		}
	}
	if len(got) != len(want) {
		r.problem("the paced phase published %d windows, the catch-up phase %d", len(got), len(want))
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no window was served")
	}
	r.notes["windows"] = fmt.Sprintf("%d of %d published, one every %s", len(want), env.p.windows, env.p.window())
	r.notes["catchup_reps"] = fmt.Sprint(len(walls))
	r.notes["writer_lag_max_ms"] = fmt.Sprintf("%.3f", pc.writerLag.Seconds()*1e3)

	if !r.traced() {
		// Throughput slices are the catch-up repetitions; every served
		// window is a latency slice of its own.
		r.emitEndToEnd(setupTimes, log, catchups, perWindow)
		return nil
	}
	var sent, msgs, sketch int64
	var wait, send float64
	for rank := 0; rank < ranks; rank++ {
		sent += pc.ingest.comm[rank].BytesSent
		msgs += pc.ingest.comm[rank].MsgsSent
		sketch += pc.ingest.stats[rank].SketchBytes
		wait, send = max(wait, pc.ingest.comm[rank].WaitSec), max(send, pc.ingest.send[rank])
	}
	r.emit("comm.bytes_sent", float64(sent))
	r.emit("comm.msgs_sent", float64(msgs))
	r.emit("comm.recv_wait_s", wait)
	r.emit("comm.send_busy_s", send)
	r.emit("stream.scan_rows_per_s", float64(env.p.total())/median(walls))
	r.emit("stream.append_to_served_p90_ms", quantile(latencies, 0.9)*1e3)
	r.emit("stream.window_close_p50_ms", median(last.closeGaps)*1e3)
	r.emit("stream.window_close_p90_ms", quantile(last.closeGaps, 0.9)*1e3)
	r.emit("stream.publish_to_served_p50_ms", median(pubToServed)*1e3)
	r.emit("stream.sketch_bytes", float64(sketch))
	r.emit("stream.windows_published", float64(len(want)))
	r.emit("stream.gate_skips", float64(last.stats[0].GateSkips))
	r.emit("stream.writer_lag_max_ms", pc.writerLag.Seconds()*1e3)
	return nil
}

func sortedInts(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
