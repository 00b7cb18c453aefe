package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
	"pclouds/internal/wire"
)

// runLayers is the layer series: direct timed loops over each package's
// public functions, on inputs made from the run's seed. It runs in the
// traced pass of every workload, after the workload, so each per-layer
// line of results can be read next to the in-situ numbers above it.
func runLayers(r *run) error {
	l := &layers{r: r, reps: r.pick(5, 1), dir: filepath.Join(r.dir, "layers")}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	var err error
	if l.data, err = generate(r.pick(200_000, 8_192), r.seed, 0.05); err != nil {
		return err
	}
	r.emit("datagen.rows_per_s", float64(l.data.Len())/time.Since(t0).Seconds())
	l.schema = l.data.Schema
	for _, series := range []func() error{
		l.record, l.wire, l.comm, l.ooc, l.kernels, l.clouds, l.tree, l.serve,
	} {
		if err := series(); err != nil {
			return err
		}
	}
	return nil
}

type layers struct {
	r      *run
	reps   int
	dir    string
	data   *record.Dataset
	schema *record.Schema
	model  *tree.Tree
}

// seconds returns the median wall of fn over the series' repetitions: at
// least l.reps of them, and up to 25 while they have taken under 80 ms
// together, so that a loop of a few milliseconds is not judged from five
// samples that one burst of a neighbour covers.
func (l *layers) seconds(fn func() error) (float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < l.reps || (len(walls) < 5*l.reps && time.Since(start) < 80*time.Millisecond) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

func (l *layers) record() error {
	recs, n := l.data.Records, float64(l.data.Len())
	var enc []byte
	s, _ := l.seconds(func() error {
		enc = enc[:0]
		for _, rec := range recs {
			enc = rec.Encode(enc)
		}
		return nil
	})
	l.r.emit("record.encode_ns_per_row", s*1e9/n)

	width := l.schema.RecordBytes()
	s, err := l.seconds(func() error {
		var rec record.Record
		for off := 0; off < len(enc); off += width {
			if _, err := rec.Decode(l.schema, enc[off:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.emit("record.decode_ns_per_row", s*1e9/n)

	path := filepath.Join(l.dir, "records.bin")
	if err := writeV2File(path, l.data, 1); err != nil {
		return err
	}
	s, err = l.seconds(func() error {
		d, err := record.LoadFile(l.schema, path)
		sink = d
		return err
	})
	if err != nil {
		return err
	}
	l.r.emit("record.v2_load_mb_per_s", float64(len(enc))/1e6/s)

	s, err = l.seconds(func() error {
		src, err := stream.TailFile(l.schema, path, stream.TailOptions{Limit: int64(len(recs))})
		if err != nil {
			return err
		}
		defer src.Close()
		var rec record.Record
		for {
			ok, err := src.Next(&rec)
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	l.r.emit("stream.tail_next_ns_per_row", s*1e9/n)

	var feat []byte
	for _, rec := range recs {
		feat = rec.EncodeFeatures(feat)
	}
	s, err = l.seconds(func() error {
		out, err := record.DecodeAllFeatures(l.schema, feat)
		sink = out
		return err
	})
	if err != nil {
		return err
	}
	l.r.emit("record.features_decode_ns_per_row", s*1e9/n)
	return nil
}

func (l *layers) wire() error {
	const frames = 256
	payload := bytes.Repeat([]byte{0xa5}, 64<<10)
	var buf bytes.Buffer
	s, err := l.seconds(func() error {
		buf.Reset()
		for i := 0; i < frames; i++ {
			if err := wire.Write(&buf, wire.Frame{Tag: 1, Payload: payload}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mb := float64(frames*len(payload)) / 1e6
	l.r.emit("wire.write_mb_per_s", mb/s)
	s, err = l.seconds(func() error {
		rd := bytes.NewReader(buf.Bytes())
		for i := 0; i < frames; i++ {
			if _, err := wire.Read(rd); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.r.emit("wire.read_mb_per_s", mb/s)
	return nil
}

// collectives times the small collectives on rank 0 of a two-rank group;
// the other rank runs the same calls.
func (l *layers) collectives(c comm.Communicator, prefix string, full bool) error {
	iters := l.r.pick(400, 20)
	vec := make([]int64, 1024) // 8 KiB
	blob := make([]byte, 8<<10)
	timeLoop := func(name string, scale float64, fn func() error) error {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			l.r.emit(prefix+name, time.Since(t0).Seconds()*scale/float64(iters))
		}
		return nil
	}
	add := func(a, b int64) int64 { return a + b }
	err := timeLoop("allreduce_8k_us", 1e6, func() error {
		_, err := comm.AllReduceInt64(c, vec, add)
		return err
	})
	if err != nil || !full {
		return err
	}
	if err := timeLoop("allgather_8k_us", 1e6, func() error {
		_, err := comm.AllGather(c, blob)
		return err
	}); err != nil {
		return err
	}
	small := make([]byte, 64)
	if err := timeLoop("pingpong_64b_us", 1e6, func() error {
		if c.Rank() == 0 {
			if err := c.Send(1, comm.TagUser, small); err != nil {
				return err
			}
			_, err := c.Recv(1, comm.TagUser)
			return err
		}
		if _, err := c.Recv(0, comm.TagUser); err != nil {
			return err
		}
		return c.Send(0, comm.TagUser, small)
	}); err != nil {
		return err
	}
	parts := [][]byte{make([]byte, 1<<20), make([]byte, 1<<20)}
	iters = l.r.pick(40, 4)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := comm.AllToAll(c, parts); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		l.r.emit(prefix+"alltoall_1m_mb_per_s", float64(iters)*float64(1<<20)/1e6/time.Since(t0).Seconds())
	}
	return nil
}

func (l *layers) comm() error {
	err := comm.Run(ranks, costmodel.Zero(), func(c *comm.ChannelComm) error {
		return l.collectives(c, "comm.chan.", false)
	})
	if err != nil {
		return err
	}
	var dials []float64
	for i := 0; i < l.reps; i++ {
		t0 := time.Now()
		comms, err := dialMesh(ranks)
		if err != nil {
			return err
		}
		dials = append(dials, time.Since(t0).Seconds())
		if i == l.reps-1 {
			err = eachRank(ranks, func(rank int) error { return l.collectives(comms[rank], "comm.tcp.", true) })
		}
		closeMesh(comms)
		if err != nil {
			return err
		}
	}
	l.r.emitTimes("comm.tcp.dial_ms", dials, 1e3)
	return nil
}

// ooc measures sequential page I/O of a file store in its four
// configurations; pipe_crc is the one the build workloads run.
func (l *layers) ooc() error {
	// Three passes over the series' rows make a 38 MB file.
	recs := append(append(append([]record.Record(nil), l.data.Records...), l.data.Records...), l.data.Records...)
	mb := float64(len(recs)*l.schema.RecordBytes()) / 1e6
	for _, cfg := range []struct {
		name string
		o    storeOptions
	}{
		{"sync_raw", storeOptions{}},
		{"sync_crc", storeOptions{integrity: true}},
		{"pipe_raw", storeOptions{pipeline: true}},
		{"pipe_crc", storeOptions{pipeline: true, integrity: true}},
	} {
		cfg.o.slow = l.r.slowBackend
		store, err := newStore(l.schema, filepath.Join(l.dir, "ooc-"+cfg.name), cfg.o)
		if err != nil {
			return err
		}
		s, err := l.seconds(func() error { return store.WriteAll("f", recs) })
		if err != nil {
			return err
		}
		l.r.emit("ooc.write_mb_per_s."+cfg.name, mb/s)
		s, err = l.seconds(func() error {
			rd, err := store.OpenReader("f")
			if err != nil {
				return err
			}
			defer rd.Close()
			var rec record.Record
			for {
				ok, err := rd.Next(&rec)
				if err != nil || !ok {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		l.r.emit("ooc.read_mb_per_s."+cfg.name, mb/s)
	}
	return nil
}

func (l *layers) kernels() error {
	iters := l.r.pick(1_000_000, 100_000)
	left, right, interval, total := []int64{300, 700}, []int64{650, 350}, []int64{40, 60}, []int64{950, 1050}
	var acc float64
	s, _ := l.seconds(func() error {
		for i := 0; i < iters; i++ {
			left[0] = int64(300 + i&63)
			acc += gini.SplitIndex(left, right)
		}
		return nil
	})
	l.r.emit("gini.split_index_ns", s*1e9/float64(iters))
	s, _ = l.seconds(func() error {
		for i := 0; i < iters; i++ {
			left[0] = int64(300 + i&63)
			acc += gini.LowerBound(left, interval, total)
		}
		return nil
	})
	l.r.emit("gini.lower_bound_ns", s*1e9/float64(iters))

	values := make([]float64, l.data.Len())
	for i, rec := range l.data.Records {
		values[i] = rec.Num[0]
	}
	iv := histogram.FromSample(values[:8_000], 1000)
	var hits int
	s, _ = l.seconds(func() error {
		for _, v := range values {
			hits += iv.Locate(v)
		}
		return nil
	})
	l.r.emit("histogram.locate_ns", s*1e9/float64(len(values)))
	sink = acc + float64(hits)
	return nil
}

func (l *layers) clouds() error {
	recs, n := l.data.Records, float64(l.data.Len())
	intervals := clouds.BuildIntervals(l.schema, recs[:8_000], 1000)
	var ns *clouds.NodeStats
	s, _ := l.seconds(func() error {
		ns = clouds.NewNodeStats(l.schema, intervals)
		for _, rec := range recs {
			ns.Add(rec)
		}
		return nil
	})
	l.r.emit("clouds.stats_add_ns_per_row", s*1e9/n)
	s, _ = l.seconds(func() error {
		sink = clouds.BestBoundarySplit(ns)
		return nil
	})
	l.r.emit("clouds.boundary_split_us", s*1e6)

	pts := make([]clouds.Point, len(recs))
	total := make([]int64, l.schema.NumClasses)
	for i, rec := range recs {
		pts[i] = clouds.Point{V: rec.Num[0], Class: rec.Class}
		total[rec.Class]++
	}
	work := make([]clouds.Point, len(pts))
	zero := make([]int64, l.schema.NumClasses)
	s, _ = l.seconds(func() error {
		copy(work, pts)
		sink = clouds.EvaluateInterval(0, zero, total, work)
		return nil
	})
	l.r.emit("clouds.alive_eval_ns_per_point", s*1e9/n)

	node := recs[:5000]
	s, _ = l.seconds(func() error {
		sink = clouds.DirectSplit(l.schema, node)
		return nil
	})
	l.r.emit("clouds.direct_split_ns_per_row", s*1e9/float64(len(node)))

	deep := clouds.Config{Method: clouds.SSE, QRoot: 400, QMin: 20, SmallNodeQ: 10, SampleSize: 4000, MaxDepth: 16, Seed: l.r.seed}
	small := &record.Dataset{Schema: l.schema, Records: recs[:l.r.pick(30_000, 3_000)]}
	t0 := time.Now()
	if _, _, err := clouds.BuildInCore(deep, small, deep.SampleFor(small)); err != nil {
		return err
	}
	l.r.emit("clouds.incore_build_rows_per_s", float64(small.Len())/time.Since(t0).Seconds())

	clean, err := generate(l.r.pick(100_000, 8_000), l.r.seed, 0)
	if err != nil {
		return err
	}
	scan := clouds.Config{Method: clouds.SSE, QRoot: 1000, QMin: 50, SmallNodeQ: 10, SampleSize: 10000, MaxDepth: 16, Seed: l.r.seed}
	store, err := newStore(l.schema, filepath.Join(l.dir, "seq"), storeOptions{pipeline: true, integrity: true, slow: l.r.slowBackend})
	if err != nil {
		return err
	}
	if err := stageRoot(store, clean, 0, 1); err != nil {
		return err
	}
	t0 = time.Now()
	if _, _, err := clouds.BuildOutOfCore(scan, store, "root", scan.SampleFor(clean), nil); err != nil {
		return err
	}
	l.r.emit("clouds.ooc_seq_build_rows_per_s", float64(clean.Len())/time.Since(t0).Seconds())
	return nil
}

func (l *layers) tree() error {
	var err error
	if l.model, err = servedModel(l.r); err != nil {
		return err
	}
	recs := l.data.Records
	var hits int32
	s, _ := l.seconds(func() error {
		for _, rec := range recs {
			hits += l.model.Classify(rec)
		}
		return nil
	})
	sink = hits
	l.r.emit("tree.classify_ns_per_row", s*1e9/float64(len(recs)))
	var enc []byte
	s, _ = l.seconds(func() error {
		enc = tree.Encode(l.model)
		return nil
	})
	l.r.emit("tree.encode_us", s*1e6)
	s, err = l.seconds(func() error {
		t, err := tree.Decode(l.schema, enc)
		sink = t
		return err
	})
	if err != nil {
		return err
	}
	l.r.emit("tree.decode_us", s*1e6)
	path := filepath.Join(l.dir, "model.pcm")
	if s, err = l.seconds(func() error { return tree.SaveFile(l.model, path) }); err != nil {
		return err
	}
	l.r.emit("tree.save_ms", s*1e3)
	s, err = l.seconds(func() error {
		t, err := tree.LoadFile(path)
		if err != nil {
			return err
		}
		return t.Validate()
	})
	if err != nil {
		return err
	}
	l.r.emit("tree.load_ms", s*1e3)
	l.r.emit("tree.nodes", float64(l.model.NumNodes()))
	l.r.emit("tree.depth", float64(l.model.Depth()))
	return nil
}

// memResponse is the in-memory http.ResponseWriter the handler series uses:
// no sockets, so what is timed is decode, queue, walk and encode.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(status int)      { m.status = status }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

func (l *layers) handler(h http.Handler, path string, pool []request, calls int) (float64, error) {
	return l.seconds(func() error {
		for i := 0; i < calls; i++ {
			req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(pool[i%len(pool)].body))
			if err != nil {
				return err
			}
			resp := &memResponse{header: http.Header{}, status: http.StatusOK}
			h.ServeHTTP(resp, req)
			if resp.status != http.StatusOK {
				return fmt.Errorf("handler %s answered %d: %s", path, resp.status, resp.body.String())
			}
		}
		return nil
	})
}

func (l *layers) serve() error {
	m, err := serve.NewModel(l.model, "layers")
	if err != nil {
		return err
	}
	srv := serve.New(serve.NewStaticRegistry(m), serve.ServerConfig{})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // never listened
	rows := l.data.Records[:8192]
	one, err := preparePool(l.model, rows, 1, false)
	if err != nil {
		return err
	}
	calls := l.r.pick(2000, 200)
	s, err := l.handler(srv.Handler(), "/v1/classify", one, calls)
	if err != nil {
		return err
	}
	l.r.emit("serve.handler_json1_us", s*1e6/float64(calls))
	bulk, err := preparePool(l.model, rows, len(rows), true)
	if err != nil {
		return err
	}
	calls = l.r.pick(20, 2)
	if s, err = l.handler(srv.Handler(), "/v1/classify.bin", bulk, calls); err != nil {
		return err
	}
	l.r.emit("serve.handler_bin8192_us", s*1e6/float64(calls))

	rep, err := serve.RunLoad(context.Background(), serve.EngineTarget{Engine: srv.Engine()}, serve.LoadConfig{
		Duration: time.Duration(l.r.pick(600, 100)) * time.Millisecond, Concurrency: clients, BatchRows: 64, Seed: l.r.seed,
	})
	if err != nil {
		return err
	}
	l.r.emit("serve.engine_rows_per_s", rep.RowsPerSec())

	// Registry reload: scan, load, checksum, validate and swap a model that
	// appeared since the last poll.
	dir := filepath.Join(l.dir, "registry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tree.SaveFile(l.model, filepath.Join(dir, "v0.pcm")); err != nil {
		return err
	}
	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		return err
	}
	var reloads []float64
	for i := 1; i <= l.reps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("v%d.pcm", i))
		if err := tree.SaveFile(l.model, path); err != nil {
			return err
		}
		newer := time.Now().Add(time.Duration(i) * time.Second) // mtime order decides the winner
		if err := os.Chtimes(path, newer, newer); err != nil {
			return err
		}
		t0 := time.Now()
		_, swapped, err := reg.Reload()
		reloads = append(reloads, time.Since(t0).Seconds())
		if err != nil || !swapped {
			return fmt.Errorf("registry did not swap to %s: %v", path, err)
		}
	}
	l.r.emitTimes("serve.registry_reload_ms", reloads, 1e3)
	return nil
}
