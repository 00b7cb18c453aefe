package stream

import (
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// BenchmarkWindowClose times the local work of one grown window's close on
// the stream-tail benchmark's configuration: building the frontier (cuts
// from a full 2,048-record reservoir over a depth-6 tree) and growing it
// from the window's sketches (flatten, a one-rank all-reduce, unflatten and
// the split decisions). Restoring the tree and ingesting the window's
// 1,024 records into the sketches are not timed.
func BenchmarkWindowClose(b *testing.B) {
	cfg := goldenConfig("").withDefaults()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	reservoir := g.Generate(cfg.ReservoirCap).Records
	win := g.Generate(cfg.WindowRecords).Records
	tr, _, err := clouds.BuildInCore(cfg.Clouds, &record.Dataset{Schema: cfg.Schema, Records: reservoir}, nil)
	if err != nil {
		b.Fatal(err)
	}
	blob := tree.Encode(tr)
	b.ReportAllocs()
	err = comm.Run(1, costmodel.Zero(), func(c *comm.ChannelComm) error {
		e := &engine{cfg: cfg, c: c, reservoir: reservoir, live: newLiveMetrics(nil, nil)}
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			if e.tree, err = tree.Decode(cfg.Schema, blob); err != nil {
				return err
			}
			e.flat = nil
			b.StartTimer()
			e.buildFrontier()
			b.StopTimer()
			for _, r := range win {
				e.frontier[e.route(r)].stats.Add(r)
			}
			b.StartTimer()
			if err := e.growFrontier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWindowCloseSteady times the local work of one grown window in
// the steady state of the stream-tail benchmark's configuration: building
// the frontier over a full 2,048-record reservoir, merging the window's
// sample into it (a one-rank all-gather and the eviction of the oldest
// records) and growing the frontier from the window's sketches. The
// windows cycle through 16 distinct record sets, so every iteration
// evicts and admits records as a long run does. Restoring the tree and
// ingesting the window's 1,024 records are not timed.
func BenchmarkWindowCloseSteady(b *testing.B) {
	cfg := goldenConfig("").withDefaults()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	reservoir := g.Generate(cfg.ReservoirCap).Records
	windows := make([][]record.Record, 16)
	for i := range windows {
		windows[i] = g.Generate(cfg.WindowRecords).Records
	}
	tr, _, err := clouds.BuildInCore(cfg.Clouds, &record.Dataset{Schema: cfg.Schema, Records: reservoir}, nil)
	if err != nil {
		b.Fatal(err)
	}
	blob := tree.Encode(tr)
	err = comm.Run(1, costmodel.Zero(), func(c *comm.ChannelComm) error {
		e := &engine{cfg: cfg, c: c, reservoir: reservoir, live: newLiveMetrics(nil, nil)}
		window := func(i int, timed bool) error {
			b.StopTimer()
			if e.tree, err = tree.Decode(cfg.Schema, blob); err != nil {
				return err
			}
			e.flat = nil
			if timed {
				b.StartTimer()
			}
			e.buildFrontier()
			b.StopTimer()
			for _, r := range windows[i%len(windows)] {
				e.frontier[e.route(r)].stats.Add(r)
				if e.nextIdx%int64(cfg.SampleEvery) == 0 {
					e.winSampleIdx = append(e.winSampleIdx, e.nextIdx)
					e.winSample = append(e.winSample, r.Clone())
				}
				e.nextIdx++
			}
			if timed {
				b.StartTimer()
			}
			if err := e.mergeSamples(); err != nil {
				return err
			}
			return e.growFrontier()
		}
		// One untimed window first: the steady state has seen a window.
		if err := window(len(windows)-1, false); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if err := window(i, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
