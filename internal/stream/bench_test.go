package stream

import (
	"slices"
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
func BenchmarkWindowCloseSteady(b *testing.B) { benchWindowCloseSteady(b, 1) }

// BenchmarkWindowCloseSteadyP2 is BenchmarkWindowCloseSteady on two
// channel ranks, each ingesting the records it owns: the sample all-gather
// and the sketch all-reduce cross the mesh, and both ranks' allocations
// count.
func BenchmarkWindowCloseSteadyP2(b *testing.B) { benchWindowCloseSteady(b, 2) }

func benchWindowCloseSteady(b *testing.B, p int) {
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
	// Rank 0 alone drives the timer. The other ranks meet it at every
	// switch: they arrive, rank 0 switches and lets them go, so no rank
	// works on the untimed side while the timer runs or the other way
	// round.
	arrive, leave := make(chan struct{}, p), make([]chan struct{}, p)
	for r := range leave {
		leave[r] = make(chan struct{}, 1)
	}
	timer := func(rank int, on bool) {
		if rank != 0 {
			arrive <- struct{}{}
			<-leave[rank]
			return
		}
		for range p - 1 {
			<-arrive
		}
		if on {
			b.StartTimer()
		} else {
			b.StopTimer()
		}
		for r := 1; r < p; r++ {
			leave[r] <- struct{}{}
		}
	}
	err = comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		rank := c.Rank()
		e := &engine{cfg: cfg, c: c, reservoir: slices.Clone(reservoir), live: newLiveMetrics(nil, nil)}
		window := func(i int, timed bool) error {
			timer(rank, false)
			var err error
			if e.tree, err = tree.Decode(cfg.Schema, blob); err != nil {
				return err
			}
			e.flat = nil
			if timed {
				timer(rank, true)
			}
			e.buildFrontier()
			timer(rank, false)
			for _, r := range windows[i%len(windows)] {
				if e.nextIdx%int64(p) == int64(rank) {
					e.frontier[e.route(r)].stats.Add(r)
					if e.nextIdx%int64(cfg.SampleEvery) == 0 {
						e.winSampleIdx = append(e.winSampleIdx, e.nextIdx)
						e.winSample = append(e.winSample, r.Clone())
					}
				}
				e.nextIdx++
			}
			if timed {
				timer(rank, true)
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
		if rank == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
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
