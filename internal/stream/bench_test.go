package stream

import (
	"fmt"
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

// steadyBench is the steady-state set-up the window benchmarks share: the
// stream-tail engine configuration, a full reservoir, the tree built over
// it, and 16 windows of encoded rows for a blockSource to cycle through.
type steadyBench struct {
	cfg       Config
	reservoir []record.Record
	blob      []byte // tree.Encode of the reservoir's tree
	rows      []byte
}

func newSteadyBench(b *testing.B) *steadyBench {
	cfg := goldenConfig("").withDefaults()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	sb := &steadyBench{cfg: cfg, reservoir: g.Generate(cfg.ReservoirCap).Records}
	sb.rows = record.EncodeAll(g.Generate(16 * cfg.WindowRecords).Records)
	tr, _, err := clouds.BuildInCore(cfg.Clouds, &record.Dataset{Schema: cfg.Schema, Records: sb.reservoir}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sb.blob = tree.Encode(tr)
	return sb
}

// engine returns a rank's engine over the set-up, its source the windows
// in 512-row blocks.
func (sb *steadyBench) engine(b *testing.B, c comm.Communicator) *engine {
	tr, err := tree.Decode(sb.cfg.Schema, sb.blob)
	if err != nil {
		b.Fatal(err)
	}
	src := &blockSource{rows: sb.rows, rb: sb.cfg.Schema.RecordBytes(), perBlock: 512}
	return &engine{cfg: sb.cfg, c: c, src: src, tree: tr, reservoir: slices.Clone(sb.reservoir), live: newLiveMetrics(nil, nil)}
}

// rankTimer returns the timer switch of a p-rank benchmark. Rank 0 alone
// drives the timer. The other ranks meet it at every switch: they arrive,
// rank 0 switches and lets them go, so no rank works on the untimed side
// while the timer runs or the other way round.
func rankTimer(b *testing.B, p int) func(rank int, on bool) {
	arrive, leave := make(chan struct{}, p), make([]chan struct{}, p)
	for r := range leave {
		leave[r] = make(chan struct{}, 1)
	}
	return func(rank int, on bool) {
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
}

func benchWindowCloseSteady(b *testing.B, p int) {
	sb := newSteadyBench(b)
	timer := rankTimer(b, p)
	err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		rank := c.Rank()
		e := sb.engine(b, c)
		window := func(timed bool) error {
			timer(rank, false)
			var err error
			if e.tree, err = tree.Decode(sb.cfg.Schema, sb.blob); err != nil {
				return err
			}
			e.flat = nil
			if timed {
				timer(rank, true)
			}
			e.buildFrontier()
			timer(rank, false)
			if _, _, err := e.ingestWindow(); err != nil {
				return err
			}
			e.holdout = e.holdout[:0]
			if timed {
				timer(rank, true)
			}
			if err := e.mergeSamples(); err != nil {
				return err
			}
			return e.growFrontier()
		}
		// One untimed window first: the steady state has seen a window.
		if err := window(false); err != nil {
			return err
		}
		if rank == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for range b.N {
			if err := window(true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIngestWindow times one steady window's ingest on the
// stream-tail benchmark's configuration, rank 0 of one and of two: 1,024
// rows handed out in 512-row blocks, as TailSource hands out a verified v2
// block, scanned, validated and ownership-filtered row by row, the owned
// training rows counted into a grown tree's frontier sketches block by
// block, the held-out rows and the sample copied out. At steady state it
// should allocate nothing: the window's kept rows land in buffers the
// engine reuses.
func BenchmarkIngestWindow(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			sb := newSteadyBench(b)
			timer := rankTimer(b, p)
			err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
				rank := c.Rank()
				e := sb.engine(b, c)
				e.buildFrontier()
				window := func() error {
					_, _, err := e.ingestWindow()
					e.samples, e.holdout = e.samples[:4], e.holdout[:0]
					return err
				}
				// One window first: the buffers reach their steady size.
				if err := window(); err != nil {
					return err
				}
				timer(rank, false)
				if rank == 0 {
					b.ReportAllocs()
					b.ResetTimer()
				}
				for range b.N {
					timer(rank, true)
					if err := window(); err != nil {
						return err
					}
					timer(rank, false)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
