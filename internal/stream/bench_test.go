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
