// Package bench regenerates every table and figure of the paper as Go
// benchmarks. Each benchmark reports the wall-clock cost of the real
// parallel execution plus, via b.ReportMetric, the simulated-machine
// numbers the paper's plots are made of (speedup, simulated seconds). Run:
//
//	go test -bench=. -benchmem
//
// The mapping to the paper is:
//
//	BenchmarkTable1*        -> Table 1  (collective primitives)
//	BenchmarkFig1Speedup    -> Figure 1 (speedup vs processors)
//	BenchmarkFig2Sizeup     -> Figure 2 (speedup vs records)
//	BenchmarkFig3Scaleup    -> Figure 3 (runtime at fixed records/proc)
//	BenchmarkStrategies     -> Ablation A (Section 3 strategy comparison)
//	BenchmarkSplitMethods   -> Ablation B (SS vs SSE vs direct)
//	BenchmarkBoundary       -> Ablation C (boundary statistics schemes)
//
// plus micro-benchmarks of the kernels (gini evaluation, interval location,
// record codec, sequential build).
package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/experiments"
	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/mdl"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func benchHarness() experiments.Harness {
	h := experiments.DefaultHarness()
	h.QRoot = 64
	h.MaxDepth = 12
	return h
}

// --- Table 1 -------------------------------------------------------------

func benchCollective(b *testing.B, p, m int, fn func(c *comm.ChannelComm, payload []byte) error) {
	b.Helper()
	var sim float64
	for i := 0; i < b.N; i++ {
		comms := comm.NewGroup(p, costmodel.Default())
		errs := make([]error, p)
		done := make(chan struct{}, p)
		for r := 0; r < p; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				errs[r] = fn(comms[r], make([]byte, m))
			}(r)
		}
		for j := 0; j < p; j++ {
			<-done
		}
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		sim += comm.MaxClock(comms)
	}
	b.ReportMetric(sim/float64(b.N)*1e6, "sim-µs/op")
}

func BenchmarkTable1AllToAllBroadcast(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, m := range []int{64, 65536} {
			b.Run(fmt.Sprintf("p=%d/m=%d", p, m), func(b *testing.B) {
				benchCollective(b, p, m, func(c *comm.ChannelComm, payload []byte) error {
					_, err := comm.AllGather(c, payload)
					return err
				})
			})
		}
	}
}

func BenchmarkTable1Gather(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, m := range []int{64, 65536} {
			b.Run(fmt.Sprintf("p=%d/m=%d", p, m), func(b *testing.B) {
				benchCollective(b, p, m, func(c *comm.ChannelComm, payload []byte) error {
					_, err := comm.Gather(c, 0, payload)
					return err
				})
			})
		}
	}
}

func BenchmarkTable1GlobalCombine(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, elems := range []int{8, 8192} {
			b.Run(fmt.Sprintf("p=%d/elems=%d", p, elems), func(b *testing.B) {
				benchCollective(b, p, elems*8, func(c *comm.ChannelComm, payload []byte) error {
					v := make([]int64, elems)
					_, err := comm.AllReduceInt64(c, v, func(a, x int64) int64 { return a + x })
					return err
				})
			})
		}
	}
}

func BenchmarkTable1PrefixSum(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, 64, func(c *comm.ChannelComm, payload []byte) error {
				_, err := comm.PrefixSumInt64(c, make([]int64, 8))
				return err
			})
		})
	}
}

// --- Figures 1-3 ----------------------------------------------------------

func BenchmarkFig1Speedup(b *testing.B) {
	h := benchHarness()
	data, sample, err := h.Generate(12000)
	if err != nil {
		b.Fatal(err)
	}
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, p)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			sim /= float64(b.N)
			if p == 1 {
				base = sim
			}
			b.ReportMetric(sim, "sim-s/op")
			if base > 0 {
				b.ReportMetric(base/sim, "speedup")
			}
		})
	}
}

func BenchmarkFig2Sizeup(b *testing.B) {
	h := benchHarness()
	for _, n := range []int{6000, 12000, 24000} {
		data, sample, err := h.Generate(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/p=8", n), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, 8)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			b.ReportMetric(sim/float64(b.N), "sim-s/op")
		})
	}
}

func BenchmarkFig3Scaleup(b *testing.B) {
	h := benchHarness()
	const perProc = 3000
	for _, p := range []int{1, 2, 4, 8} {
		data, sample, err := h.Generate(perProc * p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("perproc=%d/p=%d", perProc, p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				r, err := h.Run(data, sample, p)
				if err != nil {
					b.Fatal(err)
				}
				sim += r.SimTime
			}
			b.ReportMetric(sim/float64(b.N), "sim-s/op")
		})
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkStrategies(b *testing.B) {
	h := benchHarness()
	rows, err := h.StrategiesAblation(2000, 4, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Strategy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.StrategiesAblation(2000, 4, 200); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SimTime, "sim-s")
			b.ReportMetric(float64(row.Redistributed), "redistributed")
		})
	}
}

func BenchmarkSplitMethods(b *testing.B) {
	h := benchHarness()
	data, sample, err := h.Generate(8000)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []clouds.Method{clouds.SS, clouds.SSE} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := clouds.Config{Method: m, QRoot: 64, QMin: 8, SmallNodeQ: 4, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("direct", func(b *testing.B) {
		cfg := clouds.Config{Method: clouds.SSE, QRoot: 64, QMin: 8, SmallNodeQ: 65, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBoundary(b *testing.B) {
	h := benchHarness()
	rows, err := h.BoundaryAblation(4000, []int{4}, []int{64})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Method.String(), func(b *testing.B) {
			hb := h
			hb.Boundary = row.Method
			data, sample, err := hb.Generate(4000)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := hb.Run(data, sample, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.CommBytes), "comm-bytes")
		})
	}
}

// --- Kernel micro-benchmarks -------------------------------------------------

func BenchmarkGiniSplitIndex(b *testing.B) {
	left := []int64{1234, 5678}
	right := []int64{8765, 4321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gini.SplitIndex(left, right)
	}
}

func BenchmarkGiniLowerBound(b *testing.B) {
	left := []int64{100, 200}
	interval := []int64{50, 60}
	total := []int64{500, 500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gini.LowerBound(left, interval, total)
	}
}

func BenchmarkIntervalLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = rng.Float64()
	}
	iv := histogram.FromSample(sample, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = iv.Locate(sample[i%len(sample)])
	}
}

func BenchmarkRecordCodec(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	rec := g.Next()
	schema := g.Schema()
	buf := rec.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rec.Encode(buf[:0])
		var out record.Record
		if _, err := out.Decode(schema, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialBuild(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	data := g.Generate(10000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 64, SmallNodeQ: 10, MaxDepth: 12, Seed: 1}
	sample := cfg.SampleFor(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clouds.BuildInCore(cfg, data, sample); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Len()), "records")
}

func BenchmarkDatagen(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func BenchmarkTreeEncodeDecode(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	data := g.Generate(20000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 128, SmallNodeQ: 10, Seed: 1}
	tr, _, err := clouds.BuildInCore(cfg, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	blob := tree.Encode(tr)
	b.ReportMetric(float64(tr.NumNodes()), "nodes")
	b.ReportMetric(float64(len(blob)), "bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob = tree.Encode(tr)
		if _, err := tree.Decode(data.Schema, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDLPrune(b *testing.B) {
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1, Noise: 0.1})
	data := g.Generate(20000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 128, SmallNodeQ: 10, Seed: 1}
	tr, _, err := clouds.BuildInCore(cfg, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tr.NumNodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdl.Prune(tr)
	}
}

func BenchmarkScatter(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, 4096, func(c *comm.ChannelComm, payload []byte) error {
				var parts [][]byte
				if c.Rank() == 0 {
					parts = make([][]byte, p)
					for i := range parts {
						parts[i] = payload
					}
				}
				_, err := comm.Scatter(c, 0, parts)
				return err
			})
		})
	}
}
