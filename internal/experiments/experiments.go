// Package experiments regenerates the paper's evaluation: Table 1
// (collective primitive costs), Figure 1 (speedup), Figure 2 (sizeup),
// Figure 3 (scaleup), and the design ablations (D&C strategies, SS vs SSE
// vs direct, attribute-based vs fully replicated boundary statistics).
//
// The paper timed pCLOUDS on a 16-node IBM-SP2; this harness reproduces the
// *shape* of those results on one host by running the real SPMD algorithm
// on simulated ranks whose clocks advance under the calibrated cost model
// (compute per record touch, disk per page, network per message — see
// package costmodel). Record counts default to 1/100 of the paper's 3.6 to
// 7.2 million tuples; the Scale knob restores any size.
package experiments

import (
	"fmt"
	"io"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Harness bundles the experiment parameters.
type Harness struct {
	// Params is the simulated machine (costmodel.Default unless overridden).
	Params costmodel.Params
	// Function is the generator's classification function (paper: 2).
	Function int
	// Seed drives data generation and sampling.
	Seed int64
	// QRoot is the interval count at the root (the paper used 10,000 at
	// 3.6–7.2M records; scale proportionally).
	QRoot int
	// SmallNodeQ is the data→task parallelism switch (paper: 10 intervals).
	SmallNodeQ int
	// Split selects the split-finding protocol (sse, hist, or vote).
	Split clouds.SplitMethod
	// MaxDepth caps the built trees to bound experiment time (0 = off).
	MaxDepth int
	// Boundary selects the boundary-statistics scheme.
	Boundary pclouds.BoundaryMethod
	// Pipeline configures the stores' async I/O pipeline (read-ahead and
	// write-behind). It changes wall time only: simulated costs and page
	// counts are identical either way, so experiment shape is unaffected.
	Pipeline ooc.Pipeline
}

// DefaultHarness returns the paper's configuration scaled for one host.
func DefaultHarness() Harness {
	return Harness{
		Params:     costmodel.Default(),
		Function:   2,
		Seed:       1,
		QRoot:      100,
		SmallNodeQ: 10,
		MaxDepth:   16,
		Boundary:   pclouds.AttributeBased,
	}
}

func (h Harness) cloudsConfig() clouds.Config {
	return clouds.Config{
		Method:      clouds.SSE,
		Split:       h.Split,
		QRoot:       h.QRoot,
		QMin:        max(8, h.QRoot/20),
		SmallNodeQ:  h.SmallNodeQ,
		SampleSize:  10 * h.QRoot,
		MinNodeSize: 2,
		MaxDepth:    h.MaxDepth,
		Seed:        h.Seed,
	}
}

// Generate produces n training records with the harness's generator.
func (h Harness) Generate(n int) (*record.Dataset, []record.Record, error) {
	g, err := datagen.New(datagen.Config{Function: h.Function, Seed: h.Seed})
	if err != nil {
		return nil, nil, err
	}
	data := g.Generate(n)
	sample := h.cloudsConfig().SampleFor(data)
	return data, sample, nil
}

// RunResult is one pCLOUDS execution's measurements.
type RunResult struct {
	Procs     int
	Records   int
	SimTime   float64       // simulated makespan (max rank clock), seconds
	WallTime  time.Duration // real elapsed time of the whole group
	Tree      *tree.Tree
	Stats     []*pclouds.Stats // per rank
	TotalComm comm.Stats
	// TotalSplitComm is the subset of TotalComm spent deriving splitting
	// points — the traffic the hist and vote protocols exist to shrink.
	TotalSplitComm comm.Stats
}

// Run executes pCLOUDS on p simulated ranks over data (round-robin
// distributed) and returns the measurements.
func (h Harness) Run(data *record.Dataset, sample []record.Record, p int) (*RunResult, error) {
	comms := comm.NewGroup(p, h.Params)
	stores := make([]*ooc.Store, p)
	writers := make([]*ooc.Writer, p)
	for r := 0; r < p; r++ {
		stores[r] = ooc.NewMemStore(data.Schema, h.Params, comms[r].Clock())
		stores[r].SetPipeline(h.Pipeline)
		w, err := stores[r].CreateWriter("root")
		if err != nil {
			return nil, err
		}
		writers[r] = w
	}
	for i, rec := range data.Records {
		if err := writers[i%p].Write(rec); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	// The staging writes above are not part of the measured run.
	for r := 0; r < p; r++ {
		comms[r].Clock().Reset()
	}

	cfg := pclouds.Config{
		Clouds:   h.cloudsConfig(),
		Boundary: h.Boundary,
		// The paper's pCLOUDS streams every large node from disk; no rank
		// holds its share in memory, so the simulated disk time is the
		// paper's.
		MemLimit: -1,
		// One record touch per attribute per pass, charged live.
		CPUPerRecord: h.Params.CPURecord * float64(1+data.Schema.NumNumeric()+data.Schema.NumCategorical()),
	}
	trees := make([]*tree.Tree, p)
	stats := make([]*pclouds.Stats, p)
	errs := make([]error, p)
	done := make(chan struct{}, p)
	start := time.Now()
	for r := 0; r < p; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			trees[r], stats[r], errs[r] = pclouds.Build(cfg, comms[r], stores[r], "root", sample)
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	wall := time.Since(start)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if !tree.Equal(trees[0], trees[r]) {
			return nil, fmt.Errorf("rank %d tree differs from rank 0", r)
		}
	}
	res := &RunResult{
		Procs:    p,
		Records:  data.Len(),
		WallTime: wall,
		Tree:     trees[0],
		Stats:    stats,
	}
	for r := 0; r < p; r++ {
		if stats[r].SimTime > res.SimTime {
			res.SimTime = stats[r].SimTime
		}
		res.TotalComm.Add(stats[r].Comm)
		res.TotalSplitComm.Add(stats[r].SplitComm)
	}
	return res, nil
}

// writeHeader prints an experiment banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
