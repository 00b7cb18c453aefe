package pclouds

import (
	"math/rand"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/metrics"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// makeData generates n records with the paper's generator.
func makeData(t *testing.T, n int, fn int, seed int64) *record.Dataset {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: fn, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n)
}

// distribute stages data across p per-rank memory stores: records are dealt
// round-robin, modelling the paper's random initial distribution.
func distribute(t *testing.T, data *record.Dataset, p int, params costmodel.Params, comms []*comm.ChannelComm) []*ooc.Store {
	t.Helper()
	stores := make([]*ooc.Store, p)
	writers := make([]*ooc.Writer, p)
	for r := 0; r < p; r++ {
		stores[r] = ooc.NewMemStore(data.Schema, params, comms[r].Clock())
		w, err := stores[r].CreateWriter("root")
		if err != nil {
			t.Fatal(err)
		}
		writers[r] = w
	}
	for i, rec := range data.Records {
		if err := writers[i%p].Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return stores
}

// buildParallel runs pCLOUDS on p simulated ranks and returns rank 0's tree
// and stats (after asserting all ranks agree).
func buildParallel(t *testing.T, cfg Config, data *record.Dataset, sample []record.Record, p int) (*tree.Tree, []*Stats) {
	t.Helper()
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	trees := make([]*tree.Tree, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	done := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			trees[r], stats[r], errs[r] = Build(cfg, comms[r], stores[r], "root", sample)
			done <- r
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if !tree.Equal(trees[0], trees[r]) {
			t.Fatalf("rank %d built a different tree than rank 0", r)
		}
	}
	if err := trees[0].Validate(); err != nil {
		t.Fatalf("parallel tree fails invariants: %v", err)
	}
	return trees[0], stats
}

func testConfig(method clouds.Method) Config {
	return Config{
		Clouds: clouds.Config{
			Method:      method,
			QRoot:       64,
			QMin:        8,
			SmallNodeQ:  4,
			SampleSize:  400,
			MinNodeSize: 2,
			MaxDepth:    12,
			Seed:        7,
		},
	}
}

// TestParallelMatchesSequential is the repository's strongest correctness
// property: for any processor count, any data distribution and either
// boundary method, pCLOUDS builds exactly the tree sequential CLOUDS builds
// from the same data, configuration and pre-drawn sample.
func TestParallelMatchesSequential(t *testing.T) {
	data := makeData(t, 4000, 2, 42)
	for _, method := range []clouds.Method{clouds.SS, clouds.SSE} {
		cfg := testConfig(method)
		sample := cfg.Clouds.SampleFor(data)
		seq, _, err := clouds.BuildInCore(cfg.Clouds, data, sample)
		if err != nil {
			t.Fatal(err)
		}
		if seq.NumNodes() < 5 {
			t.Fatalf("method %v: degenerate sequential tree (%d nodes)", method, seq.NumNodes())
		}
		for _, boundary := range []BoundaryMethod{AttributeBased, FullReplication, IntervalBased, Hybrid} {
			for _, p := range []int{1, 2, 3, 4, 8} {
				cfg := testConfig(method)
				cfg.Boundary = boundary
				par, _ := buildParallel(t, cfg, data, sample, p)
				if !tree.Equal(seq, par) {
					t.Errorf("method=%v boundary=%v p=%d: parallel tree differs from sequential", method, boundary, p)
				}
			}
		}
	}
}

// TestParallelMatchesOutOfCoreSequential checks pCLOUDS against the
// sequential out-of-core driver under a tight memory limit.
func TestParallelMatchesOutOfCoreSequential(t *testing.T) {
	data := makeData(t, 3000, 5, 17)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)

	store := ooc.NewMemStore(data.Schema, costmodel.Zero(), nil)
	if err := store.WriteAll("root", data.Records); err != nil {
		t.Fatal(err)
	}
	// Memory limit far below the dataset: forces streaming at upper levels.
	mem := ooc.NewMemLimit(int64(data.Schema.RecordBytes()) * 300)
	seqOOC, _, err := clouds.BuildOutOfCore(cfg.Clouds, store, "root", sample, mem)
	if err != nil {
		t.Fatal(err)
	}
	seqIC, _, err := clouds.BuildInCore(cfg.Clouds, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(seqOOC, seqIC) {
		t.Fatal("sequential out-of-core differs from in-core")
	}
	par, _ := buildParallel(t, cfg, data, sample, 4)
	if !tree.Equal(par, seqIC) {
		t.Fatal("parallel differs from sequential")
	}
}

// TestAccuracyOnGeneratorFunctions checks that the trees actually learn the
// generator's concepts: held-out accuracy must be high for the axis-aligned
// functions.
func TestAccuracyOnGeneratorFunctions(t *testing.T) {
	for _, fn := range []int{1, 2, 3, 6} {
		train := makeData(t, 6000, fn, int64(100+fn))
		test := makeData(t, 2000, fn, int64(900+fn))
		cfg := testConfig(clouds.SSE)
		sample := cfg.Clouds.SampleFor(train)
		par, _ := buildParallel(t, cfg, train, sample, 4)
		acc := metrics.Accuracy(par, test)
		if acc < 0.95 {
			t.Errorf("function %d: parallel tree accuracy %.3f < 0.95", fn, acc)
		}
	}
}

// TestDistributionIndependence: the tree must not depend on how records are
// spread across ranks.
func TestDistributionIndependence(t *testing.T) {
	data := makeData(t, 2500, 2, 5)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)

	base, _ := buildParallel(t, cfg, data, sample, 4)

	// Shuffled distribution: same multiset of records, different layout.
	shuffled := data.Clone()
	shuffled.Shuffle(rand.New(rand.NewSource(99)))
	perm, _ := buildParallel(t, cfg, shuffled, sample, 4)
	if !tree.Equal(base, perm) {
		t.Fatal("tree depends on record distribution across ranks")
	}
}

// TestSmallNodePhaseExercised confirms the mixed-parallelism switch really
// fires, shipping records and producing small tasks.
func TestSmallNodePhaseExercised(t *testing.T) {
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	_, stats := buildParallel(t, cfg, data, sample, 4)
	if stats[0].SmallTasks == 0 {
		t.Fatal("no small tasks deferred; mixed parallelism not exercised")
	}
	var shipped int64
	for _, s := range stats {
		shipped += s.RecordsShipped
	}
	if shipped == 0 {
		t.Fatal("no records shipped in the small-node phase")
	}
}

// TestStatsPlausible sanity-checks the counters.
func TestStatsPlausible(t *testing.T) {
	data := makeData(t, 2000, 2, 1)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	tr, stats := buildParallel(t, cfg, data, sample, 4)
	s := stats[0]
	if s.Build.Nodes != tr.NumNodes() || s.Build.Leaves != tr.NumLeaves() {
		t.Fatalf("node accounting mismatch: %+v vs tree %d/%d", s.Build, tr.NumNodes(), tr.NumLeaves())
	}
	if s.LargeNodes == 0 {
		t.Fatal("no large nodes processed")
	}
	if s.Build.RecordReads == 0 || s.IO.ReadBytes == 0 {
		t.Fatal("no I/O recorded")
	}
	if s.Comm.MsgsSent == 0 {
		t.Fatal("no messages recorded")
	}
}

// TestEmptyDataFails ensures a clean error on empty global input.
func TestEmptyDataFails(t *testing.T) {
	schema := datagen.Schema()
	comms := comm.NewGroup(2, costmodel.Zero())
	errs := make([]error, 2)
	done := make(chan struct{}, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			store := ooc.NewMemStore(schema, costmodel.Zero(), comms[r].Clock())
			if err := store.WriteAll("root", nil); err != nil {
				errs[r] = err
				done <- struct{}{}
				return
			}
			_, _, errs[r] = Build(testConfig(clouds.SSE), comms[r], store, "root", nil)
			done <- struct{}{}
		}(r)
	}
	<-done
	<-done
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: expected error on empty data", r)
		}
	}
}

// TestSimulatedSpeedup: with the cost model on, 4 ranks must finish in less
// simulated time than 1 rank on the same data.
func TestSimulatedSpeedup(t *testing.T) {
	data := makeData(t, 8000, 2, 3)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	params := costmodel.Default()

	simTime := func(p int) float64 {
		comms := comm.NewGroup(p, params)
		stores := distribute(t, data, p, params, comms)
		done := make(chan error, p)
		maxT := make([]float64, p)
		for r := 0; r < p; r++ {
			go func(r int) {
				_, st, err := Build(cfg, comms[r], stores[r], "root", sample)
				if err == nil {
					maxT[r] = st.SimTime
				}
				done <- err
			}(r)
		}
		for i := 0; i < p; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		m := 0.0
		for _, v := range maxT {
			if v > m {
				m = v
			}
		}
		return m
	}
	t1 := simTime(1)
	t4 := simTime(4)
	if !(t4 < t1) {
		t.Fatalf("no simulated speedup: T(1)=%.4fs T(4)=%.4fs", t1, t4)
	}
	speedup := t1 / t4
	if speedup < 1.5 {
		t.Errorf("simulated speedup %.2f on 4 ranks is implausibly low", speedup)
	}
}
