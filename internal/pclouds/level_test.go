package pclouds

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// withSpecialValues returns a copy of data whose numeric attributes carry
// NaN, +Inf and -Inf in a scattering of records — the values on which a
// sort without a total order, or a reduction that depended on arrival
// order, would come apart.
func withSpecialValues(data *record.Dataset) *record.Dataset {
	out := record.NewDataset(data.Schema)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, r := range data.Records {
		r = r.Clone()
		if i%17 == 0 {
			r.Num[i%len(r.Num)] = special[(i/17)%len(special)]
		}
		out.Records = append(out.Records, r)
	}
	return out
}

// TestLevelDeterminismMatrix pins the determinism contract on the
// level-synchronous frontier step: at every rank count, under every
// boundary scheme and split protocol, with the integrity verdicts on or
// off, on clean data and on data with NaN/±Inf values, the tree encodes
// byte-for-byte like the sequential in-core builder's. (vote is
// p-dependent by design; it must equal the sequential tree on one rank and
// must not move with integrity at any p.)
func TestLevelDeterminismMatrix(t *testing.T) {
	clean := makeData(t, 3000, 2, 42)
	datasets := map[string]*record.Dataset{"clean": clean, "nan-inf": withSpecialValues(clean)}
	boundaries := []BoundaryMethod{AttributeBased, FullReplication, IntervalBased, Hybrid}
	for name, data := range datasets {
		for _, sm := range []clouds.SplitMethod{clouds.SplitSSE, clouds.SplitHist, clouds.SplitVote} {
			base := splitConfig(sm)
			sample := base.Clouds.SampleFor(data)
			seq, _, err := clouds.BuildInCore(base.Clouds, data, sample)
			if err != nil {
				t.Fatal(err)
			}
			if seq.NumNodes() < 5 {
				t.Fatalf("%s/%v: degenerate sequential tree (%d nodes)", name, sm, seq.NumNodes())
			}
			for _, p := range []int{1, 2, 3, 4, 7} {
				want := tree.Encode(seq)
				for bi, bm := range boundaries {
					if sm != clouds.SplitSSE && bi > 0 {
						break // the boundary scheme belongs to the sse protocol
					}
					for _, integrity := range []bool{false, true} {
						cfg := base
						cfg.Boundary, cfg.Integrity = bm, integrity
						got, _ := buildParallel(t, cfg, data, sample, p)
						if sm == clouds.SplitVote && p > 1 && !integrity {
							want = tree.Encode(got)
						}
						if !bytes.Equal(tree.Encode(got), want) {
							t.Errorf("%s split=%v p=%d boundary=%v integrity=%v: tree differs from the reference",
								name, sm, p, bm, integrity)
						}
					}
				}
			}
		}
	}
}

// wideConfig grows frontiers dozens of nodes wide on a few thousand noisy
// records: many intervals at the root and a low small-node threshold keep
// nodes large far down the tree.
func wideConfig() Config {
	cfg := testConfig(clouds.SSE)
	cfg.Clouds.QRoot = 1500
	cfg.Clouds.QMin = 6
	cfg.Clouds.SmallNodeQ = 4
	cfg.Clouds.SampleSize = 3000
	cfg.Clouds.MaxDepth = 10
	return cfg
}

func noisyData(t *testing.T, n int) *record.Dataset {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 99, Noise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n)
}

// TestAliveSubBatching: a level whose alive intervals hold more points than
// aliveBatchPoints is searched in consecutive sub-batches — more point
// exchanges, the same tree.
func TestAliveSubBatching(t *testing.T) {
	data := noisyData(t, 6000)
	cfg := wideConfig()
	sample := cfg.Clouds.SampleFor(data)
	seq, _, err := clouds.BuildInCore(cfg.Clouds, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	exchanges := func() int64 {
		got, stats := buildParallel(t, cfg, data, sample, 3)
		if !bytes.Equal(tree.Encode(got), tree.Encode(seq)) {
			t.Fatalf("aliveBatchPoints=%d: tree differs from sequential", aliveBatchPoints)
		}
		return stats[0].Comm.Ops[comm.OpAllToAll].Calls
	}
	whole := exchanges()
	defer func(old int64) { aliveBatchPoints = old }(aliveBatchPoints)
	aliveBatchPoints = 200
	if batched := exchanges(); batched <= whole {
		t.Fatalf("a %d-point cap did not split any level: %d point exchanges, %d without the cap",
			aliveBatchPoints, batched, whole)
	}
}

// TestCollectiveRoundsPerLevel is the exact round count of the frontier
// step: the collectives a rank enters in one level depend on what the level
// has to do (a statistics pass, alive intervals to search, nodes to split),
// never on how many nodes it holds. A 2-node level and a 40-node level pay
// the same.
func TestCollectiveRoundsPerLevel(t *testing.T) {
	data := noisyData(t, 6000)
	sample := wideConfig().Clouds.SampleFor(data)
	for _, tc := range []struct {
		name      string
		method    clouds.Method
		boundary  BoundaryMethod
		integrity bool
		// rounds with and without alive intervals in the level
		alive, plain int64
	}{
		// owner schemes: statistics all-to-all, candidate combine [, alive
		// all-gather, point all-to-all, exact combine]; block mappings add the
		// prefix sum; integrity adds a verdict per pass (alive, partition).
		{"ss/attribute", clouds.SS, AttributeBased, false, 2, 2},
		{"sse/attribute", clouds.SSE, AttributeBased, false, 5, 3},
		{"sse/attribute/integrity", clouds.SSE, AttributeBased, true, 7, 4},
		{"sse/hybrid", clouds.SSE, Hybrid, false, 6, 4},
		{"sse/interval", clouds.SSE, IntervalBased, false, 6, 4},
		// full replication: one all-reduce [, point all-to-all, exact combine].
		{"sse/full", clouds.SSE, FullReplication, false, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := wideConfig()
			cfg.Clouds.Method, cfg.Boundary, cfg.Integrity = tc.method, tc.boundary, tc.integrity
			_, stats := buildParallel(t, cfg, data, sample, 4)
			var narrow, wide bool
			for _, lp := range stats[1].Levels {
				want := tc.plain
				if lp.RecordsRouted > 0 { // points were shipped: the level had alive intervals
					want = tc.alive
				}
				if lp.Level == 1 && tc.integrity {
					want++ // the root's statistics pass has its own verdict
				}
				if lp.SplitEvals == 0 {
					want = 0
				}
				if lp.Collectives != want {
					t.Errorf("level %d (%d nodes): %d collectives, want %d", lp.Level, lp.SplitEvals, lp.Collectives, want)
				}
				narrow = narrow || (lp.SplitEvals > 0 && lp.SplitEvals <= 2 && want == tc.alive)
				wide = wide || (lp.SplitEvals >= 40 && want == tc.alive)
			}
			if !narrow || !wide {
				t.Fatalf("workload has no level of at most 2 nodes and one of at least 40 doing the full schedule: %s", levelWidths(stats[1]))
			}
		})
	}
}

func levelWidths(st *Stats) string {
	var b bytes.Buffer
	for _, lp := range st.Levels {
		fmt.Fprintf(&b, " L%d:%d", lp.Level, lp.SplitEvals)
	}
	return b.String()
}
