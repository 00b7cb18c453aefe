package clouds

import (
	"fmt"
	"testing"

	"pclouds/internal/datagen"
	"pclouds/internal/durable"
	"pclouds/internal/tree"
)

// TestGoldenTrees pins the trees themselves. The determinism tests compare
// builds that share the interval location and split evaluation code, so a
// consistent error in that code passes them all; this test instead holds
// the CRC-32C of the encoded tree for each split protocol on one fixed
// function-2 training set, clean and with 5% label noise. Any change to
// which interval a value lands in, to a split decision or to the encoding
// moves a checksum. It also pins the paper's counters of each build — how
// many nodes took each method, the records touched, and the SSE survival
// figures — so a change to how a node is counted or searched shows too.
func TestGoldenTrees(t *testing.T) {
	want := map[string]struct {
		crc   uint32
		stats BuildStats
	}{
		"sse/clean": {0x317d682e, BuildStats{Nodes: 47, Leaves: 24, LargeNodes: 15, SmallNodes: 8, RecordReads: 263972,
			AlivePoints: 55102, BoundaryEvaluated: 87854, AliveIntervals: 51, MaxAlivePoints: 11702, MaxDepth: 8}},
		"hist/clean": {0xf17bc643, BuildStats{Nodes: 73, Leaves: 37, LargeNodes: 23, SmallNodes: 13, RecordReads: 197538, MaxDepth: 10}},
		"vote/clean": {0xf17bc643, BuildStats{Nodes: 73, Leaves: 37, LargeNodes: 23, SmallNodes: 13, RecordReads: 197538, MaxDepth: 10}},
		"sse/noise0.05": {0x6d4337e6, BuildStats{Nodes: 1841, Leaves: 921, LargeNodes: 103, SmallNodes: 817, RecordReads: 735495,
			AlivePoints: 203748, BoundaryEvaluated: 202183, AliveIntervals: 2041, MaxAlivePoints: 11717, MaxDepth: 16}},
		"hist/noise0.05": {0xbbcea240, BuildStats{Nodes: 2341, Leaves: 1171, LargeNodes: 75, SmallNodes: 1095, RecordReads: 508648, MaxDepth: 16}},
		"vote/noise0.05": {0xbbcea240, BuildStats{Nodes: 2341, Leaves: 1171, LargeNodes: 75, SmallNodes: 1095, RecordReads: 508648, MaxDepth: 16}},
	}
	for _, noise := range []float64{0, 0.05} {
		g, err := datagen.New(datagen.Config{Function: 2, Seed: 11, Noise: noise})
		if err != nil {
			t.Fatal(err)
		}
		data := g.Generate(20_000)
		for _, sm := range []SplitMethod{SplitSSE, SplitHist, SplitVote} {
			name := fmt.Sprintf("%v/noise%g", sm, noise)
			if noise == 0 {
				name = sm.String() + "/clean"
			}
			cfg := Config{Split: sm, Method: SSE, QRoot: 400, QMin: 20, SmallNodeQ: 10, SampleSize: 4000, MaxDepth: 16, Seed: 5}
			tr, st, err := BuildInCore(cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := durable.Checksum(tree.Encode(tr))
			t.Logf("%s: %d nodes, crc %08x", name, tr.NumNodes(), got)
			if got != want[name].crc {
				t.Errorf("%s: tree crc %08x, want %08x", name, got, want[name].crc)
			}
			if *st != want[name].stats {
				t.Errorf("%s: build stats\n got %+v\nwant %+v", name, *st, want[name].stats)
			}
		}
	}
}
