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
// moves a checksum.
func TestGoldenTrees(t *testing.T) {
	want := map[string]uint32{
		"sse/clean":      0x317d682e,
		"hist/clean":     0xf17bc643,
		"vote/clean":     0xf17bc643,
		"sse/noise0.05":  0x6d4337e6,
		"hist/noise0.05": 0xbbcea240,
		"vote/noise0.05": 0xbbcea240,
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
			tr, _, err := BuildInCore(cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := durable.Checksum(tree.Encode(tr))
			t.Logf("%s: %d nodes, crc %08x", name, tr.NumNodes(), got)
			if got != want[name] {
				t.Errorf("%s: tree crc %08x, want %08x", name, got, want[name])
			}
		}
	}
}
