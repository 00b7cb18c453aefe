package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// goldenReservoir returns the reservoir the golden stream holds after its
// 40 windows: every SampleEvery-th record that is not held out, the newest
// ReservoirCap of them.
func goldenReservoir(t *testing.T, cfg Config) []record.Record {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var out []record.Record
	for idx := int64(0); idx < int64(cfg.MaxWindows*cfg.WindowRecords); idx++ {
		rec := g.Next()
		if idx%int64(cfg.SampleEvery) == 0 && !holdoutIdx(idx, cfg.HoldoutEvery) {
			out = append(out, rec)
		}
	}
	return out[len(out)-cfg.ReservoirCap:]
}

// quantized returns recs with every numeric value rounded down to one of
// four levels of its attribute's range, so most values tie.
func quantized(recs []record.Record, nNum int) []record.Record {
	out := make([]record.Record, len(recs))
	for i, r := range recs {
		out[i] = r.Clone()
	}
	for j := range nNum {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range recs {
			lo, hi = min(lo, r.Num[j]), max(hi, r.Num[j])
		}
		for _, r := range out {
			r.Num[j] = lo + min(math.Floor((r.Num[j]-lo)/(hi-lo)*4), 3)*(hi-lo)/4
		}
	}
	return out
}

// categorical returns recs relabelled by two categorical attributes, the
// education level's parity and the zipcode's half, with 5% of the labels
// flipped, so the best splits near the root are categorical.
func categorical(recs []record.Record) []record.Record {
	rng := rand.New(rand.NewSource(7))
	out := make([]record.Record, len(recs))
	for i, r := range recs {
		out[i] = r.Clone()
		class := r.Cat[0]%2 ^ int32(b2i(r.Cat[2] < 4))
		if rng.Float64() < 0.05 {
			class ^= 1
		}
		out[i].Class = class
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reverseTies reverses every run of equal values in each sorted column: a
// tie order no fresh sort produces.
func reverseTies(cols [][]clouds.Point) {
	for _, col := range cols {
		for i := 0; i < len(col); {
			k := i + 1
			for k < len(col) && col[k].V == col[i].V {
				k++
			}
			slices.Reverse(col[i:k])
			i = k
		}
	}
}

// TestRefreshMatchesInCore holds the split refresh to clouds.BuildInCore
// over the same reservoir, byte for byte, at one to four ranks: on the
// golden stream's reservoir, on the same rows quantized to four levels
// with the kept columns' ties reversed, and on rows whose best splits are
// categorical. Every rank must hold the tree, twice in a row, and a
// refresh at p > 1 must cost exactly one all-gather.
func TestRefreshMatchesInCore(t *testing.T) {
	cfg := goldenConfig("").withDefaults()
	golden := goldenReservoir(t, cfg)
	nNum := cfg.Schema.NumNumeric()
	for _, tc := range []struct {
		name        string
		rows        []record.Record
		reverseTies bool
		catRoot     bool
	}{
		{name: "golden", rows: golden},
		{name: "quantized", rows: quantized(golden, nNum), reverseTies: true},
		{name: "categorical", rows: categorical(golden), catRoot: true},
	} {
		want, _, err := clouds.BuildInCore(cfg.Clouds, &record.Dataset{Schema: cfg.Schema, Records: tc.rows}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := want.Root.Splitter.Kind == tree.CategoricalSplit; got != tc.catRoot {
			t.Fatalf("%s: root split categorical %v, want %v", tc.name, got, tc.catRoot)
		}
		if want.Depth() < 5 {
			t.Fatalf("%s: tree depth %d leaves the cut nothing to split", tc.name, want.Depth())
		}
		wantBytes := tree.Encode(want)
		for _, p := range []int{1, 2, 3, 4} {
			err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
				e := &engine{cfg: cfg, c: c, reservoir: tc.rows, live: newLiveMetrics(nil, nil)}
				if tc.reverseTies {
					e.cols.rebuild(tc.rows, nNum)
					reverseTies(e.cols.cols)
				}
				// The second refresh reuses the first one's storage.
				for range 2 {
					if err := e.refreshTree(); err != nil {
						return err
					}
					if !bytes.Equal(tree.Encode(e.tree), wantBytes) {
						return fmt.Errorf("rank %d: refresh tree %s differs from the in-core build %s", c.Rank(), treeShape(e.tree), treeShape(want))
					}
				}
				wantGathers := int64(2 * min(p-1, 1))
				if n := c.Stats().Ops[comm.OpAllGather].Calls; n != wantGathers {
					return fmt.Errorf("rank %d: %d all-gathers, want %d", c.Rank(), n, wantGathers)
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}
