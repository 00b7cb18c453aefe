package stream

import (
	"math"
	"math/rand"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// frontierIntervalsOracle is the frontier cut construction buildFrontier
// replaced, kept as the reference: route each reservoir record to its leaf
// (leaf shares in reservoir order), then per leaf sort its share again
// (clouds.BuildIntervals, histogram.FromSample) and merge the cuts with the
// grid built the same way from the whole reservoir. It returns one entry
// per leaf, in preorder.
func frontierIntervalsOracle(schema *record.Schema, tr *tree.Tree, reservoir []record.Record, q int) [][]*histogram.Intervals {
	grid := clouds.BuildIntervals(schema, reservoir, q)
	flat := tree.Compile(tr)
	shares := make([][]record.Record, flat.NumNodes())
	for _, r := range reservoir {
		leaf := flat.Leaf(r)
		shares[leaf] = append(shares[leaf], r)
	}
	var out [][]*histogram.Intervals
	i := 0
	tr.Walk(func(n *tree.Node, _ int) {
		if n.IsLeaf() {
			leafIv := clouds.BuildIntervals(schema, shares[i], q)
			for j := range leafIv {
				leafIv[j] = histogram.Merge(leafIv[j], grid[j])
			}
			out = append(out, leafIv)
		}
		i++
	})
	return out
}

// fuzzFrontierSchema has two numeric attributes and one categorical one of
// cardinality 4, so trees split both ways.
func fuzzFrontierSchema(tb testing.TB) *record.Schema {
	s, err := record.NewSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 4},
		{Name: "y", Kind: record.Numeric},
	}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// frontierPalette is the value alphabet of fuzzed reservoirs: NaN, both
// infinities, both zeros, and a few finite values that tie heavily.
var frontierPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5,
	2, 3, -2.5, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, 7,
}

// frontierValue maps a byte to a value: the palette for the low half, and
// a step of 1/8 in [-8, 8) for the high half (ties, but more distinct
// values than the palette).
func frontierValue(b byte) float64 {
	if b < 128 {
		return frontierPalette[int(b)%len(frontierPalette)]
	}
	return float64(int(b)-192) / 8
}

// decodeFrontierCase reads a fuzz input: the bin count, a tree of depth at
// most 4 over the schema (numeric thresholds from frontierValue,
// categorical subsets from a byte's low bits), then one reservoir record
// per 3 bytes.
func decodeFrontierCase(s *record.Schema, data []byte) (q int, tr *tree.Tree, reservoir []record.Record) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	q = 1 + int(next()%17)
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := &tree.Node{ClassCounts: make([]int64, s.NumClasses)}
		b := next()
		switch {
		case depth == 0 || b%3 == 0:
		case b%3 == 1:
			attr := []int{0, 2}[(b>>2)&1]
			n.Splitter = &tree.Splitter{Kind: tree.NumericSplit, Attr: attr, Threshold: frontierValue(next())}
		default:
			m := next()
			in := make([]bool, 4)
			for v := range in {
				in[v] = m>>v&1 != 0
			}
			n.Splitter = &tree.Splitter{Kind: tree.CategoricalSplit, Attr: 1, InLeft: in}
		}
		if n.Splitter != nil {
			n.Left, n.Right = gen(depth-1), gen(depth-1)
		}
		return n
	}
	tr = &tree.Tree{Schema: s, Root: gen(4)}
	for len(data) >= 3 && len(reservoir) < 4096 {
		b0, b1, b2 := next(), next(), next()
		reservoir = append(reservoir, record.Record{
			Num:   []float64{frontierValue(b0), frontierValue(b2)},
			Cat:   []int32{int32(b1 % 4)},
			Class: int32(b1>>2) & 1,
		})
	}
	return q, tr, reservoir
}

// frontierSeed builds a fuzz input of n records from rng: a tree prefix
// and reservoir bytes drawn mostly from the palette, so zeros of both
// signs, NaN and repeated values dominate.
func frontierSeed(rng *rand.Rand, q byte, n int) []byte {
	out := []byte{q}
	for range 24 {
		out = append(out, byte(rng.Intn(256)))
	}
	for range n {
		for range 3 {
			if rng.Intn(4) == 0 {
				out = append(out, byte(128+rng.Intn(128)))
			} else {
				out = append(out, byte(rng.Intn(8)))
			}
		}
	}
	return out
}

// FuzzFrontierIntervals holds buildFrontier's cuts, from one sort per
// column scattered to the leaves, bit-identical to the per-leaf sort of
// frontierIntervalsOracle over reservoirs with NaN, ±Inf, ±0, heavy ties
// and empty leaves, under numeric and categorical splits. Seeds span both
// of clouds.SortPoints' paths (under and over its radix cutoff).
func FuzzFrontierIntervals(f *testing.F) {
	s := fuzzFrontierSchema(f)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 40, 200, 319, 320, 700, 2048} {
		for _, q := range []byte{0, 3, 15} {
			f.Add(frontierSeed(rng, q, n))
		}
	}
	// A lone root leaf, and a root split that leaves one side empty.
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{7, 1, 1, 0, 0, 9, 9, 9, 3, 4, 3, 4, 3, 4})

	var cs cutScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		q, tr, reservoir := decodeFrontierCase(s, data)
		e := &engine{cfg: Config{Schema: s, Clouds: clouds.Config{HistBins: q}}, tree: tr, reservoir: reservoir, cuts: cs}
		e.buildFrontier()
		cs = e.cuts // carry the scratch over, as across windows
		want := frontierIntervalsOracle(s, tr, reservoir, q)
		if len(e.frontier) != len(want) {
			t.Fatalf("%d frontier leaves, oracle %d", len(e.frontier), len(want))
		}
		for l, fl := range e.frontier {
			for j, iv := range fl.stats.Intervals() {
				if !sameCuts(iv.Cuts, want[l][j].Cuts) {
					t.Fatalf("leaf %d attribute %d: cuts %v, oracle %v", l, j, iv.Cuts, want[l][j].Cuts)
				}
			}
		}
	})
}

// sameCuts reports whether a and b hold the same cuts, bit for bit.
func sameCuts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
