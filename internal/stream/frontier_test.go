package stream

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// route returns the frontier index of the leaf rec lands in, one record
// at a time: the routing block ingest does by LeafBatch.
func (e *engine) route(rec record.Record) int {
	return int(e.frontierOf[e.flat.Leaf(rec)])
}

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

// FuzzReservoirColumns holds the sorted reservoir columns the engine keeps
// across windows to a from-scratch sort, window after window: a reservoir
// of a fuzzed cap admits windows of fuzzed sizes (some larger than the
// cap, so a window's own oldest records are evicted too) over values with
// NaN, ±Inf, ±0 and heavy ties. After every admission each kept column
// must hold the values of clouds.SortPoints over the reservoir, in order,
// each naming a row that holds its value exactly once, and the frontier
// cuts read from the columns must equal frontierIntervalsOracle's.
func FuzzReservoirColumns(f *testing.F) {
	s := fuzzFrontierSchema(f)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 3, 40, 200, 700} {
		for _, c := range []byte{0, 9, 63} {
			f.Add(append([]byte{c, byte(rng.Intn(256))}, frontierSeed(rng, 5, n)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity, sizes := 1+int(data[0])%96, rand.New(rand.NewSource(int64(data[1])))
		q, tr, records := decodeFrontierCase(s, data[2:])
		e := &engine{cfg: Config{Schema: s, Clouds: clouds.Config{HistBins: q}, ReservoirCap: capacity}, tree: tr}
		e.buildFrontier() // builds the (empty) columns, as a fresh engine's first frontier does
		for w := 0; len(records) > 0; w++ {
			k := min(sizes.Intn(2*capacity+1), len(records))
			e.reservoir = append(e.reservoir, records[:k]...)
			records = records[k:]
			e.evict(k)
			checkColumns(t, w, e.reservoir, e.cols.cols)
			e.flat = nil
			e.buildFrontier()
			want := frontierIntervalsOracle(s, tr, e.reservoir, q)
			for l, fl := range e.frontier {
				for j, iv := range fl.stats.Intervals() {
					if !sameCuts(iv.Cuts, want[l][j].Cuts) {
						t.Fatalf("window %d leaf %d attribute %d: cuts %v, oracle %v", w, l, j, iv.Cuts, want[l][j].Cuts)
					}
				}
			}
		}
	})
}

// checkColumns compares kept sorted columns with a fresh sort of rows.
func checkColumns(t *testing.T, w int, rows []record.Record, cols [][]clouds.Point) {
	t.Helper()
	for j, col := range cols {
		want := make([]clouds.Point, len(rows))
		for i, r := range rows {
			want[i] = clouds.Point{V: r.Num[j], Row: int32(i)}
		}
		clouds.SortPoints(want)
		if len(col) != len(want) {
			t.Fatalf("window %d attribute %d: %d kept points for %d rows", w, j, len(col), len(rows))
		}
		seen := make([]bool, len(rows))
		for i, pt := range col {
			if pt.V != want[i].V && (pt.V == pt.V || want[i].V == want[i].V) {
				t.Fatalf("window %d attribute %d position %d: kept %v, sort %v", w, j, i, pt.V, want[i].V)
			}
			if pt.Row < 0 || int(pt.Row) >= len(rows) || seen[pt.Row] {
				t.Fatalf("window %d attribute %d position %d: row %d out of range or repeated", w, j, i, pt.Row)
			}
			seen[pt.Row] = true
			if math.Float64bits(rows[pt.Row].Num[j]) != math.Float64bits(pt.V) {
				t.Fatalf("window %d attribute %d: row %d holds %v, its point %v", w, j, pt.Row, rows[pt.Row].Num[j], pt.V)
			}
		}
	}
}

// TestSketchVectorFlattens: the sketch vector the frontier leaves' counters
// are carved from is, after a window's records are counted into the
// leaves, exactly the leaves' AppendFlatten vectors in preorder — the
// payload the per-leaf flatten built before — on frontiers that grow and
// shrink between windows, so carvings are reused across shapes.
func TestSketchVectorFlattens(t *testing.T) {
	cfg := goldenConfig("").withDefaults()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	reservoir := g.Generate(cfg.ReservoirCap).Records
	e := &engine{cfg: cfg, reservoir: reservoir}
	for _, depth := range []int{2, 6, 1, 4} {
		cc := cfg.Clouds
		cc.MaxDepth = depth
		tr, _, err := clouds.BuildInCore(cc, &record.Dataset{Schema: cfg.Schema, Records: reservoir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.tree, e.flat = tr, nil
		e.buildFrontier()
		for _, r := range g.Generate(cfg.WindowRecords).Records {
			e.frontier[e.route(r)].stats.Add(r)
		}
		var want []int64
		for l := range e.frontier {
			want = e.frontier[l].stats.AppendFlatten(want)
		}
		if got := e.sketchVector(); !slices.Equal(got, want) {
			t.Fatalf("depth %d: %d leaves: sketch vector (%d counters) differs from the leaves' flatten (%d counters)",
				depth, len(e.frontier), len(got), len(want))
		}
	}
}

// TestAdmitMatchesSortAndMerge holds a window's admission, sortFresh and
// the one-pass mergeAdmitted, to the general kernels it replaced:
// clouds.SortPoints of the new points, then clouds.MergePoints of the
// kept points (evicted rows dropped, the rest shifted down) with them.
// Values tie heavily and include NaN, ±Inf and both zeros; either side
// may be empty, and the new points cross sortFresh's insertion limit. The
// merged columns must hold the same values in the same order and the same
// row at every position where the value is unique to one side.
func TestAdmitMatchesSortAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := func() float64 { return frontierValue(byte(rng.Intn(256))) }
	for trial := range 500 {
		kept := make([]clouds.Point, rng.Intn(3)*rng.Intn(200))
		for i := range kept {
			kept[i] = clouds.Point{V: value(), Row: int32(i)}
		}
		clouds.SortPoints(kept)
		over := rng.Intn(len(kept) + 1)
		sizes := []int{0, 1, rng.Intn(40), insertionMax, insertionMax + 1 + rng.Intn(100)}
		fresh := make([]clouds.Point, sizes[rng.Intn(len(sizes))])
		for i := range fresh {
			fresh[i] = clouds.Point{V: value(), Row: int32(len(kept) - over + i)}
		}

		var want []clouds.Point
		for _, pt := range kept {
			if int(pt.Row) >= over {
				want = append(want, clouds.Point{V: pt.V, Row: pt.Row - int32(over)})
			}
		}
		sorted := slices.Clone(fresh)
		clouds.SortPoints(sorted)
		ref := make([]clouds.Point, len(want)+len(sorted))
		clouds.MergePoints(ref, want, sorted)

		got := make([]clouds.Point, len(ref))
		numbers := sortFresh(fresh)
		mergeAdmitted(got, kept, int32(over), fresh, numbers)
		for i := range ref {
			same := math.Float64bits(got[i].V) == math.Float64bits(ref[i].V) || (got[i].V != got[i].V && ref[i].V != ref[i].V)
			if !same && !(got[i].V == 0 && ref[i].V == 0) {
				t.Fatalf("trial %d position %d: value %v, reference %v", trial, i, got[i].V, ref[i].V)
			}
		}
		// Kept points precede new ones among equal values on both sides,
		// so a row's kept or new origin must agree position by position.
		firstNew := int32(len(kept) - over)
		for i := range ref {
			if (got[i].Row >= firstNew) != (ref[i].Row >= firstNew) {
				t.Fatalf("trial %d position %d: row %d, reference row %d: a tie broke the other way", trial, i, got[i].Row, ref[i].Row)
			}
		}
		rows := make([]bool, len(ref))
		for _, pt := range got {
			if rows[pt.Row] {
				t.Fatalf("trial %d: row %d merged twice", trial, pt.Row)
			}
			rows[pt.Row] = true
		}
	}
}

// TestFrontierCutsAcrossShapes holds the frontier's interval structures,
// built into storage kept from window to window, to
// histogram.Merge(histogram.FromSorted(share, q), grid) (the oracle's
// per-leaf construction) on trees whose leaf count grows and shrinks
// between windows, at bin counts whose merged cuts reach the guide
// index's 32 or not: same cuts, and the same interval for every value.
func TestFrontierCutsAcrossShapes(t *testing.T) {
	cfg := goldenConfig("").withDefaults()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	reservoir := g.Generate(cfg.ReservoirCap).Records
	for _, q := range []int{16, 40} {
		e := &engine{cfg: cfg, reservoir: reservoir}
		e.cfg.Clouds.HistBins = q
		indexed := 0
		for _, depth := range []int{3, 7, 1, 5, 8, 2} {
			cc := cfg.Clouds
			cc.MaxDepth = depth
			tr, _, err := clouds.BuildInCore(cc, &record.Dataset{Schema: cfg.Schema, Records: reservoir}, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.tree, e.flat = tr, nil
			e.buildFrontier()
			want := frontierIntervalsOracle(cfg.Schema, tr, reservoir, q)
			if len(e.frontier) != len(want) {
				t.Fatalf("q=%d depth %d: %d frontier leaves, oracle %d", q, depth, len(e.frontier), len(want))
			}
			for l, fl := range e.frontier {
				for j, iv := range fl.stats.Intervals() {
					w := want[l][j]
					if !sameCuts(iv.Cuts, w.Cuts) {
						t.Fatalf("q=%d depth %d leaf %d attribute %d: cuts %v, oracle %v", q, depth, l, j, iv.Cuts, w.Cuts)
					}
					if len(w.Cuts) >= 32 {
						indexed++
					}
					probes := []float64{math.NaN(), math.Inf(-1), math.Inf(1)}
					for _, c := range w.Cuts {
						probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
					}
					got, ref := make([]int32, len(probes)), make([]int32, len(probes))
					iv.LocateBatch(probes, got)
					w.LocateBatch(probes, ref)
					if !slices.Equal(got, ref) {
						t.Fatalf("q=%d depth %d leaf %d attribute %d: intervals %v, oracle %v", q, depth, l, j, got, ref)
					}
				}
			}
		}
		if q == 40 && indexed == 0 {
			t.Fatalf("q=%d: no structure reached the guide index", q)
		}
	}
}
