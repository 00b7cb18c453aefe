package tree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pclouds/internal/record"
)

// checkCompiled asserts that the compiled form of tr routes every row to
// the leaf the pointer walk reaches, through Leaf, LeafBatch and
// ClassifyBatch alike.
func checkCompiled(t testing.TB, tr *Tree, rows []record.Record) {
	t.Helper()
	pre := map[*Node]int32{}
	tr.Walk(func(n *Node, _ int) { pre[n] = int32(len(pre)) })
	c := Compile(tr)
	if c.NumNodes() != len(pre) {
		t.Fatalf("compiled %d nodes, tree has %d", c.NumNodes(), len(pre))
	}
	out := make([]int32, len(rows))
	leaves := make([]int32, len(rows))
	c.ClassifyBatch(rows, out)
	c.LeafBatch(rows, leaves)
	for i, r := range rows {
		want := tr.Leaf(r)
		if got := c.Leaf(r); got != pre[want] || leaves[i] != pre[want] {
			t.Fatalf("row %d %+v: compiled leaf %d, batched %d, pointer walk leaf %d", i, r, got, leaves[i], pre[want])
		}
		if c.nodes[c.Leaf(r)].class != want.Class || out[i] != tr.Classify(r) {
			t.Fatalf("row %d %+v: compiled class %d/%d, pointer walk %d", i, r, c.nodes[c.Leaf(r)].class, out[i], tr.Classify(r))
		}
	}
}

// randomRouteTree grows a random tree over s whose splitters include the
// cases GoesLeft must route right: attributes of the other kind or outside
// the schema, and subsets shorter or longer than the cardinality.
func randomRouteTree(rng *rand.Rand, s *record.Schema, depth int) *Tree {
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		n := &Node{ClassCounts: []int64{int64(rng.Intn(9)), int64(rng.Intn(9))}}
		n.N = n.ClassCounts[0] + n.ClassCounts[1]
		n.Class = n.Majority()
		if depth == 0 || rng.Intn(4) == 0 {
			return n
		}
		attr := rng.Intn(len(s.Attrs) + 1)
		if rng.Intn(2) == 0 {
			n.Splitter = &Splitter{Kind: NumericSplit, Attr: attr, Threshold: []float64{rng.NormFloat64(), math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(4)*rng.Intn(2)]}
		} else {
			in := make([]bool, rng.Intn(140))
			for v := range in {
				in[v] = rng.Intn(2) == 0
			}
			n.Splitter = &Splitter{Kind: CategoricalSplit, Attr: attr, InLeft: in}
		}
		n.Left, n.Right = gen(depth-1), gen(depth-1)
		return n
	}
	return &Tree{Schema: s, Root: gen(depth)}
}

// randomRouteRow draws a row with NaN, ±Inf, out-of-range categoricals and
// sometimes short Num/Cat slices.
func randomRouteRow(rng *rand.Rand, s *record.Schema) record.Record {
	r := record.Record{Num: make([]float64, s.NumNumeric()), Cat: make([]int32, s.NumCategorical())}
	for j := range r.Num {
		r.Num[j] = []float64{rng.NormFloat64(), math.NaN(), math.Inf(1), math.Inf(-1), 0}[rng.Intn(5)*rng.Intn(2)]
	}
	for j := range r.Cat {
		r.Cat[j] = []int32{int32(rng.Intn(140)), -1, math.MinInt32, math.MaxInt32, 64}[rng.Intn(5)*rng.Intn(2)]
	}
	if rng.Intn(8) == 0 {
		r.Num = r.Num[:rng.Intn(len(r.Num)+1)]
	}
	if rng.Intn(8) == 0 {
		r.Cat = r.Cat[:rng.Intn(len(r.Cat)+1)]
	}
	return r
}

// TestCompiledMatchesPointerWalk is the differential test of the compiled
// tree against the reference walk over random trees × random rows.
func TestCompiledMatchesPointerWalk(t *testing.T) {
	s := record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 3},
		{Name: "y", Kind: record.Numeric},
		{Name: "wide", Kind: record.Categorical, Cardinality: 130},
	}, 2)
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 200; i++ {
		tr := randomRouteTree(rng, s, rng.Intn(12))
		rows := make([]record.Record, rng.Intn(3*batchRows))
		for k := range rows {
			rows[k] = randomRouteRow(rng, s)
		}
		checkCompiled(t, tr, rows)
	}
}

// TestCompiledIsASnapshot: growing the tree after Compile does not change
// how the compiled form routes.
func TestCompiledIsASnapshot(t *testing.T) {
	tr := buildTestTree(t)
	c := Compile(tr)
	r := rec(20, 0, 0, 0)
	before := c.Leaf(r)
	tr.Root.Right.Splitter = &Splitter{Kind: NumericSplit, Attr: 2, Threshold: 0}
	tr.Root.Right.Left, tr.Root.Right.Right = &Node{ClassCounts: []int64{1, 0}, N: 1}, &Node{ClassCounts: []int64{0, 1}, N: 1, Class: 1}
	if c.Leaf(r) != before || c.NumNodes() != 5 {
		t.Fatal("compiled tree followed a change made after Compile")
	}
	checkCompiled(t, tr, []record.Record{r, rec(20, 0, 1, 0)})
}

// TestCompiledSharedAcrossGoroutines: one Compiled serves concurrent
// walkers, as one model does every engine worker.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	tr := randomRouteTree(rng, s, 10)
	rows := make([]record.Record, 500)
	for k := range rows {
		rows[k] = randomRouteRow(rng, s)
	}
	want := make([]int32, len(rows))
	for k, r := range rows {
		want[k] = tr.Classify(r)
	}
	c := Compile(tr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int32, len(rows))
			c.ClassifyBatch(rows, out)
			for k, r := range rows {
				if out[k] != want[k] || c.nodes[c.Leaf(r)].class != want[k] {
					t.Errorf("row %d: compiled %d/%d, pointer walk %d", k, out[k], c.nodes[c.Leaf(r)].class, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzCompiledTree: for any tree tree.Decode accepts and any rows, the
// compiled tree routes every row to the pointer walk's leaf. Rows are read
// from the second input as a header byte (low two bits: Num length, next
// two: Cat length) followed by that many float64 and int32 values, so NaN,
// ±Inf, out-of-range categoricals and short slots are all reachable.
func FuzzCompiledTree(f *testing.F) {
	s := testSchemaForFuzz()
	mixed := Encode(&Tree{Schema: s, Root: &Node{
		Splitter:    &Splitter{Kind: NumericSplit, Attr: 0, Threshold: 1.5},
		ClassCounts: []int64{3, 4}, N: 7, Class: 1,
		Left: &Node{
			Splitter:    &Splitter{Kind: CategoricalSplit, Attr: 1, InLeft: []bool{true, false, true}},
			ClassCounts: []int64{3, 1}, N: 4,
			Left:  &Node{ClassCounts: []int64{3, 0}, N: 3},
			Right: &Node{ClassCounts: []int64{0, 1}, N: 1, Class: 1},
		},
		Right: &Node{ClassCounts: []int64{0, 3}, N: 3, Class: 1},
	}})
	var rows []byte
	row := func(num []float64, cat []int32) {
		rows = append(rows, byte(len(num)|len(cat)<<2))
		for _, v := range num {
			rows = binary.LittleEndian.AppendUint64(rows, math.Float64bits(v))
		}
		for _, v := range cat {
			rows = binary.LittleEndian.AppendUint32(rows, uint32(v))
		}
	}
	row([]float64{1}, []int32{0})
	row([]float64{math.NaN()}, []int32{2})
	row([]float64{math.Inf(-1)}, []int32{3})
	row([]float64{0}, []int32{-1})
	row(nil, []int32{0})
	row([]float64{0}, nil)
	f.Add(mixed, rows)
	f.Add(Encode(&Tree{Schema: s, Root: &Node{ClassCounts: []int64{1, 2}, N: 3, Class: 1}}), rows)
	// Two and a half batches of full-width rows, which LeafBatch walks
	// without the per-row fallback, NaN and out-of-range values among them.
	rows = nil
	for k := range 2*batchRows + batchRows/2 {
		row([]float64{[]float64{float64(k%5) - 1, math.NaN(), math.Inf(1)}[k%3]}, []int32{int32(k%6 - 1)})
	}
	f.Add(mixed, rows)
	f.Fuzz(func(t *testing.T, treeBytes, rowBytes []byte) {
		tr, err := Decode(s, treeBytes)
		if err != nil {
			return
		}
		var recs []record.Record
		for len(rowBytes) > 0 {
			h := rowBytes[0]
			nn, nc := int(h&3), int(h>>2&3)
			rowBytes = rowBytes[1:]
			if len(rowBytes) < 8*nn+4*nc {
				break
			}
			r := record.Record{Num: make([]float64, nn), Cat: make([]int32, nc)}
			for j := range r.Num {
				r.Num[j] = math.Float64frombits(binary.LittleEndian.Uint64(rowBytes))
				rowBytes = rowBytes[8:]
			}
			for j := range r.Cat {
				r.Cat[j] = int32(binary.LittleEndian.Uint32(rowBytes))
				rowBytes = rowBytes[4:]
			}
			recs = append(recs, r)
		}
		checkCompiled(t, tr, recs)
	})
}
