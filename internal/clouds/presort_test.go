package clouds

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pclouds/internal/gini"
	"pclouds/internal/histogram"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// The per-node sort survives here only as the oracle of the presorted
// builder, the way Tree.Classify serves the compiled walk: perNodeSortBuild
// is the recursion the builders ran before presorting — every small node
// sorts its records along every numeric attribute (directSplitPerNodeSort),
// every large node counts its records row by row over interval structures
// built from a freshly sorted sample (BuildIntervals) and collects its
// alive points row by row (AliveCollector.Add), and records and samples
// are split with PartitionRecords.

type oracleBuilder struct{ builder }

// perNodeSortBuild builds the subtree BuildSubtree builds, the old way.
func perNodeSortBuild(cfg Config, schema *record.Schema, recs, sample []record.Record, depth int, nRoot int64) (*tree.Node, *BuildStats) {
	b := &oracleBuilder{builder{cfg: cfg.WithDefaults(), schema: schema, nRoot: nRoot}}
	nd := b.build(recs, sample, depth)
	return nd, &b.stats
}

func (b *oracleBuilder) build(recs, sample []record.Record, depth int) *tree.Node {
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	n := int64(len(recs))
	classCounts := make([]int64, b.schema.NumClasses)
	for _, r := range recs {
		classCounts[r.Class]++
	}
	if b.cfg.ShouldStop(classCounts, n, depth) {
		return b.leaf(classCounts, n)
	}
	var cand Candidate
	if b.cfg.IsSmall(n, b.nRoot) {
		b.stats.SmallNodes++
		b.stats.RecordReads += n
		cand = directSplitPerNodeSort(b.schema, recs)
	} else {
		cand = b.largeSplit(recs, sample, n)
	}
	if !cand.Valid {
		return b.leaf(classCounts, n)
	}
	sp := cand.Splitter()
	leftRecs, rightRecs := PartitionRecords(b.schema, recs, sp)
	b.stats.RecordReads += n
	if len(leftRecs) == 0 || len(rightRecs) == 0 {
		return b.leaf(classCounts, n)
	}
	leftSample, rightSample := PartitionRecords(b.schema, sample, sp)
	nd := &tree.Node{Splitter: sp, ClassCounts: classCounts, N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	nd.Left = b.build(leftRecs, leftSample, depth+1)
	nd.Right = b.build(rightRecs, rightSample, depth+1)
	return nd
}

// largeSplit counts the node's records row by row over intervals from a
// freshly sorted sample, and collects alive points row by row.
func (b *oracleBuilder) largeSplit(recs, sample []record.Record, n int64) Candidate {
	ns := NewNodeStats(b.schema, BuildIntervals(b.schema, sample, b.cfg.NodeQ(n, b.nRoot)))
	for _, r := range recs {
		ns.Add(r)
	}
	b.stats.RecordReads += n
	best, _ := b.splitLarge(ns, func(alive []AliveInterval) ([][]Point, error) {
		col := NewAliveCollector(ns.Intervals(), alive, make([]int64, len(alive)))
		for i := range recs {
			col.Add(&recs[i])
		}
		runs := make([][]Point, len(alive))
		for s := range runs {
			runs[s] = col.Points(s)
			SortPoints(runs[s])
		}
		return runs, nil
	})
	return best
}

// Add routes one record's numeric values into the alive slots they hit:
// the row-by-row collection AddBatch must match.
func (c *AliveCollector) Add(rec *record.Record) {
	for a := range c.attrs {
		at := &c.attrs[a]
		v := rec.Num[at.j]
		if s := at.slot[at.iv.Locate(v)]; s >= 0 {
			c.slots[s] = append(c.slots[s], Point{V: v, Class: rec.Class})
		}
	}
}

// PartitionRecords splits recs by the splitter; order within each side is
// preserved.
func PartitionRecords(schema *record.Schema, recs []record.Record, sp *tree.Splitter) (left, right []record.Record) {
	for _, r := range recs {
		if sp.GoesLeft(schema, r) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}

// directSplitPerNodeSort is the direct method with its own sort: the points
// of every numeric attribute are sorted for this node alone.
func directSplitPerNodeSort(schema *record.Schema, recs []record.Record) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(recs) == 0 {
		return best
	}
	total := make([]int64, schema.NumClasses)
	for _, r := range recs {
		total[r.Class]++
	}
	nTotal := int64(len(recs))
	pts := make([]Point, len(recs))
	left := make([]int64, schema.NumClasses)
	right := make([]int64, schema.NumClasses)
	for j, attr := range schema.NumericIndices() {
		for i, r := range recs {
			pts[i] = Point{V: r.Num[j], Class: r.Class}
		}
		SortPoints(pts)
		clear(left)
		var nLeft int64
		for i := range pts {
			if pts[i].V != pts[i].V {
				break
			}
			left[pts[i].Class]++
			nLeft++
			if i+1 < len(pts) && pts[i+1].V == pts[i].V {
				continue
			}
			if nLeft == nTotal {
				continue
			}
			for k := range right {
				right[k] = total[k] - left[k]
			}
			cand := Candidate{Valid: true, Gini: gini.SplitIndex(left, right), Attr: attr, Kind: tree.NumericSplit, Threshold: pts[i].V}
			if cand.Threshold == 0 {
				cand.Threshold = 0
			}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	for j, attr := range schema.CategoricalIndices() {
		cm := gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses)
		for _, r := range recs {
			cm.Add(r.Cat[j], r.Class)
		}
		if cand := BestCategorical(cm, attr, total, nTotal); cand.Better(best) {
			best = cand
		}
	}
	return best
}

// awkwardValue draws a numeric value from the cases the presorted columns
// must order exactly like a per-node sort: NaN, ±Inf, both zeros, integer
// ties and continuous values.
func awkwardValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5, 6, 7:
		return float64(rng.Intn(6) - 2)
	default:
		return rng.NormFloat64()
	}
}

// randomAwkwardDataset draws rows records over nNum numeric and nCat
// categorical attributes and classes classes.
func randomAwkwardDataset(rng *rand.Rand, rows, nNum, nCat, classes int) *record.Dataset {
	var attrs []record.Attribute
	for j := 0; j < nNum; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("x%d", j), Kind: record.Numeric})
	}
	for j := 0; j < nCat; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("c%d", j), Kind: record.Categorical, Cardinality: 2 + j})
	}
	schema := record.MustSchema(attrs, classes)
	d := record.NewDataset(schema)
	for i := 0; i < rows; i++ {
		r := record.Record{Num: make([]float64, nNum), Cat: make([]int32, nCat), Class: int32(rng.Intn(classes))}
		for j := range r.Num {
			r.Num[j] = awkwardValue(rng)
		}
		for j := range r.Cat {
			r.Cat[j] = int32(rng.Intn(2 + j))
		}
		d.Append(r)
	}
	return d
}

// checkPresortedAgainstOracle builds data both ways — whole (large root,
// small subtrees below) and as one small task — and compares tree bytes and
// statistics, then compares interval cuts read off the presorted sample
// with cuts from a freshly sorted copy.
func checkPresortedAgainstOracle(t *testing.T, data *record.Dataset, sample []record.Record, cfg Config) {
	t.Helper()
	schema := data.Schema
	nRoot := int64(data.Len())
	for _, c := range []struct {
		name  string
		nRoot int64
	}{{"whole", nRoot}, {"small-task", 1 << 40}} {
		got, gotStats := BuildSubtree(cfg, schema, data.Records, Presort(schema, sample), 1, c.nRoot)
		want, wantStats := perNodeSortBuild(cfg, schema, data.Records, sample, 1, c.nRoot)
		gotBytes := tree.Encode(&tree.Tree{Schema: schema, Root: got})
		wantBytes := tree.Encode(&tree.Tree{Schema: schema, Root: want})
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: presorted tree differs from the per-node sort's\n got %s\nwant %s", c.name,
				(&tree.Tree{Schema: schema, Root: got}).String(), (&tree.Tree{Schema: schema, Root: want}).String())
		}
		if *gotStats != *wantStats {
			t.Fatalf("%s: presorted stats %+v, per-node sort %+v", c.name, *gotStats, *wantStats)
		}
	}
	for _, q := range []int{2, 7, 40} {
		got := Presort(schema, sample).Intervals(q)
		want := BuildIntervals(schema, sample, q)
		for j := range want {
			if !sameCuts(got[j].Cuts, want[j].Cuts) {
				t.Fatalf("q=%d attr %d: presorted cuts %v, freshly sorted %v", q, j, got[j].Cuts, want[j].Cuts)
			}
		}
	}
}

// sameCuts compares cut vectors bit for bit.
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

// TestPresortedMatchesPerNodeSort is the differential oracle of the
// presorted builder: over random datasets with NaN, ±Inf, ±0 and integer
// ties, 2–5 classes, 1–5,000 rows, and mixed, numeric-only and
// categorical-only schemas, the builder that sorts once per small task and
// once per sample must encode the same tree bytes and count the same
// BuildStats as one that sorts at every node.
func TestPresortedMatchesPerNodeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shapes := []struct{ num, cat int }{{3, 2}, {4, 0}, {0, 3}}
	sizes := []int{1, 2, 7, 60, 400, 5000}
	for i, rows := range sizes {
		for _, sh := range shapes {
			classes := 2 + rng.Intn(4)
			data := randomAwkwardDataset(rng, rows, sh.num, sh.cat, classes)
			for _, method := range []Method{SSE, SS} {
				name := fmt.Sprintf("rows%d/num%d-cat%d/k%d/%v", rows, sh.num, sh.cat, classes, method)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Method: method, QRoot: 40, QMin: 4, SmallNodeQ: 10, MinNodeSize: 2, Seed: int64(i)}
					sample := cfg.WithDefaults().SampleFor(data)
					checkPresortedAgainstOracle(t, data, sample, cfg)
				})
			}
		}
	}
}

// FuzzPresortedSplit feeds byte-chosen datasets to the differential oracle:
// each row takes two numeric values from a palette of awkward values, one
// categorical value and a class from its bytes.
func FuzzPresortedSplit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(2))
	f.Add([]byte{3, 4, 0, 1, 4, 3, 1, 0, 9, 9, 9, 9}, uint8(3))
	f.Add(bytes.Repeat([]byte{4, 3, 2, 1}, 50), uint8(5))
	palette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2, 0.5, -3.25, 1e300, -1e-300}
	schema := record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 3},
		{Name: "y", Kind: record.Numeric},
	}, 5)
	f.Fuzz(func(t *testing.T, raw []byte, classes uint8) {
		k := 2 + int(classes)%4
		data := record.NewDataset(schema)
		for i := 0; i+4 <= len(raw) && data.Len() < 2000; i += 4 {
			data.Append(record.Record{
				Num:   []float64{palette[int(raw[i])%len(palette)], palette[int(raw[i+1])%len(palette)]},
				Cat:   []int32{int32(raw[i+2]) % 3},
				Class: int32(raw[i+3]) % int32(k),
			})
		}
		cfg := Config{Method: SSE, QRoot: 20, QMin: 3, SmallNodeQ: 10, MinNodeSize: 2, Seed: 1}
		checkPresortedAgainstOracle(t, data, data.Records, cfg)
	})
}

// permutations calls fn with every ordering of pts (Heap's algorithm).
func permutations(pts []Point, fn func([]Point)) {
	var gen func(k int)
	gen = func(k int) {
		if k == 1 {
			fn(pts)
			return
		}
		for i := 0; i < k; i++ {
			gen(k - 1)
			if k%2 == 0 {
				pts[i], pts[k-1] = pts[k-1], pts[i]
			} else {
				pts[0], pts[k-1] = pts[k-1], pts[0]
			}
		}
	}
	gen(len(pts))
}

// TestSignedZeroThresholdsOrderFree: -0 and +0 tie, so which of them ends a
// tie depends on input order — record order in a small task, rank order in
// a parallel merge. Every permutation of a point set holding both must give
// bit-identical exact-search candidates, direct-method candidates and
// interval cuts, with the zero stored as +0.
func TestSignedZeroThresholdsOrderFree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	base := []Point{{V: -1}, {V: negZero}, {V: 0}, {V: 1, Class: 1}, {V: 2, Class: 1}, {V: negZero}}
	total := []int64{4, 2}
	seen := 0
	permutations(base, func(pts []Point) {
		seen++
		exact := EvaluateInterval(0, []int64{0, 0}, total, append([]Point(nil), pts...))
		recs := make([]record.Record, len(pts))
		vals := make([]float64, len(pts))
		for i, p := range pts {
			recs[i] = record.Record{Num: []float64{p.V}, Class: p.Class}
			vals[i] = p.V
		}
		direct := DirectSplit(schema, recs)
		for _, c := range []Candidate{exact, direct} {
			if !c.Valid || math.Float64bits(c.Threshold) != 0 {
				t.Fatalf("order %v: threshold %v (bits %#x), want +0", pts, c.Threshold, math.Float64bits(c.Threshold))
			}
		}
		for q := 2; q <= len(vals); q++ {
			for _, iv := range []*histogram.Intervals{histogram.FromSample(vals, q), Presort(schema, recs).Intervals(q)[0]} {
				for _, c := range iv.Cuts {
					if c == 0 && math.Signbit(c) {
						t.Fatalf("order %v, q=%d: cut -0 in %v", pts, q, iv.Cuts)
					}
				}
			}
		}
	})
	if seen != 720 {
		t.Fatalf("visited %d orders, want 720", seen)
	}
}
