package clouds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/gini"
	"pclouds/internal/metrics"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func genData(t *testing.T, n, fn int, seed int64) *record.Dataset {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: fn, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n)
}

func testCfg(m Method) Config {
	return Config{Method: m, QRoot: 64, QMin: 8, SmallNodeQ: 4, SampleSize: 400, MinNodeSize: 2, MaxDepth: 14, Seed: 3}
}

func TestBuildInCoreLearnsFunction2(t *testing.T) {
	train := genData(t, 6000, 2, 1)
	test := genData(t, 2000, 2, 2)
	for _, m := range []Method{SS, SSE} {
		tr, st, err := BuildInCore(testCfg(m), train, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: tree fails invariants: %v", m, err)
		}
		if acc := metrics.Accuracy(tr, test); acc < 0.95 {
			t.Errorf("%v: accuracy %.3f < 0.95", m, acc)
		}
		if st.Nodes == 0 || st.Leaves == 0 || st.Nodes != tr.NumNodes() {
			t.Errorf("%v: bad stats %+v", m, st)
		}
	}
}

func TestSSEAtLeastAsGoodAsSS(t *testing.T) {
	// SSE searches a superset of SS's candidate splits, so the root split
	// gini of SSE must be <= that of SS.
	train := genData(t, 5000, 2, 9)
	cfgSS, cfgSSE := testCfg(SS), testCfg(SSE)
	sample := cfgSS.SampleFor(train)
	trSS, _, err := BuildInCore(cfgSS, train, sample)
	if err != nil {
		t.Fatal(err)
	}
	trSSE, _, err := BuildInCore(cfgSSE, train, sample)
	if err != nil {
		t.Fatal(err)
	}
	if trSS.Root.IsLeaf() || trSSE.Root.IsLeaf() {
		t.Fatal("degenerate roots")
	}
	if trSSE.Root.Splitter.Gini > trSS.Root.Splitter.Gini+1e-12 {
		t.Fatalf("SSE root gini %.6f worse than SS %.6f", trSSE.Root.Splitter.Gini, trSS.Root.Splitter.Gini)
	}
}

func TestSSECloseToDirectAtRoot(t *testing.T) {
	// The SSE root split must be close (in gini) to the exact direct split.
	train := genData(t, 4000, 2, 5)
	cfg := testCfg(SSE)
	sample := cfg.SampleFor(train)
	tr, _, err := BuildInCore(cfg, train, sample)
	if err != nil {
		t.Fatal(err)
	}
	direct := DirectSplit(train.Schema, train.Records)
	if !direct.Valid || tr.Root.IsLeaf() {
		t.Fatal("no valid splits")
	}
	if tr.Root.Splitter.Gini > direct.Gini+0.01 {
		t.Fatalf("SSE root gini %.5f far from direct %.5f", tr.Root.Splitter.Gini, direct.Gini)
	}
}

func TestDirectSplitExactOnTinySet(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	recs := []record.Record{
		{Num: []float64{1}, Class: 0},
		{Num: []float64{2}, Class: 0},
		{Num: []float64{3}, Class: 1},
		{Num: []float64{4}, Class: 1},
	}
	c := DirectSplit(schema, recs)
	if !c.Valid || c.Kind != tree.NumericSplit || c.Threshold != 2 || c.Gini != 0 {
		t.Fatalf("expected pure split at x<=2, got %+v", c)
	}
}

func TestDirectSplitEmptyAndPure(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	if c := DirectSplit(schema, nil); c.Valid {
		t.Fatal("empty set should yield invalid candidate")
	}
	pure := []record.Record{{Num: []float64{1}, Class: 0}, {Num: []float64{2}, Class: 0}}
	c := DirectSplit(schema, pure)
	// A pure set can still split validly but gains nothing; gini stays 0.
	if c.Valid && c.Gini != 0 {
		t.Fatalf("pure set split gini %v", c.Gini)
	}
}

func TestDirectSplitCategorical(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "c", Kind: record.Categorical, Cardinality: 3}}, 2)
	var recs []record.Record
	for i := 0; i < 10; i++ {
		recs = append(recs,
			record.Record{Cat: []int32{0}, Class: 0},
			record.Record{Cat: []int32{1}, Class: 1},
			record.Record{Cat: []int32{2}, Class: 0},
		)
	}
	c := DirectSplit(schema, recs)
	if !c.Valid || c.Kind != tree.CategoricalSplit || c.Gini != 0 {
		t.Fatalf("expected pure categorical split, got %+v", c)
	}
	if c.InLeft[1] == c.InLeft[0] || c.InLeft[0] != c.InLeft[2] {
		t.Fatalf("wrong subset %v", c.InLeft)
	}
}

func TestCandidateOrdering(t *testing.T) {
	a := Candidate{Valid: true, Gini: 0.1, Attr: 0, Kind: tree.NumericSplit, Threshold: 5}
	b := Candidate{Valid: true, Gini: 0.2, Attr: 0, Kind: tree.NumericSplit, Threshold: 1}
	if !a.Better(b) || b.Better(a) {
		t.Fatal("gini ordering broken")
	}
	c := Candidate{Valid: true, Gini: 0.1, Attr: 1, Kind: tree.NumericSplit, Threshold: 1}
	if !a.Better(c) || c.Better(a) {
		t.Fatal("attr tie-break broken")
	}
	d := Candidate{Valid: true, Gini: 0.1, Attr: 0, Kind: tree.NumericSplit, Threshold: 6}
	if !a.Better(d) || d.Better(a) {
		t.Fatal("threshold tie-break broken")
	}
	inv := Candidate{Valid: false}
	if inv.Better(a) || !a.Better(inv) {
		t.Fatal("invalid ordering broken")
	}
	if inv.Better(inv) {
		t.Fatal("invalid vs invalid should not prefer either")
	}
}

func TestCandidateEncodeRoundTrip(t *testing.T) {
	cands := []Candidate{
		{Valid: true, Gini: 0.123, Attr: 4, Kind: tree.NumericSplit, Threshold: -17.5},
		{Valid: true, Gini: 0.5, Attr: 2, Kind: tree.CategoricalSplit, InLeft: []bool{true, false, true}},
		{Valid: false, Gini: math.Inf(1)},
	}
	for i, c := range cands {
		got, err := DecodeCandidate(c.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Valid != c.Valid || got.Attr != c.Attr || got.Kind != c.Kind {
			t.Fatalf("case %d mismatch: %+v vs %+v", i, got, c)
		}
		if c.Valid && c.Kind == tree.NumericSplit && got.Threshold != c.Threshold {
			t.Fatalf("case %d threshold", i)
		}
		for j := range c.InLeft {
			if got.InLeft[j] != c.InLeft[j] {
				t.Fatalf("case %d subset", i)
			}
		}
	}
	if _, err := DecodeCandidate([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestNodeStatsFlattenRoundTrip(t *testing.T) {
	data := genData(t, 500, 2, 4)
	cfg := testCfg(SSE)
	sample := cfg.SampleFor(data)
	intervals := BuildIntervals(data.Schema, sample, 16)
	ns := NewNodeStats(data.Schema, intervals)
	for _, r := range data.Records {
		ns.Add(r)
	}
	flat := ns.Flatten()
	ns2 := NewNodeStats(data.Schema, intervals)
	if err := ns2.Unflatten(flat); err != nil {
		t.Fatal(err)
	}
	if ns2.N != ns.N {
		t.Fatal("N lost")
	}
	for j := range ns.Numeric {
		for i := range ns.Numeric[j].Freq {
			for c := range ns.Numeric[j].Freq[i] {
				if ns.Numeric[j].Freq[i][c] != ns2.Numeric[j].Freq[i][c] {
					t.Fatal("numeric freq lost")
				}
			}
		}
	}
	if err := ns2.Unflatten(flat[:len(flat)-1]); err == nil {
		t.Fatal("short flatten should fail")
	}
}

func TestNodeStatsMergeEqualsSum(t *testing.T) {
	data := genData(t, 1000, 2, 8)
	cfg := testCfg(SSE)
	sample := cfg.SampleFor(data)
	intervals := BuildIntervals(data.Schema, sample, 8)
	whole := NewNodeStats(data.Schema, intervals)
	a := NewNodeStats(data.Schema, intervals)
	b := NewNodeStats(data.Schema, intervals)
	for i, r := range data.Records {
		whole.Add(r)
		if i%2 == 0 {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	fa, fw := a.Flatten(), whole.Flatten()
	for i := range fw {
		if fa[i] != fw[i] {
			t.Fatalf("merge differs from whole at %d", i)
		}
	}
}

func TestNodeStatsIntervalTotalsMatchClassCounts(t *testing.T) {
	// Property: for every numeric attribute, summing interval frequencies
	// recovers the node's class counts.
	f := func(seed int64) bool {
		n := 200
		g, err := datagen.New(datagen.Config{Function: 1 + int(uint64(seed)%10), Seed: seed})
		if err != nil {
			return false
		}
		data := g.Generate(n)
		intervals := BuildIntervals(data.Schema, data.Records[:50], 7)
		ns := NewNodeStats(data.Schema, intervals)
		for _, r := range data.Records {
			ns.Add(r)
		}
		for _, nst := range ns.Numeric {
			sum := make([]int64, data.Schema.NumClasses)
			for _, f := range nst.Freq {
				gini.Add(sum, f)
			}
			for c := range sum {
				if sum[c] != ns.Class[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateIntervalFindsExactBest(t *testing.T) {
	// One attribute, points only inside the interval: EvaluateInterval must
	// match DirectSplit.
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 50; iter++ {
		var recs []record.Record
		var pts []Point
		total := make([]int64, 2)
		for i := 0; i < 100; i++ {
			v := rng.Float64() * 10
			cls := int32(0)
			if v > 5 == (rng.Float64() < 0.9) {
				cls = 1
			}
			recs = append(recs, record.Record{Num: []float64{v}, Class: cls})
			pts = append(pts, Point{V: v, Class: cls})
			total[cls]++
		}
		got := EvaluateInterval(0, []int64{0, 0}, total, pts)
		want := DirectSplit(schema, recs)
		if got.Gini != want.Gini || got.Threshold != want.Threshold {
			t.Fatalf("EvaluateInterval %+v != DirectSplit %+v", got, want)
		}
	}
}

func TestEvaluateIntervalEmpty(t *testing.T) {
	if c := EvaluateInterval(0, []int64{0, 0}, []int64{5, 5}, nil); c.Valid {
		t.Fatal("empty interval should be invalid")
	}
}

func TestDetermineAliveNeverPrunesBetterSplit(t *testing.T) {
	// Integration property: on many datasets, the SSE result must equal
	// evaluating ALL intervals exactly (pruning is sound).
	for seed := int64(0); seed < 5; seed++ {
		data := genData(t, 1500, 2, 100+seed)
		cfg := testCfg(SSE)
		sample := cfg.SampleFor(data)
		intervals := BuildIntervals(data.Schema, sample, 16)
		ns := NewNodeStats(data.Schema, intervals)
		for _, r := range data.Records {
			ns.Add(r)
		}
		best := BestBoundarySplit(ns)
		giniMin := best.Gini
		alive := DetermineAlive(ns, giniMin)

		// Evaluate EVERY interval exactly (alive or not).
		allBest := best
		for j, nst := range ns.Numeric {
			ptsAll := make([][]Point, nst.Intervals.NumIntervals())
			for _, r := range data.Records {
				v := r.Num[j]
				i := nst.Intervals.Locate(v)
				ptsAll[i] = append(ptsAll[i], Point{V: v, Class: r.Class})
			}
			left := make([]int64, len(ns.Class))
			for i := range ptsAll {
				cand := EvaluateInterval(nst.Attr, left, ns.Class, ptsAll[i])
				if cand.Better(allBest) {
					allBest = cand
				}
				gini.Add(left, nst.Freq[i])
			}
		}
		// Evaluate only alive intervals.
		aliveBest := best
		for _, ai := range alive.List {
			nst := ns.Numeric[ai.AttrJ]
			var pts []Point
			for _, r := range data.Records {
				v := r.Num[ai.AttrJ]
				if nst.Intervals.Locate(v) == ai.Interval {
					pts = append(pts, Point{V: v, Class: r.Class})
				}
			}
			cand := EvaluateInterval(nst.Attr, ai.LeftBefore, ns.Class, pts)
			if cand.Better(aliveBest) {
				aliveBest = cand
			}
		}
		if aliveBest.Gini > allBest.Gini+1e-12 {
			t.Fatalf("seed %d: alive pruning lost the best split: %.6f vs %.6f", seed, aliveBest.Gini, allBest.Gini)
		}
	}
}

// TestOutOfCoreMatchesInCore builds the same data in memory and from a
// store under memory limits from one record to unlimited: streamed nodes
// must pick the splits in-memory nodes pick under every split protocol.
func TestOutOfCoreMatchesInCore(t *testing.T) {
	data := genData(t, 3000, 2, 12)
	for _, sm := range []SplitMethod{SplitSSE, SplitHist, SplitVote} {
		cfg := testCfg(SSE)
		cfg.Split = sm
		sample := cfg.SampleFor(data)
		inCore, _, err := BuildInCore(cfg, data, sample)
		if err != nil {
			t.Fatal(err)
		}
		for _, limRecords := range []int64{0, 1, 100, 1000, 1 << 40} {
			store := ooc.NewMemStore(data.Schema, costmodel.Zero(), nil)
			if err := store.WriteAll("root", data.Records); err != nil {
				t.Fatal(err)
			}
			var mem *ooc.MemLimit
			if limRecords > 0 {
				mem = ooc.NewMemLimit(limRecords * int64(data.Schema.RecordBytes()))
			}
			outCore, _, err := BuildOutOfCore(cfg, store, "root", sample, mem)
			if err != nil {
				t.Fatal(err)
			}
			if !tree.Equal(inCore, outCore) {
				t.Fatalf("%v, mem limit %d records: out-of-core tree has %d nodes, in-core %d",
					sm, limRecords, outCore.NumNodes(), inCore.NumNodes())
			}
			// All intermediate node files must be cleaned up.
			names, err := store.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Fatalf("%v, mem limit %d: leftover files %v", sm, limRecords, names)
			}
		}
	}
}

func TestOutOfCoreFileBackend(t *testing.T) {
	data := genData(t, 1200, 3, 2)
	cfg := testCfg(SSE)
	sample := cfg.SampleFor(data)
	store, err := ooc.NewFileStore(data.Schema, t.TempDir(), costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteAll("root", data.Records); err != nil {
		t.Fatal(err)
	}
	mem := ooc.NewMemLimit(200 * int64(data.Schema.RecordBytes()))
	tr, _, err := BuildOutOfCore(cfg, store, "root", sample, mem)
	if err != nil {
		t.Fatal(err)
	}
	inCore, _, err := BuildInCore(cfg, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(tr, inCore) {
		t.Fatal("file-backend out-of-core tree differs")
	}
}

func TestBuildEmptyDataset(t *testing.T) {
	d := record.NewDataset(datagen.Schema())
	if _, _, err := BuildInCore(testCfg(SSE), d, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{QRoot: 100, QMin: 10, SmallNodeQ: 10, MinNodeSize: 2}
	if q := cfg.QForNode(1000, 1000); q != 100 {
		t.Fatalf("root q %d", q)
	}
	if q := cfg.QForNode(500, 1000); q != 50 {
		t.Fatalf("half q %d", q)
	}
	if q := cfg.QForNode(10, 1000); q != 10 {
		t.Fatalf("floored q %d", q)
	}
	if !cfg.IsSmall(50, 1000) { // q would be 5 < 10
		t.Fatal("expected small")
	}
	if cfg.IsSmall(200, 1000) { // q = 20
		t.Fatal("expected large")
	}
	if !cfg.ShouldStop([]int64{5, 0}, 5, 1) {
		t.Fatal("pure node should stop")
	}
	if !cfg.ShouldStop([]int64{1, 0}, 1, 0) {
		t.Fatal("tiny node should stop")
	}
	if cfg.ShouldStop([]int64{5, 5}, 10, 3) {
		t.Fatal("mixed node should not stop")
	}
	capped := cfg
	capped.MaxDepth = 3
	if !capped.ShouldStop([]int64{5, 5}, 10, 3) {
		t.Fatal("depth cap should stop")
	}
}

func TestSurvivalRatioReported(t *testing.T) {
	data := genData(t, 5000, 2, 77)
	cfg := testCfg(SSE)
	_, st, err := BuildInCore(cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := st.SurvivalRatio()
	if sr < 0 || sr > 1.5 {
		t.Fatalf("survival ratio %v implausible", sr)
	}
	if st.BoundaryEvaluated == 0 {
		t.Fatal("SSE never evaluated boundaries")
	}
}

// TestRandomSchemasRobust builds trees over randomly shaped schemas and
// data; every build must succeed and satisfy the tree invariants.
func TestRandomSchemasRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		nNum := rng.Intn(4)
		nCat := rng.Intn(3)
		if nNum+nCat == 0 {
			nNum = 1
		}
		classes := 2 + rng.Intn(4)
		var attrs []record.Attribute
		for j := 0; j < nNum; j++ {
			attrs = append(attrs, record.Attribute{Name: string(rune('a' + j)), Kind: record.Numeric})
		}
		for j := 0; j < nCat; j++ {
			attrs = append(attrs, record.Attribute{
				Name: string(rune('p' + j)), Kind: record.Categorical, Cardinality: 2 + rng.Intn(6),
			})
		}
		schema := record.MustSchema(attrs, classes)
		n := 50 + rng.Intn(500)
		d := record.NewDataset(schema)
		for i := 0; i < n; i++ {
			rec := record.Record{Class: int32(rng.Intn(classes))}
			for j := 0; j < nNum; j++ {
				switch rng.Intn(3) {
				case 0:
					rec.Num = append(rec.Num, rng.NormFloat64())
				case 1:
					rec.Num = append(rec.Num, float64(rng.Intn(3))) // heavy ties
				default:
					rec.Num = append(rec.Num, rng.Float64()*1e9)
				}
			}
			for j := 0; j < nCat; j++ {
				card := schema.Attrs[schema.CategoricalIndices()[j]].Cardinality
				rec.Cat = append(rec.Cat, int32(rng.Intn(card)))
			}
			d.Append(rec)
		}
		cfg := Config{
			Method: Method(rng.Intn(2)), QRoot: 8 + rng.Intn(64), QMin: 4,
			SmallNodeQ: 2 + rng.Intn(8), SampleSize: 20 + rng.Intn(200),
			MinNodeSize: 2, MaxDepth: 6 + rng.Intn(8), Seed: int64(iter),
		}
		tr, _, err := BuildInCore(cfg, d, nil)
		if err != nil {
			t.Fatalf("iter %d (schema %v classes %d n %d): %v", iter, schema, classes, n, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: invariants: %v", iter, err)
		}
		// Training accuracy must beat always-majority (or equal it for
		// unlearnable random labels).
		counts := d.ClassCounts()
		var maxC int64
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		if acc := metrics.Accuracy(tr, d); acc+1e-9 < float64(maxC)/float64(n) {
			t.Fatalf("iter %d: training accuracy %.4f below majority baseline %.4f", iter, acc, float64(maxC)/float64(n))
		}
	}
}

// TestCandidateLeftCountsConsistent: every valid candidate the large-node
// machinery emits must carry left counts that sum to LeftN, with
// 0 < LeftN < n — the fused partition pass depends on this bookkeeping.
func TestCandidateLeftCountsConsistent(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		data := genData(t, 800, 1+int(seed%10), 200+seed)
		cfg := testCfg(SSE)
		sample := cfg.SampleFor(data)
		intervals := BuildIntervals(data.Schema, sample, 16)
		ns := NewNodeStats(data.Schema, intervals)
		for _, r := range data.Records {
			ns.Add(r)
		}
		n := int64(data.Len())
		check := func(name string, c Candidate) {
			if !c.Valid {
				return
			}
			if c.LeftN <= 0 || c.LeftN >= n {
				t.Fatalf("seed %d %s: LeftN %d out of (0,%d)", seed, name, c.LeftN, n)
			}
			if got := gini.Sum(c.LeftCounts); got != c.LeftN {
				t.Fatalf("seed %d %s: LeftCounts sum %d != LeftN %d", seed, name, got, c.LeftN)
			}
			// Roundtrip through the wire format must preserve both.
			rt, err := DecodeCandidate(c.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if rt.LeftN != c.LeftN || gini.Sum(rt.LeftCounts) != c.LeftN {
				t.Fatalf("seed %d %s: codec lost left counts", seed, name)
			}
		}
		best := BestBoundarySplit(ns)
		check("boundary", best)

		giniMin := best.Gini
		if !best.Valid {
			giniMin = gini.Index(ns.Class)
		}
		alive := DetermineAlive(ns, giniMin)
		for _, ai := range alive.List {
			nst := ns.Numeric[ai.AttrJ]
			var pts []Point
			for _, r := range data.Records {
				v := r.Num[ai.AttrJ]
				if nst.Intervals.Locate(v) == ai.Interval {
					pts = append(pts, Point{V: v, Class: r.Class})
				}
			}
			check("interval", EvaluateInterval(nst.Attr, ai.LeftBefore, ns.Class, pts))
		}
	}
}
