package metrics

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion(2)
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	if c.Total() != 4 || c.Correct() != 3 {
		t.Fatalf("total %d correct %d", c.Total(), c.Correct())
	}
	if c.Accuracy() != 0.75 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	if got := c.Recall(0); got != 2.0/3 {
		t.Fatalf("recall %v", got)
	}
	if got := c.Precision(1); got != 0.5 {
		t.Fatalf("precision %v", got)
	}
	if !strings.Contains(c.String(), "accuracy") {
		t.Fatal("String misses accuracy")
	}
}

func TestConfusionEmpty(t *testing.T) {
	c := NewConfusion(3)
	if c.Accuracy() != 0 || c.Recall(0) != 0 || c.Precision(0) != 0 {
		t.Fatal("empty matrix metrics should be zero")
	}
}

func TestEvaluateAgainstTree(t *testing.T) {
	s := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	leaf0 := &tree.Node{ClassCounts: []int64{5, 0}, N: 5, Class: 0}
	leaf1 := &tree.Node{ClassCounts: []int64{0, 5}, N: 5, Class: 1}
	root := &tree.Node{
		Splitter:    &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: 0},
		Left:        leaf0,
		Right:       leaf1,
		ClassCounts: []int64{5, 5},
		N:           10,
	}
	tr := &tree.Tree{Schema: s, Root: root}
	d := record.NewDataset(s)
	d.Append(
		record.Record{Num: []float64{-1}, Class: 0}, // correct
		record.Record{Num: []float64{1}, Class: 1},  // correct
		record.Record{Num: []float64{-1}, Class: 1}, // wrong
	)
	c := Evaluate(tr, d)
	if c.Correct() != 2 || c.Total() != 3 {
		t.Fatalf("evaluate: %+v", c.M)
	}
	if Accuracy(tr, d) != 2.0/3 {
		t.Fatal("Accuracy wrapper wrong")
	}
	sum := Summarize(tr)
	if sum.Nodes != 3 || sum.Leaves != 2 || sum.Depth != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if !strings.Contains(sum.String(), "3 nodes") {
		t.Fatal("summary string")
	}
}

// servedShape builds a deep tree like the one the prediction server is
// benchmarked with (depth 16 over noisy records) for a schema of the given
// class count, and returns it with n further rows of that schema to score.
// With more than two classes the generator's labels are spread by the
// first numeric attribute.
func servedShape(tb testing.TB, classes, n int) (*tree.Tree, *record.Dataset) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 3, Noise: 0.05})
	if err != nil {
		tb.Fatal(err)
	}
	train, test := g.Generate(40_000), g.Generate(n)
	if classes != train.Schema.NumClasses {
		s, err := record.NewSchema(train.Schema.Attrs, classes)
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range []*record.Dataset{train, test} {
			d.Schema = s
			for i := range d.Records {
				r := &d.Records[i]
				r.Class = (r.Class + int32(r.Num[0]/10_000)) % int32(classes)
			}
		}
	}
	cfg := clouds.Config{
		Method: clouds.SSE, Split: clouds.SplitSSE,
		QRoot: 400, QMin: 20, SmallNodeQ: 10, SampleSize: 4000,
		MaxDepth: 16, MinNodeSize: 2, Seed: 1,
	}
	tr, _, err := clouds.BuildInCore(cfg, train, cfg.SampleFor(train))
	if err != nil {
		tb.Fatal(err)
	}
	return tr, test
}

// TestEvaluateMatchesClassify: the confusion matrix Evaluate sums from its
// shares equals the tally of the reference walk row by row, at sizes around
// the share floor and at several worker counts.
func TestEvaluateMatchesClassify(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, classes := range []int{2, 3} {
		tr, all := servedShape(t, classes, 3*evalShare+7)
		for _, n := range []int{0, 1, evalShare - 1, evalShare, 3*evalShare + 7} {
			data := &record.Dataset{Schema: all.Schema, Records: all.Records[:n]}
			want := NewConfusion(classes)
			for _, r := range data.Records {
				want.Add(r.Class, tr.Classify(r))
			}
			for _, p := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(p)
				if got := Evaluate(tr, data); !reflect.DeepEqual(got.M, want.M) {
					t.Fatalf("%d classes, %d rows, GOMAXPROCS %d: Evaluate %v, Classify tallies %v", classes, n, p, got.M, want.M)
				}
			}
		}
	}
}

var sinkConfusion *Confusion

// BenchmarkEvaluate scores 100,000 rows with the served model's shape.
func BenchmarkEvaluate(b *testing.B) {
	tr, data := servedShape(b, 2, 100_000)
	b.ResetTimer()
	for range b.N {
		sinkConfusion = Evaluate(tr, data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*data.Len()), "ns/row")
}
