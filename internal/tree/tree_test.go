package tree

import (
	"math/rand"
	"strings"
	"testing"

	"pclouds/internal/record"
)

func testSchema(t *testing.T) *record.Schema {
	t.Helper()
	return record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "color", Kind: record.Categorical, Cardinality: 3},
		{Name: "y", Kind: record.Numeric},
	}, 2)
}

// buildTestTree: root splits on x<=10; left splits on color in {0,2}.
func buildTestTree(t *testing.T) *Tree {
	t.Helper()
	s := testSchema(t)
	leaf := func(class int32, n int64) *Node {
		counts := make([]int64, 2)
		counts[class] = n
		return &Node{ClassCounts: counts, N: n, Class: class}
	}
	inner := &Node{
		Splitter:    &Splitter{Kind: CategoricalSplit, Attr: 1, InLeft: []bool{true, false, true}, Gini: 0.2},
		Left:        leaf(0, 5),
		Right:       leaf(1, 5),
		ClassCounts: []int64{5, 5},
		N:           10,
	}
	inner.Class = inner.Majority()
	root := &Node{
		Splitter:    &Splitter{Kind: NumericSplit, Attr: 0, Threshold: 10, Gini: 0.3},
		Left:        inner,
		Right:       leaf(1, 7),
		ClassCounts: []int64{5, 12},
		N:           17,
	}
	root.Class = root.Majority()
	return &Tree{Schema: s, Root: root}
}

func rec(x float64, color int32, y float64, class int32) record.Record {
	return record.Record{Num: []float64{x, y}, Cat: []int32{color}, Class: class}
}

func TestClassifyRouting(t *testing.T) {
	tr := buildTestTree(t)
	cases := []struct {
		r    record.Record
		want int32
	}{
		{rec(5, 0, 0, 0), 0},  // left, color in subset -> class 0
		{rec(10, 2, 0, 0), 0}, // boundary goes left; color 2 in subset
		{rec(5, 1, 0, 0), 1},  // left, color not in subset -> class 1
		{rec(11, 0, 0, 0), 1}, // right leaf
	}
	for i, tc := range cases {
		if got := tr.Classify(tc.r); got != tc.want {
			t.Errorf("case %d: got class %d, want %d", i, got, tc.want)
		}
	}
}

func TestGoesLeftUnseenCategoryRoutesRight(t *testing.T) {
	tr := buildTestTree(t)
	// color has cardinality 3; values 3, 99 and -1 were never seen in
	// training. They must route to the right child (the no-branch) instead
	// of panicking, so a serving-time request with an unseen category gets
	// a deterministic prediction.
	for _, color := range []int32{3, 99, -1} {
		r := rec(5, color, 0, 0)
		if got := tr.Classify(r); got != 1 {
			t.Fatalf("color=%d: got class %d, want right-branch class 1", color, got)
		}
		sp := tr.Root.Left.Splitter
		if sp.GoesLeft(tr.Schema, r) {
			t.Fatalf("color=%d: GoesLeft returned true for out-of-range category", color)
		}
	}
	// A record with missing attribute slots must also route right, not panic.
	empty := record.Record{}
	if tr.Root.Splitter.GoesLeft(tr.Schema, empty) {
		t.Fatal("numeric GoesLeft on empty record returned true")
	}
	if tr.Root.Left.Splitter.GoesLeft(tr.Schema, empty) {
		t.Fatal("categorical GoesLeft on empty record returned true")
	}
}

func TestLeafReturnsSameAsClassify(t *testing.T) {
	tr := buildTestTree(t)
	r := rec(3, 1, 9, 0)
	if tr.Leaf(r).Class != tr.Classify(r) {
		t.Fatal("Leaf and Classify disagree")
	}
}

func TestCountsAndDepth(t *testing.T) {
	tr := buildTestTree(t)
	if tr.NumNodes() != 5 {
		t.Fatalf("nodes %d", tr.NumNodes())
	}
	if tr.NumLeaves() != 3 {
		t.Fatalf("leaves %d", tr.NumLeaves())
	}
	if tr.Depth() != 2 {
		t.Fatalf("depth %d", tr.Depth())
	}
}

func TestMajorityTieBreaksLow(t *testing.T) {
	n := &Node{ClassCounts: []int64{5, 5}}
	if n.Majority() != 0 {
		t.Fatal("tie should pick class 0")
	}
	n = &Node{ClassCounts: []int64{1, 7, 7}}
	if n.Majority() != 1 {
		t.Fatal("tie should pick the lower class")
	}
}

func TestDumpMentionsSplitters(t *testing.T) {
	tr := buildTestTree(t)
	s := tr.String()
	if !strings.Contains(s, "attr[0] <= 10") {
		t.Fatalf("dump missing numeric splitter:\n%s", s)
	}
	if !strings.Contains(s, "attr[1] in {0,2}") {
		t.Fatalf("dump missing categorical splitter:\n%s", s)
	}
	if !strings.Contains(s, "leaf") {
		t.Fatalf("dump missing leaves:\n%s", s)
	}
}

func TestEqual(t *testing.T) {
	a := buildTestTree(t)
	b := buildTestTree(t)
	if !Equal(a, b) {
		t.Fatal("identical trees not equal")
	}
	b.Root.Splitter.Threshold = 11
	if Equal(a, b) {
		t.Fatal("different thresholds compared equal")
	}
	c := buildTestTree(t)
	c.Root.Left.Splitter.InLeft[1] = true
	if Equal(a, c) {
		t.Fatal("different subsets compared equal")
	}
	d := buildTestTree(t)
	d.Root.Right = nil
	if Equal(a, d) {
		t.Fatal("different shapes compared equal")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := buildTestTree(t)
	blob := Encode(tr)
	got, err := Decode(tr.Schema, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tr, got) {
		t.Fatal("roundtrip tree differs")
	}
	// Class counts and N must survive too.
	if got.Root.N != 17 || got.Root.ClassCounts[1] != 12 {
		t.Fatalf("root stats lost: %+v", got.Root)
	}
}

func TestDecodeErrors(t *testing.T) {
	tr := buildTestTree(t)
	blob := Encode(tr)
	if _, err := Decode(tr.Schema, blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if _, err := Decode(tr.Schema, append(blob, 0)); err == nil {
		t.Fatal("trailing bytes should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := Decode(tr.Schema, bad); err == nil {
		t.Fatal("bad tag should fail")
	}
	if _, err := Decode(tr.Schema, nil); err == nil {
		t.Fatal("empty blob should fail")
	}
}

func TestEncodeDecodeRandomTrees(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(13))
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		if depth == 0 || rng.Intn(3) == 0 {
			n := &Node{ClassCounts: []int64{int64(rng.Intn(100)), int64(rng.Intn(100))}}
			n.N = n.ClassCounts[0] + n.ClassCounts[1]
			n.Class = n.Majority()
			return n
		}
		var sp *Splitter
		if rng.Intn(2) == 0 {
			sp = &Splitter{Kind: NumericSplit, Attr: []int{0, 2}[rng.Intn(2)], Threshold: rng.NormFloat64() * 100, Gini: rng.Float64()}
		} else {
			sp = &Splitter{Kind: CategoricalSplit, Attr: 1, InLeft: []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, true}, Gini: rng.Float64()}
		}
		n := &Node{Splitter: sp, Left: gen(depth - 1), Right: gen(depth - 1), ClassCounts: []int64{1, 1}, N: 2}
		n.Class = n.Majority()
		return n
	}
	for i := 0; i < 50; i++ {
		tr := &Tree{Schema: s, Root: gen(5)}
		got, err := Decode(s, Encode(tr))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(tr, got) {
			t.Fatal("random tree roundtrip mismatch")
		}
	}
}

func TestWalkOrder(t *testing.T) {
	tr := buildTestTree(t)
	var depths []int
	tr.Walk(func(n *Node, d int) { depths = append(depths, d) })
	want := []int{0, 1, 2, 2, 1} // pre-order
	if len(depths) != len(want) {
		t.Fatalf("visited %d nodes", len(depths))
	}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("pre-order depths %v, want %v", depths, want)
		}
	}
}

func TestSubtreeCodec(t *testing.T) {
	schema := testSchema(t)
	tr := buildTestTree(t)
	leaf := &Tree{Schema: schema, Root: &Node{ClassCounts: []int64{3, 1}, N: 4}}
	results := [][]byte{nil, Encode(tr), nil, Encode(leaf)}
	block := EncodeSubtrees(results)
	got := make([]*Node, 4)
	attach := func(i int, root *Node) { got[i] = root }
	// One rank's block holds indices 1 and 3; another rank built 0 and 2.
	other := EncodeSubtrees([][]byte{Encode(leaf), nil, Encode(leaf)})
	if err := AttachSubtrees(schema, [][]byte{block, other}, 4, attach); err != nil {
		t.Fatal(err)
	}
	same := func(n *Node, want *Tree) bool { return Equal(&Tree{Schema: schema, Root: n}, want) }
	if !same(got[1], tr) || !same(got[3], leaf) || !same(got[0], leaf) {
		t.Fatal("subtrees mangled")
	}
	for name, blocks := range map[string][][]byte{
		"corrupt":  {{9}},
		"missing":  {block},
		"repeated": {block, block, other},
		"range":    {block, other, EncodeSubtrees([][]byte{4: Encode(leaf)})},
	} {
		if err := AttachSubtrees(schema, blocks, 4, attach); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
