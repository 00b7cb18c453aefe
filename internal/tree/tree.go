// Package tree defines the binary decision tree produced by CLOUDS and
// pCLOUDS: splitter tests on numeric or categorical attributes, leaf class
// statistics, classification, traversal, and a compact binary encoding used
// to ship subtrees between processors.
package tree

import (
	"fmt"
	"io"
	"strings"

	"pclouds/internal/record"
)

// SplitKind distinguishes numeric threshold tests from categorical subset
// tests.
type SplitKind int

const (
	// NumericSplit sends a record left iff value <= Threshold.
	NumericSplit SplitKind = iota
	// CategoricalSplit sends a record left iff InLeft[value].
	CategoricalSplit
)

// Splitter is the test stored at an internal node.
type Splitter struct {
	Kind SplitKind
	// Attr is the attribute position in the schema.
	Attr int
	// Threshold applies to numeric splits: left iff value <= Threshold.
	Threshold float64
	// InLeft applies to categorical splits: left iff InLeft[value].
	InLeft []bool
	// Gini is the weighted gini achieved by this split (diagnostic).
	Gini float64
}

// GoesLeft evaluates the test on record r under schema s.
//
// Records that do not match the schema — a missing attribute slot or a
// categorical value outside the trained cardinality (an "unseen category"
// arriving at serving time) — are routed deterministically to the right
// (the no-branch) instead of panicking. Training-time records are always
// validated and in range, so this guard never changes a build.
func (sp *Splitter) GoesLeft(s *record.Schema, r record.Record) bool {
	if sp.Kind == NumericSplit {
		j := s.NumericPos(sp.Attr)
		if j < 0 || j >= len(r.Num) {
			return false
		}
		return r.Num[j] <= sp.Threshold
	}
	j := s.CategoricalPos(sp.Attr)
	if j < 0 || j >= len(r.Cat) {
		return false
	}
	v := r.Cat[j]
	if v < 0 || int(v) >= len(sp.InLeft) {
		return false
	}
	return sp.InLeft[v]
}

// String renders the test.
func (sp *Splitter) String() string {
	if sp.Kind == NumericSplit {
		return fmt.Sprintf("attr[%d] <= %g", sp.Attr, sp.Threshold)
	}
	vals := make([]string, 0, len(sp.InLeft))
	for v, in := range sp.InLeft {
		if in {
			vals = append(vals, fmt.Sprintf("%d", v))
		}
	}
	return fmt.Sprintf("attr[%d] in {%s}", sp.Attr, strings.Join(vals, ","))
}

// Node is one tree node. A node with Splitter == nil is a leaf.
type Node struct {
	Splitter    *Splitter
	Left, Right *Node
	// ClassCounts is the class-frequency vector of the training records that
	// reached this node.
	ClassCounts []int64
	// N is the number of training records at the node.
	N int64
	// Class is the majority class at the node (leaf prediction).
	Class int32
}

// IsLeaf reports whether the node has no splitter.
func (n *Node) IsLeaf() bool { return n.Splitter == nil }

// Majority recomputes Class from ClassCounts (lowest index wins ties).
func (n *Node) Majority() int32 {
	best, bestC := int64(-1), int32(0)
	for c, v := range n.ClassCounts {
		if v > best {
			best, bestC = v, int32(c)
		}
	}
	return bestC
}

// Tree is a complete classifier.
type Tree struct {
	Schema *record.Schema
	Root   *Node
}

// Classify routes record r to a leaf and returns its majority class. It is
// the reference walk over the pointer nodes: the oracle Compile is tested
// against. Code that scores many rows compiles the tree instead.
func (t *Tree) Classify(r record.Record) int32 {
	n := t.Root
	for !n.IsLeaf() {
		if n.Splitter.GoesLeft(t.Schema, r) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// Leaf returns the leaf node record r is routed to, by the reference walk
// (see Classify).
func (t *Tree) Leaf(r record.Record) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if n.Splitter.GoesLeft(t.Schema, r) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Walk visits every node in pre-order.
func (t *Tree) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		if n == nil {
			return
		}
		fn(n, d)
		rec(n.Left, d+1)
		rec(n.Right, d+1)
	}
	rec(t.Root, 0)
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int {
	n := 0
	t.Walk(func(*Node, int) { n++ })
	return n
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int {
	n := 0
	t.Walk(func(nd *Node, _ int) {
		if nd.IsLeaf() {
			n++
		}
	})
	return n
}

// Depth returns the maximum depth (root = 0). An empty tree has depth -1.
func (t *Tree) Depth() int {
	max := -1
	t.Walk(func(_ *Node, d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// Dump writes an indented rendering of the tree to w.
func (t *Tree) Dump(w io.Writer) {
	t.Walk(func(n *Node, d int) {
		indent := strings.Repeat("  ", d)
		if n.IsLeaf() {
			fmt.Fprintf(w, "%sleaf class=%d n=%d counts=%v\n", indent, n.Class, n.N, n.ClassCounts)
		} else {
			fmt.Fprintf(w, "%s%s (n=%d gini=%.4f)\n", indent, n.Splitter, n.N, n.Splitter.Gini)
		}
	})
}

// String renders the tree via Dump.
func (t *Tree) String() string {
	var b strings.Builder
	t.Dump(&b)
	return b.String()
}

// Equal reports whether two trees have identical structure, splitters
// (exact threshold/subset equality), and leaf classes. Used by the
// determinism tests comparing pCLOUDS against sequential CLOUDS.
func Equal(a, b *Tree) bool {
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		if x == nil {
			return true
		}
		if x.IsLeaf() != y.IsLeaf() {
			return false
		}
		if x.N != y.N {
			return false
		}
		if x.IsLeaf() {
			return x.Class == y.Class
		}
		sx, sy := x.Splitter, y.Splitter
		if sx.Kind != sy.Kind || sx.Attr != sy.Attr {
			return false
		}
		if sx.Kind == NumericSplit {
			if sx.Threshold != sy.Threshold {
				return false
			}
		} else {
			if len(sx.InLeft) != len(sy.InLeft) {
				return false
			}
			for i := range sx.InLeft {
				if sx.InLeft[i] != sy.InLeft[i] {
					return false
				}
			}
		}
		return eq(x.Left, y.Left) && eq(x.Right, y.Right)
	}
	return eq(a.Root, b.Root)
}
