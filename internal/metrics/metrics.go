// Package metrics evaluates classifiers: accuracy, per-class confusion
// matrices, and tree-size measures used when comparing the SS, SSE and
// direct methods' output quality.
package metrics

import (
	"fmt"
	"strings"

	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Confusion is a square confusion matrix: M[actual][predicted].
type Confusion struct {
	M [][]int64
}

// NewConfusion creates a classes×classes zero matrix.
func NewConfusion(classes int) *Confusion {
	c := &Confusion{M: make([][]int64, classes)}
	flat := make([]int64, classes*classes)
	for i := range c.M {
		c.M[i], flat = flat[:classes], flat[classes:]
	}
	return c
}

// Add records one (actual, predicted) observation.
func (c *Confusion) Add(actual, predicted int32) { c.M[actual][predicted]++ }

// Total returns the number of observations.
func (c *Confusion) Total() int64 {
	var n int64
	for _, row := range c.M {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Correct returns the trace (correctly classified observations).
func (c *Confusion) Correct() int64 {
	var n int64
	for i := range c.M {
		n += c.M[i][i]
	}
	return n
}

// Accuracy returns Correct/Total (0 for an empty matrix).
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Correct()) / float64(t)
}

// Recall returns the recall of one class (0 when the class is absent).
func (c *Confusion) Recall(class int) float64 {
	var row int64
	for _, v := range c.M[class] {
		row += v
	}
	if row == 0 {
		return 0
	}
	return float64(c.M[class][class]) / float64(row)
}

// Precision returns the precision of one class (0 when never predicted).
func (c *Confusion) Precision(class int) float64 {
	var col int64
	for i := range c.M {
		col += c.M[i][class]
	}
	if col == 0 {
		return 0
	}
	return float64(c.M[class][class]) / float64(col)
}

// String renders the matrix.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (rows=actual, cols=predicted):\n")
	for i, row := range c.M {
		fmt.Fprintf(&b, "  class %d: %v\n", i, row)
	}
	fmt.Fprintf(&b, "  accuracy: %.4f\n", c.Accuracy())
	return b.String()
}

// evalChunk is how many rows Evaluate classifies per ClassifyBatch call.
const evalChunk = 1024

// Evaluate classifies every record of data with t, compiled once, and
// returns the confusion matrix.
func Evaluate(t *tree.Tree, data *record.Dataset) *Confusion {
	c := NewConfusion(data.Schema.NumClasses)
	flat := tree.Compile(t)
	var out [evalChunk]int32
	for lo := 0; lo < len(data.Records); lo += evalChunk {
		recs := data.Records[lo:min(lo+evalChunk, len(data.Records))]
		flat.ClassifyBatch(recs, out[:])
		for i, r := range recs {
			c.Add(r.Class, out[i])
		}
	}
	return c
}

// Accuracy is a convenience wrapper: the fraction of data t classifies
// correctly.
func Accuracy(t *tree.Tree, data *record.Dataset) float64 {
	return Evaluate(t, data).Accuracy()
}

// TreeSummary captures compactness measures.
type TreeSummary struct {
	Nodes  int
	Leaves int
	Depth  int
}

// Summarize reports node, leaf and depth counts of a tree.
func Summarize(t *tree.Tree) TreeSummary {
	return TreeSummary{Nodes: t.NumNodes(), Leaves: t.NumLeaves(), Depth: t.Depth()}
}

func (s TreeSummary) String() string {
	return fmt.Sprintf("%d nodes, %d leaves, depth %d", s.Nodes, s.Leaves, s.Depth)
}
