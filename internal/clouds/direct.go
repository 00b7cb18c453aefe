package clouds

import (
	"math"

	"pclouds/internal/gini"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// DirectSplit finds the exact best split of an in-memory record set: it
// sorts the points along every numeric attribute and computes the gini
// index at every distinct value (the paper's direct method, used for small
// nodes), and evaluates the best categorical subset per categorical
// attribute. The returned candidate obeys the deterministic total order.
func DirectSplit(schema *record.Schema, recs []record.Record) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(recs) == 0 {
		return best
	}
	total := make([]int64, schema.NumClasses)
	for _, r := range recs {
		total[r.Class]++
	}
	nTotal := int64(len(recs))

	// Numeric attributes: full sort per attribute, exact scan.
	pts := make([]Point, len(recs))
	left := make([]int64, schema.NumClasses)
	right := make([]int64, schema.NumClasses)
	for j, attr := range schema.NumericIndices() {
		for i, r := range recs {
			pts[i] = Point{V: r.Num[j], Class: r.Class}
		}
		SortPoints(pts)
		for i := range left {
			left[i] = 0
		}
		var nLeft int64
		for i := 0; i < len(pts); i++ {
			if pts[i].V != pts[i].V {
				break // NaN sorts last and never goes left (see EvaluateInterval)
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
			cand := Candidate{
				Valid:     true,
				Gini:      gini.SplitIndex(left, right),
				Attr:      attr,
				Kind:      tree.NumericSplit,
				Threshold: pts[i].V,
			}
			if cand.Better(best) {
				best = cand
			}
		}
	}

	// Categorical attributes.
	for j, attr := range schema.CategoricalIndices() {
		cm := gini.NewCountMatrix(schema.Attrs[attr].Cardinality, schema.NumClasses)
		for _, r := range recs {
			cm.Add(r.Cat[j], r.Class)
		}
		ss := cm.BestSubsetSplit()
		var nLeft int64
		for v, in := range ss.InLeft {
			if in {
				nLeft += gini.Sum(cm.Counts[v])
			}
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		cand := Candidate{
			Valid:  true,
			Gini:   ss.Gini,
			Attr:   attr,
			Kind:   tree.CategoricalSplit,
			InLeft: ss.InLeft,
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}
