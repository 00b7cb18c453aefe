package histogram

// Merge unions the cut sets of two interval structures into one structure
// whose cuts are the sorted, deduplicated union — the coarsest structure
// refining both inputs. Merging is commutative and associative, and
// duplicate cuts collapse, so folding any permutation of any sharding of a
// cut collection yields the same structure. The streaming frontier uses it
// to combine a leaf's local quantile cuts with the global attribute grid so
// that sparsely-populated leaves still have candidate boundaries.
func Merge(a, b *Intervals) *Intervals {
	if a == nil {
		a = &Intervals{}
	}
	if b == nil {
		b = &Intervals{}
	}
	cuts := make([]float64, 0, len(a.Cuts)+len(b.Cuts))
	i, j := 0, 0
	for i < len(a.Cuts) && j < len(b.Cuts) {
		av, bv := a.Cuts[i], b.Cuts[j]
		switch {
		case av < bv:
			cuts = append(cuts, av)
			i++
		case bv < av:
			cuts = append(cuts, bv)
			j++
		default: // equal: keep one
			cuts = append(cuts, av)
			i, j = i+1, j+1
		}
	}
	cuts = append(cuts, a.Cuts[i:]...)
	cuts = append(cuts, b.Cuts[j:]...)
	if len(cuts) == 0 {
		return newIntervals(nil)
	}
	return newIntervals(cuts)
}

// MergeCount is the scalar histogram-count combine, shaped for
// comm.AllReduceInt64's element-wise op: plain addition, the reason
// histogram shards merge order-independently.
func MergeCount(a, b int64) int64 { return a + b }
