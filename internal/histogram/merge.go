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
	return newIntervals(AppendMerged(make([]float64, 0, len(a.Cuts)+len(b.Cuts)), a.Cuts, b.Cuts))
}

// AppendMerged appends to dst the sorted, deduplicated union of the cut
// sets a and b, each strictly increasing, and returns the extended slice:
// the cuts Merge builds.
func AppendMerged(dst, a, b []float64) []float64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			dst = append(dst, av)
			i++
		case bv < av:
			dst = append(dst, bv)
			j++
		default: // equal: keep one
			dst = append(dst, av)
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// MergeCount is the scalar histogram-count combine, shaped for
// comm.AllReduceInt64's element-wise op: plain addition, the reason
// histogram shards merge order-independently.
func MergeCount(a, b int64) int64 { return a + b }
