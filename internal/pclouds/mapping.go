package pclouds

import "pclouds/internal/clouds"

// This file holds the owner mappings of the replication method (Section
// 5.1.1): which rank combines and evaluates which statistics of a node.
// Every (attribute, interval) pair has one owner, monotone in rank along
// each attribute's interval order, so a rank's share of an attribute is one
// contiguous run.
//
//   - Attribute-based: all intervals of numeric attribute j belong to rank
//     j mod p (the paper's chosen implementation).
//   - Interval-based: each attribute's interval range is divided across
//     ALL processors, so every rank works on every attribute. Best load
//     balance per attribute.
//   - Hybrid: the concatenated (attribute, interval) stream is divided
//     into p contiguous runs. With many attributes a rank tends to own
//     whole attributes (degenerating to attribute-based); with few
//     attributes the attributes split across ranks (interval-based
//     behaviour) — the combination the paper credits with better load
//     balance.
//
// Categorical attributes always have per-attribute owners.

// The three numeric mappings return, for numeric attribute j with counts[j]
// intervals, the owner rank of every interval; owners[j][i] is
// non-decreasing in i.

// attributeMapping builds the attribute-based mapping.
func attributeMapping(counts []int, p int) [][]int {
	m := make([][]int, len(counts))
	for j, nI := range counts {
		owners := make([]int, nI)
		for i := range owners {
			owners[i] = j % p
		}
		m[j] = owners
	}
	return m
}

// intervalMapping builds the interval-based mapping: attribute j's
// intervals are split into p near-equal contiguous runs.
func intervalMapping(counts []int, p int) [][]int {
	m := make([][]int, len(counts))
	for j, nI := range counts {
		owners := make([]int, nI)
		for i := 0; i < nI; i++ {
			owners[i] = min(i*p/max(nI, 1), p-1)
		}
		m[j] = owners
	}
	return m
}

// hybridMapping builds the hybrid mapping: the concatenation of all
// attributes' intervals is split into p near-equal contiguous runs.
func hybridMapping(counts []int, p int) [][]int {
	total := 0
	for _, c := range counts {
		total += c
	}
	m := make([][]int, len(counts))
	pos := 0
	for j, nI := range counts {
		owners := make([]int, nI)
		for i := 0; i < nI; i++ {
			owners[i] = min(pos*p/max(total, 1), p-1)
			pos++
		}
		m[j] = owners
	}
	return m
}

// ownerMapping is one node's complete ownership: numeric[j][i] owns
// interval i of numeric attribute j, cat[j] owns categorical attribute j.
type ownerMapping struct {
	numeric [][]int
	cat     []int
}

func newOwnerMapping(method BoundaryMethod, counts []int, numCat, p int) ownerMapping {
	m := ownerMapping{cat: make([]int, numCat)}
	switch method {
	case IntervalBased:
		m.numeric = intervalMapping(counts, p)
	case Hybrid:
		m.numeric = hybridMapping(counts, p)
	default:
		m.numeric = attributeMapping(counts, p)
	}
	for j := range m.cat {
		m.cat[j] = j % p
		if method == AttributeBased {
			// Attributes are dealt round-robin, categorical after numeric.
			m.cat[j] = (len(counts) + j) % p
		}
	}
	return m
}

// run returns the contiguous run of numeric attribute j's intervals that
// rank d owns.
func (m ownerMapping) run(j, d int) (first, count int) {
	first = -1
	for i, o := range m.numeric[j] {
		if o == d {
			if first < 0 {
				first = i
			}
			count++
		}
	}
	return first, count
}

// intervalCounts returns each numeric attribute's interval count.
func intervalCounts(local *clouds.NodeStats) []int {
	out := make([]int, len(local.Numeric))
	for j, nst := range local.Numeric {
		out[j] = nst.Intervals.NumIntervals()
	}
	return out
}
