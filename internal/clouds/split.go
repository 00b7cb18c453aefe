package clouds

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pclouds/internal/gini"
	"pclouds/internal/tree"
)

// Candidate is a candidate splitter with its weighted gini. Candidates are
// compared with a total order (Better) so that sequential and parallel
// builds select identical splitters: smaller gini wins, ties break toward
// the smaller attribute position, then the smaller numeric threshold.
type Candidate struct {
	Valid     bool
	Gini      float64
	Attr      int
	Kind      tree.SplitKind
	Threshold float64
	InLeft    []bool
	// LeftN and LeftCounts record how many records (and of which classes)
	// the split sends left, measured on the statistics that produced the
	// candidate (global counts in the parallel pipeline). They let the
	// partition pass know the children's sizes and class counts up front,
	// enabling the paper's fused partitioning — child statistics are
	// accumulated during the partition pass, avoiding a separate pass.
	LeftN      int64
	LeftCounts []int64
}

// Better reports whether c should be preferred over o under the repo-wide
// deterministic total order.
func (c Candidate) Better(o Candidate) bool {
	if !c.Valid {
		return false
	}
	if !o.Valid {
		return true
	}
	if c.Gini != o.Gini {
		return c.Gini < o.Gini
	}
	if c.Attr != o.Attr {
		return c.Attr < o.Attr
	}
	if c.Kind == tree.NumericSplit && o.Kind == tree.NumericSplit {
		return c.Threshold < o.Threshold
	}
	return false
}

// Splitter converts the candidate into a tree splitter.
func (c Candidate) Splitter() *tree.Splitter {
	if !c.Valid {
		return nil
	}
	return &tree.Splitter{
		Kind:      c.Kind,
		Attr:      c.Attr,
		Threshold: c.Threshold,
		InLeft:    append([]bool(nil), c.InLeft...),
		Gini:      c.Gini,
	}
}

// EncodedLen returns the length of the candidate's Encode form.
func (c Candidate) EncodedLen() int { return 38 + len(c.InLeft) + 8*len(c.LeftCounts) }

// Encode packs a candidate for transport (reduction payloads).
func (c Candidate) Encode() []byte { return c.AppendEncode(make([]byte, 0, c.EncodedLen())) }

// AppendEncode appends the candidate's Encode form to dst.
func (c Candidate) AppendEncode(dst []byte) []byte {
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	dst = append(dst, flag(c.Valid), flag(c.Kind != tree.NumericSplit))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Attr))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Gini))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Threshold))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.InLeft)))
	for _, in := range c.InLeft {
		dst = append(dst, flag(in))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.LeftN))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.LeftCounts)))
	for _, v := range c.LeftCounts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// DecodeCandidate reverses Candidate.Encode.
func DecodeCandidate(src []byte) (Candidate, error) {
	if len(src) < 26 {
		return Candidate{}, fmt.Errorf("clouds: candidate payload too short (%d bytes)", len(src))
	}
	if src[0] > 1 || src[1] > 1 {
		return Candidate{}, fmt.Errorf("clouds: candidate flag bytes %d,%d not 0 or 1", src[0], src[1])
	}
	c := Candidate{Valid: src[0] == 1}
	if src[1] == 0 {
		c.Kind = tree.NumericSplit
	} else {
		c.Kind = tree.CategoricalSplit
	}
	c.Attr = int(binary.LittleEndian.Uint32(src[2:]))
	c.Gini = math.Float64frombits(binary.LittleEndian.Uint64(src[6:]))
	c.Threshold = math.Float64frombits(binary.LittleEndian.Uint64(src[14:]))
	n := int(binary.LittleEndian.Uint32(src[22:]))
	off := 26
	if len(src) < off+n+12 {
		return Candidate{}, fmt.Errorf("clouds: candidate payload length %d too short", len(src))
	}
	if n > 0 {
		c.InLeft = make([]bool, n)
		for i := range c.InLeft {
			if src[off+i] > 1 {
				return Candidate{}, fmt.Errorf("clouds: candidate subset byte %d not 0 or 1", src[off+i])
			}
			c.InLeft[i] = src[off+i] == 1
		}
	}
	off += n
	c.LeftN = int64(binary.LittleEndian.Uint64(src[off:]))
	off += 8
	lc := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if len(src) != off+8*lc {
		return Candidate{}, fmt.Errorf("clouds: candidate payload length %d, want %d", len(src), off+8*lc)
	}
	if lc > 0 {
		c.LeftCounts = make([]int64, lc)
		for i := range c.LeftCounts {
			c.LeftCounts[i] = int64(binary.LittleEndian.Uint64(src[off+8*i:]))
		}
	}
	return c, nil
}

// BestBoundaryInRun evaluates the boundaries that close a contiguous run of
// one numeric attribute's intervals: rows[k] is the class-frequency vector
// of interval first+k, before the class counts of every interval below the
// run. Boundary i is the splitter "attr <= cuts[i]" (records at a cut
// belong to the interval left of it); the last interval has no boundary.
// The sequential builders pass an attribute's whole range (first 0, before
// zero); pCLOUDS passes the run a rank owns under its replication scheme.
func BestBoundaryInRun(attr int, cuts []float64, first int, rows [][]int64, before, total []int64, nTotal int64) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	left := gini.Clone(before)
	right := make([]int64, len(total))
	bestLeft := make([]int64, len(total))
	nLeft := gini.Sum(left)
	for k, row := range rows {
		gini.Add(left, row)
		nLeft += gini.Sum(row)
		if first+k >= len(cuts) || nLeft == 0 || nLeft == nTotal {
			continue
		}
		for i := range right {
			right[i] = total[i] - left[i]
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      attr,
			Kind:      tree.NumericSplit,
			Threshold: cuts[first+k],
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			copy(bestLeft, left)
			best = cand
		}
	}
	if best.Valid {
		best.LeftCounts = bestLeft
	}
	return best
}

// BestCategorical evaluates one categorical attribute's subset split from
// its (global) count matrix.
func BestCategorical(cm *gini.CountMatrix, attr int, total []int64, nTotal int64) Candidate {
	ss := cm.BestSubsetSplit()
	var nLeft int64
	for v, in := range ss.InLeft {
		if in {
			nLeft += gini.Sum(cm.Counts[v])
		}
	}
	if nLeft == 0 || nLeft == nTotal {
		return Candidate{Valid: false, Gini: math.Inf(1)}
	}
	cand := Candidate{
		Valid:  true,
		Gini:   ss.Gini,
		Attr:   attr,
		Kind:   tree.CategoricalSplit,
		InLeft: ss.InLeft,
		LeftN:  nLeft,
	}
	left := make([]int64, len(total))
	for v, in := range ss.InLeft {
		if in {
			gini.Add(left, cm.Counts[v])
		}
	}
	cand.LeftCounts = left
	return cand
}

// BestBoundarySplit evaluates every candidate the single statistics pass
// yields: the gini at every numeric interval boundary and the best
// categorical subset split per categorical attribute. It returns the best
// candidate under the deterministic order (gini_min of the SS method).
// Because Better is a total order with a unique maximum, folding the
// per-attribute bests selects exactly the candidate the flat scan would.
func BestBoundarySplit(ns *NodeStats) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	nTotal := gini.Sum(ns.Class)
	zero := make([]int64, len(ns.Class))
	for _, nst := range ns.Numeric {
		if cand := BestBoundaryInRun(nst.Attr, nst.Intervals.Cuts, 0, nst.Freq, zero, ns.Class, nTotal); cand.Better(best) {
			best = cand
		}
	}
	for j, cm := range ns.Cat {
		if cand := BestCategorical(cm, ns.Schema.CategoricalIndices()[j], ns.Class, nTotal); cand.Better(best) {
			best = cand
		}
	}
	return best
}

// AttributeBest evaluates every attribute independently and returns each
// attribute's best boundary candidate, indexed by schema attribute
// position. Attributes with no valid split (constant value, empty side)
// hold an invalid candidate. The vote protocol nominates from this vector;
// folding it with BestOfAttrs over all attributes equals BestBoundarySplit.
func AttributeBest(ns *NodeStats) []Candidate {
	out := make([]Candidate, len(ns.Schema.Attrs))
	for i := range out {
		out[i] = Candidate{Valid: false, Gini: math.Inf(1)}
	}
	nTotal := gini.Sum(ns.Class)
	zero := make([]int64, len(ns.Class))
	for _, nst := range ns.Numeric {
		out[nst.Attr] = BestBoundaryInRun(nst.Attr, nst.Intervals.Cuts, 0, nst.Freq, zero, ns.Class, nTotal)
	}
	for j, cm := range ns.Cat {
		attr := ns.Schema.CategoricalIndices()[j]
		out[attr] = BestCategorical(cm, attr, ns.Class, nTotal)
	}
	return out
}

// TopKAttrs returns the attribute ids of the (at most) k best valid
// candidates in cands (a vector indexed by attribute id, as AttributeBest
// returns), ordered best-first under the deterministic total order. These
// are one rank's nominations in the vote protocol.
func TopKAttrs(cands []Candidate, k int) []int {
	attrs := make([]int, 0, len(cands))
	for a, c := range cands {
		if c.Valid {
			attrs = append(attrs, a)
		}
	}
	sort.Slice(attrs, func(i, j int) bool { return cands[attrs[i]].Better(cands[attrs[j]]) })
	if len(attrs) > k {
		attrs = attrs[:k]
	}
	return attrs
}

// BestOfAttrs folds the candidates of the given attribute ids under the
// deterministic order.
func BestOfAttrs(cands []Candidate, attrs []int) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	for _, a := range attrs {
		if cands[a].Better(best) {
			best = cands[a]
		}
	}
	return best
}

// AliveInterval describes one SSE alive interval: which numeric attribute
// (by numeric index) and interval it is, its point count (the sorting-cost
// proxy of pCLOUDS's single assignment), and the class counts of everything
// below it, which the exact search starts from.
type AliveInterval struct {
	AttrJ      int
	Interval   int
	Count      int64
	LeftBefore []int64
}

// AliveSet is the outcome of the SSE method's pruning step at one node.
type AliveSet struct {
	// List holds the alive intervals in canonical (attribute, interval)
	// order.
	List []AliveInterval
	// Points counts the records falling in alive intervals (for the
	// survival ratio diagnostic).
	Points int64
}

// NumAlive returns the number of alive intervals across attributes.
func (a *AliveSet) NumAlive() int { return len(a.List) }

// AppendAliveInRun appends to dst the alive intervals of a contiguous run of
// one numeric attribute's intervals (arguments as BestBoundaryInRun):
// interval i is alive iff it holds at least one point and its gini lower
// bound (gini.LowerBound on the interval's boundary statistics) is strictly
// below giniMin. Boundary-only intervals cannot improve on the
// already-evaluated boundary gini, so single-point intervals whose value
// equals the upper cut are still searched (cheap) for simplicity.
func AppendAliveInRun(dst []AliveInterval, attrJ, first int, rows [][]int64, before, total []int64, giniMin float64) []AliveInterval {
	left := gini.Clone(before)
	for k, row := range rows {
		if cnt := gini.Sum(row); cnt > 0 && gini.LowerBound(left, row, total) < giniMin {
			dst = append(dst, AliveInterval{AttrJ: attrJ, Interval: first + k, Count: cnt, LeftBefore: gini.Clone(left)})
		}
		gini.Add(left, row)
	}
	return dst
}

// DetermineAlive computes the SSE method's alive intervals of a node: the
// intervals that must be searched exactly because their lower bound beats
// gini_min.
func DetermineAlive(ns *NodeStats, giniMin float64) *AliveSet {
	as := &AliveSet{}
	zero := make([]int64, len(ns.Class))
	for j, nst := range ns.Numeric {
		as.List = AppendAliveInRun(as.List, j, 0, nst.Freq, zero, ns.Class, giniMin)
	}
	for _, ai := range as.List {
		as.Points += ai.Count
	}
	return as
}

// EvaluateInterval performs the exact search inside one alive interval:
// given the class counts of everything below the interval (leftBefore), the
// node totals, and the interval's points, it evaluates the gini at every
// distinct point value and returns the best candidate for splitting at
// "attr <= v". pts are sorted by value first (SortPoints), and a zero
// threshold is stored as +0; the result is independent of input order.
func EvaluateInterval(attr int, leftBefore, total []int64, pts []Point) Candidate {
	SortPoints(pts)
	return EvaluateSorted(attr, leftBefore, total, pts)
}

// EvaluateSorted is the exact search over points already in value order,
// NaN last: the gini at the last point of every distinct value. It serves
// EvaluateInterval, the parallel build's merged alive runs and, over a
// whole presorted column, the direct method.
// A zero threshold is stored as +0: -0 and +0 tie, so the last point of a
// tie is either one depending on input order, and the threshold's bytes
// must not depend on it (both route every record the same way).
func EvaluateSorted(attr int, leftBefore, total []int64, pts []Point) Candidate {
	best := Candidate{Valid: false, Gini: math.Inf(1)}
	if len(pts) == 0 {
		return best
	}
	nTotal := gini.Sum(total)
	c := len(total)
	buf := make([]int64, 3*c)
	left, right, bestLeft := buf[:c:c], buf[c:2*c:2*c], buf[2*c:]
	copy(left, leftBefore)
	var nLeft int64 = gini.Sum(leftBefore)
	for i := 0; i < len(pts); i++ {
		if pts[i].V != pts[i].V {
			// NaN sorts last and satisfies no "attr <= v" test: neither it
			// nor anything after it can move left.
			break
		}
		left[pts[i].Class]++
		nLeft++
		// Only evaluate at the last occurrence of each distinct value.
		if i+1 < len(pts) && pts[i+1].V == pts[i].V {
			continue
		}
		if nLeft == 0 || nLeft == nTotal {
			continue
		}
		for k := range right {
			right[k] = total[k] - left[k]
		}
		threshold := pts[i].V
		if threshold == 0 {
			threshold = 0 // -0 becomes +0
		}
		cand := Candidate{
			Valid:     true,
			Gini:      gini.SplitIndex(left, right),
			Attr:      attr,
			Kind:      tree.NumericSplit,
			Threshold: threshold,
			LeftN:     nLeft,
		}
		if cand.Better(best) {
			copy(bestLeft, left)
			best = cand
		}
	}
	if best.Valid {
		best.LeftCounts = bestLeft
	}
	return best
}
