package tree

import "pclouds/internal/record"

// Compiled is the routing form of a tree: its nodes flattened into one
// contiguous preorder array, each with its feature slot already resolved
// from the schema, its threshold, both child indices, its categorical
// subset as a bitset and its leaf class inline. Node i of the array is the
// i-th node Tree.Walk visits. Every place that routes records to leaves
// (serving, evaluation, stream ingest and holdout scoring) goes through it;
// Tree.Classify and Tree.Leaf remain as the reference walk it is tested
// against.
//
// Routing equals Splitter.GoesLeft exactly: a row whose slot is missing (a
// split on an attribute of the other kind, or a short Num/Cat slice), a NaN,
// and a categorical value below 0 or at least len(InLeft) all go right.
//
// A Compiled is immutable, so any number of goroutines may share it. It is
// a snapshot: changes to the tree after Compile do not reach it.
type Compiled struct {
	nodes []flatNode
	// bits holds every categorical node's InLeft, 64 values per word, plus
	// one trailing zero bit per node that out-of-range values land on.
	// Word 0 is zero: numeric nodes point there.
	bits []uint64
	// hasNum and hasCat say whether any split reads Num or Cat; maxNum and
	// maxCat are the largest slot read. ClassifyBatch walks rows that hold
	// those slots without per-step length checks.
	hasNum, hasCat bool
	maxNum, maxCat int32
}

// flatNode is one node of a Compiled tree. A leaf's children are itself,
// and a split whose attribute has no slot of its kind has both children set
// to its right child: stepping either one is then a no-op or always right,
// whatever the row holds, so the batched walk needs no branch for them.
type flatNode struct {
	thr         float64 // numeric: left iff value <= thr
	slot        int32   // index into Record.Num, or Record.Cat when cat is 1
	left, right int32
	bitOff      int32 // first word of InLeft in bits
	card        int32 // categorical: len(InLeft)
	class       int32
	cat         uint32 // 1 for a categorical split, else 0
}

// Compile flattens t. It panics on a tree with a nil root or a missing
// child, as Tree.Classify would on reaching one.
func Compile(t *Tree) *Compiled {
	c := &Compiled{bits: make([]uint64, 1)}
	var add func(n *Node) int32
	add = func(n *Node) int32 {
		i := int32(len(c.nodes))
		c.nodes = append(c.nodes, flatNode{})
		f := flatNode{class: n.Class, left: i, right: i}
		if n.IsLeaf() {
			c.nodes[i] = f
			return i
		}
		if n.Left == nil || n.Right == nil {
			panic("tree: Compile on a node with a missing child")
		}
		sp := n.Splitter
		slot := -1
		if sp.Kind == NumericSplit {
			if slot = t.Schema.NumericPos(sp.Attr); slot >= 0 {
				f.slot, f.thr = int32(slot), sp.Threshold
				c.hasNum, c.maxNum = true, max(c.maxNum, f.slot)
			}
		} else if slot = t.Schema.CategoricalPos(sp.Attr); slot >= 0 {
			f.slot, f.cat = int32(slot), 1
			c.hasCat, c.maxCat = true, max(c.maxCat, f.slot)
			f.bitOff, f.card = int32(len(c.bits)), int32(len(sp.InLeft))
			words := make([]uint64, len(sp.InLeft)/64+1)
			for v, in := range sp.InLeft {
				if in {
					words[v/64] |= 1 << (v % 64)
				}
			}
			c.bits = append(c.bits, words...)
		}
		f.left = add(n.Left)
		f.right = add(n.Right)
		if slot < 0 {
			f.left = f.right
		}
		c.nodes[i] = f
		return i
	}
	if t.Root == nil {
		panic("tree: Compile on a tree with no root")
	}
	add(t.Root)
	return c
}

// NumNodes returns the number of nodes, leaves included.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

// Leaf returns the index of the leaf r is routed to: its position in
// Tree.Walk's preorder.
func (c *Compiled) Leaf(r record.Record) int32 {
	i := int32(0)
	for {
		n := &c.nodes[i]
		if n.left == i {
			return i
		}
		left := false
		if n.cat != 0 {
			if uint(n.slot) < uint(len(r.Cat)) {
				v := min(uint32(r.Cat[n.slot]), uint32(n.card))
				left = c.bits[n.bitOff+int32(v/64)]>>(v%64)&1 != 0
			}
		} else if uint(n.slot) < uint(len(r.Num)) {
			left = r.Num[n.slot] <= n.thr
		}
		if left {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// batchRows is how many rows LeafBatch walks together.
const batchRows = 16

// ClassifyBatch writes the class of recs[i] to out[i]; out must be at least
// as long as recs. It is LeafBatch's walk, ending in each leaf's class.
func (c *Compiled) ClassifyBatch(recs []record.Record, out []int32) {
	c.walkBatch(recs, out, true)
}

// LeafBatch writes Leaf(recs[i]) to out[i]; out must be at least as long
// as recs. Rows are walked batchRows at a time, one level per round for
// every row of the batch. Each step evaluates both the numeric and the
// categorical test (a numeric node's categorical test reads the zero word,
// a categorical node's numeric test slot 0) and combines them with the
// node's kind arithmetically, so a step has no data-dependent branch:
// independent rows' node loads overlap, and no level costs a mispredicted
// branch. Leaves step to themselves, so the rounds end when no row moves.
func (c *Compiled) LeafBatch(recs []record.Record, out []int32) {
	c.walkBatch(recs, out, false)
}

// walkBatch is LeafBatch's walk; it writes each row's leaf, or with class
// set the leaf's class.
func (c *Compiled) walkBatch(recs []record.Record, out []int32, class bool) {
	out = out[:len(recs)]
	var (
		at   [batchRows]int32
		nums [batchRows][]float64
		cats [batchRows][]int32
		pad  = []float64{0}
		padC = []int32{0}
	)
	for lo := 0; lo < len(recs); lo += batchRows {
		rows := recs[lo:min(lo+batchRows, len(recs))]
		full := true
		for k := range rows {
			at[k], nums[k], cats[k] = 0, rows[k].Num, rows[k].Cat
			if !c.hasNum {
				nums[k] = pad
			} else if len(nums[k]) <= int(c.maxNum) {
				full = false
			}
			if !c.hasCat {
				cats[k] = padC
			} else if len(cats[k]) <= int(c.maxCat) {
				full = false
			}
		}
		if !full {
			for k := range rows {
				at[k] = c.Leaf(rows[k])
			}
			c.emit(out[lo:], at[:len(rows)], class)
			continue
		}
		for moved := int32(1); moved != 0; {
			moved = 0
			for k := range rows {
				i := at[k]
				n := &c.nodes[i]
				cat := n.cat
				x := nums[k][n.slot*int32(1-cat)]
				// v = min(value, card), computed without a branch: a
				// numeric node's card is 0, so the Cat value it reads is
				// arbitrary.
				d := int64(uint32(cats[k][n.slot*int32(cat)])) - int64(n.card)
				v := uint32(int64(n.card) + d&(d>>63))
				var numLeft uint32
				if x <= n.thr {
					numLeft = 1
				}
				catLeft := uint32(c.bits[n.bitOff+int32(v/64)]>>(v%64)) & 1
				// Both children are loaded first so the pick is a select.
				next, l := n.right, n.left
				if (numLeft|cat)&(catLeft|(1-cat)) != 0 {
					next = l
				}
				moved |= next ^ i
				at[k] = next
			}
		}
		c.emit(out[lo:], at[:len(rows)], class)
	}
}

// emit writes the leaves a batch's rows reached to out, or with class set
// their classes.
func (c *Compiled) emit(out, leaves []int32, class bool) {
	if !class {
		copy(out, leaves)
		return
	}
	for k, l := range leaves {
		out[k] = c.nodes[l].class
	}
}
