package tree

import (
	"encoding/binary"
	"fmt"
	"math"

	"pclouds/internal/record"
)

// Binary tree encoding, used to ship subtrees built by task-parallel workers
// back to the coordinator. Layout is a pre-order walk; each node is:
//
//	u8  tag: 0 = leaf, 1 = numeric split, 2 = categorical split
//	i64 N
//	u32 number of classes, then that many i64 class counts
//	leaf:        u32 class
//	numeric:     u32 attr, f64 threshold, f64 gini
//	categorical: u32 attr, f64 gini, u32 cardinality, that many u8 flags
//
// tagPending additionally marks a nil child in partial encodings
// (EncodePartial): an internal node whose subtree had not been built yet
// when the tree was checkpointed mid-build.
const (
	tagLeaf        = 0
	tagNumeric     = 1
	tagCategorical = 2
	tagPending     = 3
)

// Encode serialises the tree (without its schema) to bytes.
func Encode(t *Tree) []byte { return encode(t.Root, false) }

// EncodePartial serialises a possibly incomplete tree: nil children (and a
// nil root) are marked with a pending tag instead of panicking. Used by the
// per-level build checkpoints, where nodes at the frontier have been split
// but their subtrees not yet built.
func EncodePartial(t *Tree) []byte { return encode(t.Root, true) }

func encode(root *Node, partial bool) []byte {
	var dst []byte
	var enc func(n *Node)
	put64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		dst = append(dst, b[:]...)
	}
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	enc = func(n *Node) {
		if n == nil {
			if !partial {
				panic("tree: Encode on incomplete tree (use EncodePartial)")
			}
			dst = append(dst, tagPending)
			return
		}
		if n.IsLeaf() {
			dst = append(dst, tagLeaf)
		} else if n.Splitter.Kind == NumericSplit {
			dst = append(dst, tagNumeric)
		} else {
			dst = append(dst, tagCategorical)
		}
		put64(uint64(n.N))
		put32(uint32(len(n.ClassCounts)))
		for _, c := range n.ClassCounts {
			put64(uint64(c))
		}
		if n.IsLeaf() {
			put32(uint32(n.Class))
			return
		}
		sp := n.Splitter
		put32(uint32(sp.Attr))
		if sp.Kind == NumericSplit {
			put64(math.Float64bits(sp.Threshold))
			put64(math.Float64bits(sp.Gini))
		} else {
			put64(math.Float64bits(sp.Gini))
			put32(uint32(len(sp.InLeft)))
			for _, in := range sp.InLeft {
				if in {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		}
		enc(n.Left)
		enc(n.Right)
	}
	enc(root)
	return dst
}

type decoder struct {
	src []byte
	off int
	// partial accepts pending-child markers, decoding them as nil nodes.
	partial bool
}

func (d *decoder) u8() (byte, error) {
	if d.off >= len(d.src) {
		return 0, fmt.Errorf("tree: truncated encoding at %d", d.off)
	}
	v := d.src[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.src) {
		return 0, fmt.Errorf("tree: truncated encoding at %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.src[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.src) {
		return 0, fmt.Errorf("tree: truncated encoding at %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.src[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) node() (*Node, error) {
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	if tag == tagPending {
		if !d.partial {
			return nil, fmt.Errorf("tree: pending-node marker in complete encoding")
		}
		return nil, nil
	}
	nVal, err := d.u64()
	if err != nil {
		return nil, err
	}
	nc, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(nc) > len(d.src) { // sanity bound against corrupt input
		return nil, fmt.Errorf("tree: implausible class count %d", nc)
	}
	node := &Node{N: int64(nVal), ClassCounts: make([]int64, nc)}
	for i := range node.ClassCounts {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		node.ClassCounts[i] = int64(v)
	}
	switch tag {
	case tagLeaf:
		cls, err := d.u32()
		if err != nil {
			return nil, err
		}
		node.Class = int32(cls)
		return node, nil
	case tagNumeric, tagCategorical:
		attr, err := d.u32()
		if err != nil {
			return nil, err
		}
		sp := &Splitter{Attr: int(attr)}
		if tag == tagNumeric {
			sp.Kind = NumericSplit
			th, err := d.u64()
			if err != nil {
				return nil, err
			}
			sp.Threshold = math.Float64frombits(th)
			g, err := d.u64()
			if err != nil {
				return nil, err
			}
			sp.Gini = math.Float64frombits(g)
		} else {
			sp.Kind = CategoricalSplit
			g, err := d.u64()
			if err != nil {
				return nil, err
			}
			sp.Gini = math.Float64frombits(g)
			card, err := d.u32()
			if err != nil {
				return nil, err
			}
			if int(card) > len(d.src) {
				return nil, fmt.Errorf("tree: implausible cardinality %d", card)
			}
			sp.InLeft = make([]bool, card)
			for i := range sp.InLeft {
				b, err := d.u8()
				if err != nil {
					return nil, err
				}
				// Encode writes 0 or 1; anything else would not
				// re-encode to the bytes that were accepted.
				if b > 1 {
					return nil, fmt.Errorf("tree: subset byte %d not 0 or 1", b)
				}
				sp.InLeft[i] = b == 1
			}
		}
		node.Splitter = sp
		node.Class = node.Majority()
		if node.Left, err = d.node(); err != nil {
			return nil, err
		}
		if node.Right, err = d.node(); err != nil {
			return nil, err
		}
		return node, nil
	default:
		return nil, fmt.Errorf("tree: bad node tag %d", tag)
	}
}

// Decode parses a tree encoded by Encode, attaching schema s.
func Decode(s *record.Schema, src []byte) (*Tree, error) {
	return decode(s, src, false)
}

// DecodePartial parses a tree encoded by EncodePartial; pending markers
// decode to nil children (and possibly a nil root).
func DecodePartial(s *record.Schema, src []byte) (*Tree, error) {
	return decode(s, src, true)
}

func decode(s *record.Schema, src []byte, partial bool) (*Tree, error) {
	d := &decoder{src: src, partial: partial}
	root, err := d.node()
	if err != nil {
		return nil, err
	}
	if d.off != len(src) {
		return nil, fmt.Errorf("tree: %d trailing bytes after decode", len(src)-d.off)
	}
	return &Tree{Schema: s, Root: root}, nil
}

// EncodeSubtrees frames the non-nil results, each one subtree's Encode
// bytes, as [u32 index][u64 length][length bytes]: the block in which a
// rank hands the subtrees it built to the other ranks.
func EncodeSubtrees(results [][]byte) []byte {
	size := 0
	for _, blob := range results {
		if blob != nil {
			size += 12 + len(blob)
		}
	}
	out := make([]byte, 0, size)
	for i, blob := range results {
		if blob == nil {
			continue
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(i))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// AttachSubtrees decodes every EncodeSubtrees block in blocks and calls
// attach with each subtree's index and root. Each of the n indices must
// arrive exactly once.
func AttachSubtrees(s *record.Schema, blocks [][]byte, n int, attach func(i int, root *Node)) error {
	seen := make([]bool, n)
	got := 0
	for _, src := range blocks {
		for len(src) > 0 {
			if len(src) < 12 {
				return fmt.Errorf("tree: truncated subtree frame (%d bytes)", len(src))
			}
			i, size := int(binary.LittleEndian.Uint32(src)), binary.LittleEndian.Uint64(src[4:])
			src = src[12:]
			if size > uint64(len(src)) {
				return fmt.Errorf("tree: subtree frame of %d bytes in %d", size, len(src))
			}
			if i >= n || seen[i] {
				return fmt.Errorf("tree: subtree index %d out of range or repeated", i)
			}
			t, err := Decode(s, src[:size])
			if err != nil {
				return err
			}
			src = src[size:]
			seen[i] = true
			got++
			attach(i, t.Root)
		}
	}
	if got != n {
		return fmt.Errorf("tree: attached %d subtrees, expected %d", got, n)
	}
	return nil
}
