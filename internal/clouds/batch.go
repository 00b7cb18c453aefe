package clouds

import (
	"encoding/binary"
	"math"
	"sync"

	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Batch is one page of a node file decoded once into per-attribute
// columns: the unit every streamed pass over a node works on. The
// statistics, alive-collection and partition kernels each run one loop per
// column over it, and a row that moves to another file or rank moves as
// its encoded bytes, which the batch keeps beside the columns.
type Batch struct {
	schema *record.Schema
	rb     int
	enc    []byte // the page; row i is enc[i*rb : (i+1)*rb]
	// Num[j][i] is numeric attribute j (schema numeric order) of row i,
	// Cat[j][i] categorical attribute j, Class[i] the row's class.
	Num   [][]float64
	Cat   [][]int32
	Class []int32

	// Scratch of the kernels, grown on demand: a gathered column, its
	// interval indices, the gathered classes, and the two row lists of a
	// split.
	vals        []float64
	catVals     []int32
	locs        []int32
	cls         []int32
	left, right []int32
}

// NewBatch returns an empty batch for records of schema.
func NewBatch(schema *record.Schema) *Batch {
	return &Batch{
		schema: schema,
		rb:     schema.RecordBytes(),
		Num:    make([][]float64, schema.NumNumeric()),
		Cat:    make([][]int32, schema.NumCategorical()),
	}
}

// Decode replaces the batch's rows with the whole records encoded in page
// (Record.Encode's layout); trailing bytes short of a record are ignored.
// The batch keeps page itself for Row, so page must stay unchanged while
// the batch is in use.
func (b *Batch) Decode(page []byte) {
	rb := b.rb
	n := len(page) / rb
	page = page[:n*rb]
	b.enc = page
	if cap(b.Class) < n {
		b.grow(n)
	}
	for j := range b.Num {
		col := b.Num[j][:n]
		for i, off := 0, 8*j; i < n; i, off = i+1, off+rb {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off:]))
		}
		b.Num[j] = col
	}
	base := 8 * len(b.Num)
	for j := range b.Cat {
		col := b.Cat[j][:n]
		for i, off := 0, base+4*j; i < n; i, off = i+1, off+rb {
			col[i] = int32(binary.LittleEndian.Uint32(page[off:]))
		}
		b.Cat[j] = col
	}
	cls := b.Class[:n]
	for i, off := 0, rb-4; i < n; i, off = i+1, off+rb {
		cls[i] = int32(binary.LittleEndian.Uint32(page[off:]))
	}
	b.Class = cls
}

// grow makes every column and scratch slice hold n rows.
func (b *Batch) grow(n int) {
	for j := range b.Num {
		b.Num[j] = make([]float64, n)
	}
	for j := range b.Cat {
		b.Cat[j] = make([]int32, n)
	}
	b.Class = make([]int32, n)
	b.left = make([]int32, 0, n)
	b.right = make([]int32, 0, n)
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Class) }

// Row returns row i's encoded bytes, a view of the page.
func (b *Batch) Row(i int) []byte { return b.enc[i*b.rb : (i+1)*b.rb] }

// split sorts the rows by sp into two row lists, each in row order, with
// one compare per row on the split column. A row goes left exactly when
// sp.GoesLeft would send its record left. The lists are the batch's
// scratch, valid until the next split or Decode.
func (b *Batch) split(sp *tree.Splitter) (left, right []int32) {
	left, right = b.left[:0], b.right[:0]
	n := int32(b.Len())
	if sp.Kind == tree.NumericSplit {
		j := b.schema.NumericPos(sp.Attr)
		if j < 0 {
			return left, appendRange(right, n)
		}
		thr := sp.Threshold
		for i, v := range b.Num[j] {
			if v <= thr {
				left = append(left, int32(i))
			} else {
				right = append(right, int32(i))
			}
		}
		return left, right
	}
	j := b.schema.CategoricalPos(sp.Attr)
	if j < 0 {
		return left, appendRange(right, n)
	}
	in := sp.InLeft
	for i, v := range b.Cat[j] {
		if v >= 0 && int(v) < len(in) && in[v] {
			left = append(left, int32(i))
		} else {
			right = append(right, int32(i))
		}
	}
	return left, right
}

// appendRange appends 0, 1, ..., n-1 to rows.
func appendRange(rows []int32, n int32) []int32 {
	for i := int32(0); i < n; i++ {
		rows = append(rows, i)
	}
	return rows
}

// writeRows appends the listed rows to w as their encoded bytes, one copy
// per run of consecutive rows; nothing is re-encoded.
func (b *Batch) writeRows(w *ooc.Writer, rows []int32) error {
	for k := 0; k < len(rows); {
		start, end := int(rows[k]), int(rows[k])+1
		for k++; k < len(rows) && int(rows[k]) == end; k++ {
			end++
		}
		if err := w.WriteEncoded(b.enc[start*b.rb : end*b.rb]); err != nil {
			return err
		}
	}
	return nil
}

// gather returns the entries of col at rows, copied into *buf, or col
// itself when rows is nil.
func gather[T any](buf *[]T, col []T, rows []int32) []T {
	if rows == nil {
		return col
	}
	out := scratch(buf, len(rows))
	for k, r := range rows {
		out[k] = col[r]
	}
	return out
}

// scratch returns (*s)[:n], growing *s first when it is too short: a row
// list may name a row more than once.
func scratch[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// batchPool recycles batches across scans: a build scans one file per node
// and pass, and a batch's columns are a page's worth of every attribute.
var batchPool sync.Pool

// ScanBatches streams a store file through fn one page at a time, each page
// decoded once into a Batch, and returns the number of records it held. The
// batch and its rows are valid only during the call to fn.
func ScanBatches(store *ooc.Store, name string, fn func(*Batch) error) (int64, error) {
	b, _ := batchPool.Get().(*Batch)
	if b == nil || b.schema != store.Schema() {
		b = NewBatch(store.Schema())
	}
	defer func() {
		b.enc = nil
		batchPool.Put(b)
	}()
	return store.ScanPages(name, func(page []byte) error {
		b.Decode(page)
		return fn(b)
	})
}

// Partition streams a node's file into its two child files: each page is
// decoded once, split sends every row's encoded bytes to lw or rw, and the
// fused statistics of each child (nil for a child that takes none) are
// accumulated from the same columns. It returns the records read; each
// child file holds its rows in the parent file's order, byte for byte.
func Partition(store *ooc.Store, name string, sp *tree.Splitter, lw, rw *ooc.Writer, leftStats, rightStats *NodeStats) (int64, error) {
	return ScanBatches(store, name, func(b *Batch) error {
		left, right := b.split(sp)
		if leftStats != nil {
			leftStats.AddBatch(b, left)
		}
		if rightStats != nil {
			rightStats.AddBatch(b, right)
		}
		if err := b.writeRows(lw, left); err != nil {
			return err
		}
		return b.writeRows(rw, right)
	})
}
