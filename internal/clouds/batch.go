package clouds

import (
	"encoding/binary"
	"math"
	"sync"

	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Batch is one page of a node file seen as per-attribute columns: the unit
// every streamed pass over a node works on. A column is decoded the first
// time a pass asks for it within the page, so a pass pays only for the
// columns it reads: the alive pass for its alive attributes and the class,
// the partition for the split column (and, for fused child statistics, the
// listed rows of the others, read straight from the page). A row that moves
// to another file or rank moves as its encoded bytes.
type Batch struct {
	schema  *record.Schema
	rb      int
	catBase int // byte offset of categorical attribute 0 within a row
	n       int
	enc     []byte // the page; row i is enc[i*rb : (i+1)*rb]
	// numCol[j] is numeric attribute j (schema numeric order), catCol[j]
	// categorical attribute j, clsCol the rows' classes; each holds the
	// current page only once its flag says it was decoded.
	numCol       [][]float64
	catCol       [][]int32
	clsCol       []int32
	numOK, catOK []bool
	clsOK        bool

	// Scratch of the kernels, grown on demand: column entries read at a
	// row list, their interval indices, and the two row lists of a split.
	vals        []float64
	catVals     []int32
	locs        []int32
	cls         []int32
	left, right []int32
}

// NewBatch returns an empty batch for records of schema.
func NewBatch(schema *record.Schema) *Batch {
	nNum, nCat := schema.NumNumeric(), schema.NumCategorical()
	return &Batch{
		schema:  schema,
		rb:      schema.RecordBytes(),
		catBase: 8 * nNum,
		numCol:  make([][]float64, nNum),
		catCol:  make([][]int32, nCat),
		numOK:   make([]bool, nNum),
		catOK:   make([]bool, nCat),
		// Never nil: a split's empty side is an empty row list, not
		// AddBatch's "every row".
		left:  []int32{},
		right: []int32{},
	}
}

// Decode makes page, whole records in Record.Encode's layout, the batch's
// rows; trailing bytes short of a record are ignored. It decodes nothing:
// each column is decoded on first use. The batch keeps page itself, so
// page must stay unchanged while the batch is in use.
func (b *Batch) Decode(page []byte) {
	b.n = len(page) / b.rb
	b.enc = page[:b.n*b.rb]
	clear(b.numOK)
	clear(b.catOK)
	b.clsOK = false
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Row returns row i's encoded bytes, a view of the page.
func (b *Batch) Row(i int) []byte { return b.enc[i*b.rb : (i+1)*b.rb] }

// num returns numeric column j, decoding it on first use within the page.
func (b *Batch) num(j int) []float64 {
	if !b.numOK[j] {
		col := scratch(&b.numCol[j], b.n)
		for i, off := 0, 8*j; i < len(col); i, off = i+1, off+b.rb {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.enc[off:]))
		}
		b.numCol[j], b.numOK[j] = col, true
	}
	return b.numCol[j]
}

// cat returns categorical column j, decoding it on first use within the
// page.
func (b *Batch) cat(j int) []int32 {
	if !b.catOK[j] {
		b.catCol[j], b.catOK[j] = b.int32Col(&b.catCol[j], b.catBase+4*j), true
	}
	return b.catCol[j]
}

// Classes returns the class column, decoding it on first use within the
// page.
func (b *Batch) Classes() []int32 {
	if !b.clsOK {
		b.clsCol, b.clsOK = b.int32Col(&b.clsCol, b.rb-4), true
	}
	return b.clsCol
}

// int32Col decodes the 4-byte field at byte off of every row into *col.
func (b *Batch) int32Col(col *[]int32, off int) []int32 {
	out := scratch(col, b.n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b.enc[off:]))
		off += b.rb
	}
	return out
}

// numAt returns numeric attribute j of the listed rows, read straight
// from the page into the batch's scratch (valid until the next numAt), or
// the whole column when rows is nil.
func (b *Batch) numAt(j int, rows []int32) []float64 {
	if rows == nil {
		return b.num(j)
	}
	out := scratch(&b.vals, len(rows))
	for k, r := range rows {
		out[k] = math.Float64frombits(binary.LittleEndian.Uint64(b.enc[int(r)*b.rb+8*j:]))
	}
	return out
}

// catAt is numAt for categorical attribute j (valid until the next catAt).
func (b *Batch) catAt(j int, rows []int32) []int32 {
	if rows == nil {
		return b.cat(j)
	}
	return b.int32At(&b.catVals, b.catBase+4*j, rows)
}

// classesAt is numAt for the class (valid until the next classesAt).
func (b *Batch) classesAt(rows []int32) []int32 {
	if rows == nil {
		return b.Classes()
	}
	return b.int32At(&b.cls, b.rb-4, rows)
}

// int32At reads the 4-byte field at byte off of the listed rows into
// *buf.
func (b *Batch) int32At(buf *[]int32, off int, rows []int32) []int32 {
	out := scratch(buf, len(rows))
	for k, r := range rows {
		out[k] = int32(binary.LittleEndian.Uint32(b.enc[int(r)*b.rb+off:]))
	}
	return out
}

// split sorts the rows by sp into two row lists, each in row order, with
// one compare per row on the split column, the one column it decodes. A
// row goes left exactly when sp.GoesLeft would send its record left. The
// lists are the batch's scratch, valid until the next split or Decode.
func (b *Batch) split(sp *tree.Splitter) (left, right []int32) {
	left, right = b.left[:0], b.right[:0]
	n := int32(b.Len())
	if sp.Kind == tree.NumericSplit {
		j := b.schema.NumericPos(sp.Attr)
		if j < 0 {
			return left, appendRange(right, n)
		}
		thr := sp.Threshold
		for i, v := range b.num(j) {
			if v <= thr {
				left = append(left, int32(i))
			} else {
				right = append(right, int32(i))
			}
		}
		b.left, b.right = left, right
		return left, right
	}
	j := b.schema.CategoricalPos(sp.Attr)
	if j < 0 {
		return left, appendRange(right, n)
	}
	in := sp.InLeft
	for i, v := range b.cat(j) {
		if v >= 0 && int(v) < len(in) && in[v] {
			left = append(left, int32(i))
		} else {
			right = append(right, int32(i))
		}
	}
	b.left, b.right = left, right
	return left, right
}

// appendRange appends 0, 1, ..., n-1 to rows.
func appendRange(rows []int32, n int32) []int32 {
	for i := int32(0); i < n; i++ {
		rows = append(rows, i)
	}
	return rows
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
// seen as a Batch, and returns the number of records it held. The batch and
// its rows are valid only during the call to fn.
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

// Partition streams a node's file into its two child files: for each page,
// split decodes the split column and sorts the rows into two lists, each
// list is appended to its child writer (lw, rw) as encoded bytes, and the
// fused statistics of each child (nil for a child that takes none) read the
// other columns straight from the page at the child's rows. It returns the
// records read; each child file holds its rows in the parent file's order,
// byte for byte.
func Partition(store *ooc.Store, name string, sp *tree.Splitter, lw, rw *ooc.Writer, leftStats, rightStats *NodeStats) (int64, error) {
	return ScanBatches(store, name, func(b *Batch) error {
		left, right := b.split(sp)
		if leftStats != nil {
			leftStats.AddBatch(b, left)
		}
		if rightStats != nil {
			rightStats.AddBatch(b, right)
		}
		if err := lw.WriteRows(b.enc, left); err != nil {
			return err
		}
		return rw.WriteRows(b.enc, right)
	})
}
