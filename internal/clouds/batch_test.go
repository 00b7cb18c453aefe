package clouds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/histogram"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// decodeBatch decodes recs, encoded, into one batch.
func decodeBatch(schema *record.Schema, recs []record.Record) *Batch {
	b := NewBatch(schema)
	b.Decode(record.EncodeAll(recs))
	return b
}

// rowLists returns the row lists AddBatch must count like Add: every row
// (nil), none (empty), and a few arbitrary ones — unsorted, repeated and
// sparse.
func rowLists(rng *rand.Rand, n int) map[string][]int32 {
	lists := map[string][]int32{"nil": nil, "empty": {}}
	for k, size := range []int{1, n / 3, n, 2 * n} {
		rows := make([]int32, size)
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		lists[fmt.Sprintf("random-%d", k)] = rows
	}
	return lists
}

// TestAddBatchMatchesAdd checks that NodeStats.AddBatch counts exactly the
// integers Add counts over the same records, for every kind of row list,
// 2–5 classes, numeric-only and categorical-only schemas, NaN, ±Inf and
// signed zeros, and interval structures with and without a guide index.
func TestAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range []struct{ nNum, nCat, classes int }{
		{3, 2, 2}, {4, 0, 3}, {0, 3, 5}, {2, 1, 4}, {1, 1, 2},
	} {
		data := randomAwkwardDataset(rng, 1500, sh.nNum, sh.nCat, sh.classes)
		schema := data.Schema
		for _, q := range []int{1, 8, 200} {
			intervals := BuildIntervals(schema, data.Records[:600], q)
			for name, rows := range rowLists(rng, data.Len()) {
				// Three pages' worth of batches, as a scan would see them.
				got := NewNodeStats(schema, intervals)
				for lo := 0; lo < data.Len(); lo += 500 {
					b := decodeBatch(schema, data.Records[lo:lo+500])
					var sub []int32
					if rows != nil {
						sub = []int32{}
						for _, r := range rows {
							if int(r) >= lo && int(r) < lo+500 {
								sub = append(sub, r-int32(lo))
							}
						}
					}
					got.AddBatch(b, sub)
				}
				want := NewNodeStats(schema, intervals)
				if rows == nil {
					for _, r := range data.Records {
						want.Add(r)
					}
				}
				for _, r := range rows {
					want.Add(data.Records[r])
				}
				if !slices.Equal(got.Flatten(), want.Flatten()) {
					t.Fatalf("%d num, %d cat, %d classes, q %d, rows %s: AddBatch counts differ from Add",
						sh.nNum, sh.nCat, sh.classes, q, name)
				}
			}
		}
	}
}

// TestBatchSplitMatchesGoesLeft checks that split sends each row where
// GoesLeft sends its record, for numeric thresholds at awkward values,
// categorical subsets shorter than the cardinality, and a splitter whose
// attribute is not of its kind (every row goes right).
func TestBatchSplitMatchesGoesLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := randomAwkwardDataset(rng, 700, 2, 2, 3)
	schema := data.Schema
	b := decodeBatch(schema, data.Records)
	splitters := []*tree.Splitter{
		{Kind: tree.CategoricalSplit, Attr: 2, InLeft: []bool{true}},
		{Kind: tree.CategoricalSplit, Attr: 3, InLeft: []bool{false, true, true}},
		{Kind: tree.CategoricalSplit, Attr: 0, InLeft: []bool{true, true}}, // numeric attribute
		{Kind: tree.NumericSplit, Attr: 2, Threshold: 1},                   // categorical attribute
	}
	for _, thr := range []float64{-1, 0, 0.5, 2} {
		splitters = append(splitters, &tree.Splitter{Kind: tree.NumericSplit, Attr: 1, Threshold: thr})
	}
	for _, sp := range splitters {
		left, right := b.split(sp)
		var wantLeft, wantRight []int32
		for i, r := range data.Records {
			if sp.GoesLeft(schema, r) {
				wantLeft = append(wantLeft, int32(i))
			} else {
				wantRight = append(wantRight, int32(i))
			}
		}
		if !slices.Equal(left, wantLeft) || !slices.Equal(right, wantRight) {
			t.Fatalf("%v: split gives %d left / %d right, GoesLeft %d / %d", sp, len(left), len(right), len(wantLeft), len(wantRight))
		}
	}
}

// TestAliveAddBatchMatchesAdd checks that a collector fed batches holds the
// same points, in the same order, as one fed record by record, for
// scattered alive intervals and for the contiguous spans SSE leaves alive:
// in the middle, from interval 0 (which holds −Inf) and up to the last
// interval (which holds NaN and +Inf). Every cut value and every edge
// value occurs in every attribute. The batch collector's slots are carved
// from a room sized to the exact counts and must not leave it.
func TestAliveAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := randomAwkwardDataset(rng, 1200, 3, 1, 2)
	intervals := BuildIntervals(data.Schema, data.Records[:400], 50)
	edges := []float64{math.Inf(-1), math.NaN(), math.Inf(1), 0, math.Copysign(0, -1)}
	for j, iv := range intervals {
		for _, v := range append(slices.Clone(iv.Cuts), edges...) {
			rec := data.Records[rng.Intn(1200)]
			rec.Num = slices.Clone(rec.Num)
			rec.Num[j] = v
			data.Append(rec)
		}
	}
	spans := map[string]func(j, n int) (lo, hi, step int){
		"scattered": func(j, n int) (int, int, int) { return j, n - 1, 3 },
		"middle":    func(j, n int) (int, int, int) { return n/2 - 1, n/2 + 1, 1 },
		"from-zero": func(j, n int) (int, int, int) { return 0, 2, 1 },
		"to-last":   func(j, n int) (int, int, int) { return n - 3, n - 1, 1 },
		"first":     func(j, n int) (int, int, int) { return 0, 0, 1 },
		"last":      func(j, n int) (int, int, int) { return n - 1, n - 1, 1 },
		"whole":     func(j, n int) (int, int, int) { return 0, n - 1, 1 },
		"mixed": func(j, n int) (int, int, int) {
			switch j {
			case 0:
				return 0, 1, 1
			case 1:
				return n / 3, n / 3, 1
			}
			return n - 2, n - 1, 1
		},
	}
	for name, span := range spans {
		var alive []AliveInterval
		for j, iv := range intervals {
			lo, hi, step := span(j, iv.NumIntervals())
			for i := max(lo, 0); i <= min(hi, iv.NumIntervals()-1); i += step {
				alive = append(alive, AliveInterval{AttrJ: j, Interval: i})
			}
		}
		byRecord := NewAliveCollector(intervals, alive, make([]int64, len(alive)), nil)
		for i := range data.Records {
			byRecord.Add(&data.Records[i])
		}
		capacity := make([]int64, len(alive))
		var total int64
		for s := range alive {
			capacity[s] = int64(len(byRecord.Points(s)))
			total += capacity[s]
		}
		room := make([]Point, total)
		byBatch := NewAliveCollector(intervals, alive, capacity, room)
		for lo := 0; lo < data.Len(); lo += 300 {
			byBatch.AddBatch(decodeBatch(data.Schema, data.Records[lo:min(lo+300, data.Len())]))
		}
		var off int64
		for s := range alive {
			got := byBatch.Points(s)
			if !slices.EqualFunc(got, byRecord.Points(s), samePoint) {
				t.Fatalf("%s: alive slot %d (attribute %d, interval %d): batch collected %d points, record by record %d",
					name, s, alive[s].AttrJ, alive[s].Interval, len(got), len(byRecord.Points(s)))
			}
			if len(got) > 0 && &got[0] != &room[off] {
				t.Fatalf("%s: alive slot %d is not carved from its room", name, s)
			}
			off += capacity[s]
		}
	}
}

// samePoint compares two points bit for bit (NaN equals NaN).
func samePoint(a, b Point) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestPartitionFilesByteIdentical checks that Partition writes the child
// files, byte for byte and with the same write operations, that routing
// each record with GoesLeft and Writer.Write writes, and fills the fused
// child statistics like Add.
func TestPartitionFilesByteIdentical(t *testing.T) {
	train := genData(t, 5000, 2, 5)
	schema := train.Schema
	store := ooc.NewMemStore(schema, costmodel.Zero(), nil)
	if err := store.WriteAll("node", train.Records); err != nil {
		t.Fatal(err)
	}
	sp := &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: 50}
	intervals := BuildIntervals(schema, train.Records[:500], 40)

	// route writes the node into two child files with put and returns the
	// writes it made.
	route := func(prefix string, put func(lw, rw *ooc.Writer) error) ooc.IOStats {
		before := store.Stats()
		lw, err := store.CreateWriter(prefix + "L")
		if err != nil {
			t.Fatal(err)
		}
		rw, err := store.CreateWriter(prefix + "R")
		if err != nil {
			t.Fatal(err)
		}
		if err := put(lw, rw); err != nil {
			t.Fatal(err)
		}
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		return store.Stats().Sub(before)
	}
	leftStats, rightStats := NewNodeStats(schema, intervals), NewNodeStats(schema, intervals)
	batchIO := route("", func(lw, rw *ooc.Writer) error {
		n, err := Partition(store, "node", sp, lw, rw, leftStats, rightStats)
		if err == nil && n != int64(train.Len()) {
			err = fmt.Errorf("Partition read %d records of %d", n, train.Len())
		}
		return err
	})
	wantLeft, wantRight := NewNodeStats(schema, intervals), NewNodeStats(schema, intervals)
	rowIO := route("want", func(lw, rw *ooc.Writer) error {
		for _, r := range train.Records {
			w := rw
			if sp.GoesLeft(schema, r) {
				wantLeft.Add(r)
				w = lw
			} else {
				wantRight.Add(r)
			}
			if err := w.Write(r); err != nil {
				return err
			}
		}
		return nil
	})
	if batchIO.WriteOps != rowIO.WriteOps || batchIO.WriteBytes != rowIO.WriteBytes {
		t.Fatalf("writes: batch %v, row by row %v", batchIO, rowIO)
	}
	for _, side := range []string{"L", "R"} {
		got, err := store.ReadAll(side)
		if err != nil {
			t.Fatal(err)
		}
		want, err := store.ReadAll("want" + side)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(record.EncodeAll(got), record.EncodeAll(want)) {
			t.Fatalf("child %s: bytes differ", side)
		}
	}
	if !slices.Equal(leftStats.Flatten(), wantLeft.Flatten()) || !slices.Equal(rightStats.Flatten(), wantRight.Flatten()) {
		t.Fatal("fused child statistics differ from Add")
	}
}

// agrawalPages returns function-2 rows encoded as the pages a scan of
// them reads, and interval structures at q = 1000.
func agrawalPages(b *testing.B) (*record.Schema, [][]byte, []*histogram.Intervals) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Generate(64 << 10)
	rows := ooc.PageSize / data.Schema.RecordBytes()
	var pages [][]byte
	for lo := 0; lo+rows <= data.Len(); lo += rows {
		pages = append(pages, record.EncodeAll(data.Records[lo:lo+rows]))
	}
	return data.Schema, pages, BuildIntervals(data.Schema, data.Records[:10_000], 1000)
}

// BenchmarkNodeStatsAdd is a statistics pass record by record: decode each
// row, then Add it.
func BenchmarkNodeStatsAdd(b *testing.B) {
	schema, pages, intervals := agrawalPages(b)
	ns := NewNodeStats(schema, intervals)
	rb := schema.RecordBytes()
	var rec record.Record
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		page := pages[i%len(pages)]
		for off := 0; off < len(page); off += rb {
			rec.Decode(schema, page[off:])
			ns.Add(rec)
		}
		rows += len(page) / rb
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// BenchmarkNodeStatsAddBatch is the same pass a page at a time: decode the
// page into columns, then AddBatch it.
func BenchmarkNodeStatsAddBatch(b *testing.B) {
	schema, pages, intervals := agrawalPages(b)
	ns := NewNodeStats(schema, intervals)
	bt := NewBatch(schema)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		bt.Decode(pages[i%len(pages)])
		ns.AddBatch(bt, nil)
		rows += bt.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// eagerColumns decodes every column of page at once, as Batch.Decode did
// before it decoded on demand: the reference FuzzBatchColumns checks the
// lazy accessors against.
func eagerColumns(schema *record.Schema, page []byte) (num [][]float64, cat [][]int32, cls []int32) {
	rb := schema.RecordBytes()
	n := len(page) / rb
	num = make([][]float64, schema.NumNumeric())
	cat = make([][]int32, schema.NumCategorical())
	for i := 0; i < n; i++ {
		row := page[i*rb:]
		for j := range num {
			num[j] = append(num[j], math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:])))
		}
		for j := range cat {
			cat[j] = append(cat[j], int32(binary.LittleEndian.Uint32(row[8*len(num)+4*j:])))
		}
		cls = append(cls, int32(binary.LittleEndian.Uint32(row[rb-4:])))
	}
	return num, cat, cls
}

// FuzzBatchColumns checks the lazily decoded batch against an eager decode
// of the same page. shape picks 0–3 numeric and 0–2 categorical
// attributes; vals fills two pages of records, one field a byte (palette
// values, NaN, ±Inf and ±0 among them, and int32 fields of either sign),
// each page possibly ending in a partial record; ops is a sequence of accessor calls in any order — whole
// columns, columns at row lists (nil, empty, unsorted, repeated), and a
// second Decode of the other page on the same batch, as a pooled batch
// sees it. Every answer must equal the eager decode.
func FuzzBatchColumns(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{0, 1, 2, 3, 4, 5, 6, 0, 13, 20, 27})
	f.Add(uint8(0), []byte{}, []byte{6, 3, 6, 5})
	f.Add(uint8(11), []byte{255, 128, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201, 202, 203, 204}, []byte{3, 10, 17, 6, 24, 4, 11, 6, 5, 2, 1})
	rng := rand.New(rand.NewSource(53))
	for range 40 {
		vals := make([]byte, rng.Intn(400))
		rng.Read(vals)
		ops := make([]byte, rng.Intn(30))
		rng.Read(ops)
		f.Add(uint8(rng.Intn(256)), vals, ops)
	}
	f.Fuzz(func(t *testing.T, shape uint8, vals, ops []byte) {
		nNum, nCat := int(shape%4), int(shape/4%3)
		if nNum+nCat == 0 {
			nNum = 1
		}
		var attrs []record.Attribute
		for j := 0; j < nNum; j++ {
			attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("x%d", j), Kind: record.Numeric})
		}
		for j := 0; j < nCat; j++ {
			attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("c%d", j), Kind: record.Categorical, Cardinality: 3})
		}
		schema := record.MustSchema(attrs, 2)
		rb := schema.RecordBytes()
		// Each byte of vals is one field: a palette value or an int32.
		var pages [2][]byte
		for k, v := range vals {
			page := &pages[k%2]
			if len(*page)%rb < 8*nNum {
				*page = binary.LittleEndian.AppendUint64(*page, math.Float64bits(kernelPalette[int(v)%len(kernelPalette)]))
			} else {
				*page = binary.LittleEndian.AppendUint32(*page, uint32(int32(int8(v))*0x01010101))
			}
		}
		b := NewBatch(schema)
		cur := 0
		b.Decode(pages[cur])
		num, cat, cls := eagerColumns(schema, pages[cur])
		for k, op := range ops {
			kind, j := op%7, int(op/7)
			var rows []int32
			if n := len(cls); kind >= 3 && kind <= 5 && op%2 == 0 {
				rows = []int32{}
				r := rand.New(rand.NewSource(int64(k)))
				for range r.Intn(2*n + 1) {
					if n > 0 {
						rows = append(rows, int32(r.Intn(n)))
					}
				}
			}
			at := func(i int) int {
				if rows == nil {
					return i
				}
				return int(rows[i])
			}
			want := len(cls)
			if rows != nil {
				want = len(rows)
			}
			switch {
			case kind == 0 && nNum > 0, kind == 3 && nNum > 0:
				j %= nNum
				got := b.num(j)
				if kind == 3 {
					got = b.numAt(j, rows)
				} else {
					rows = nil
				}
				if len(got) != want {
					t.Fatalf("op %d: numeric %d: %d values, want %d", k, j, len(got), want)
				}
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(num[j][at(i)]) {
						t.Fatalf("op %d: numeric %d entry %d: %v, want %v", k, j, i, v, num[j][at(i)])
					}
				}
			case kind == 1 && nCat > 0, kind == 4 && nCat > 0:
				j %= nCat
				got := b.cat(j)
				if kind == 4 {
					got = b.catAt(j, rows)
				} else {
					rows = nil
				}
				if len(got) != want {
					t.Fatalf("op %d: categorical %d: %d values, want %d", k, j, len(got), want)
				}
				for i, v := range got {
					if v != cat[j][at(i)] {
						t.Fatalf("op %d: categorical %d entry %d: %d, want %d", k, j, i, v, cat[j][at(i)])
					}
				}
			case kind == 2, kind == 5:
				got := b.Classes()
				if kind == 5 {
					got = b.classesAt(rows)
				} else {
					rows = nil
				}
				if len(got) != want {
					t.Fatalf("op %d: classes: %d values, want %d", k, len(got), want)
				}
				for i, v := range got {
					if v != cls[at(i)] {
						t.Fatalf("op %d: class entry %d: %d, want %d", k, i, v, cls[at(i)])
					}
				}
			case kind == 6:
				cur = 1 - cur
				b.Decode(pages[cur])
				num, cat, cls = eagerColumns(schema, pages[cur])
			}
			if b.Len() != len(cls) {
				t.Fatalf("op %d: Len %d, want %d", k, b.Len(), len(cls))
			}
		}
	})
}

// partitionBench is a 65,536-row Agrawal node file in a memory store, the
// split Partition routes it by, and the interval structures of its two
// children's fused statistics.
func partitionBench(b *testing.B) (*ooc.Store, *tree.Splitter, []*histogram.Intervals, int64) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Generate(64 << 10)
	store := ooc.NewMemStore(data.Schema, costmodel.Zero(), nil)
	if err := store.WriteAll("node", data.Records); err != nil {
		b.Fatal(err)
	}
	sp := &tree.Splitter{Kind: tree.NumericSplit, Attr: data.Schema.NumericIndices()[0], Threshold: data.Records[0].Num[0]}
	return store, sp, BuildIntervals(data.Schema, data.Records[:10_000], 1000), int64(data.Len())
}

// BenchmarkPartition times the partition pass of a streamed node: each
// page's split column decoded and split, fused statistics for both
// children, and both children's rows written into a memory store.
func BenchmarkPartition(b *testing.B) {
	store, sp, intervals, n := partitionBench(b)
	left, right := NewNodeStats(store.Schema(), intervals), NewNodeStats(store.Schema(), intervals)
	b.ResetTimer()
	for range b.N {
		lw, err := store.CreateWriter("L")
		if err != nil {
			b.Fatal(err)
		}
		rw, err := store.CreateWriter("R")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Partition(store, "node", sp, lw, rw, left, right); err != nil {
			b.Fatal(err)
		}
		if err := lw.Close(); err != nil {
			b.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/row")
}

// BenchmarkAliveCollect times the alive pass over Agrawal pages with the
// shape SSE leaves: a 3-interval alive span in the middle of 2 attributes,
// every other attribute dead.
func BenchmarkAliveCollect(b *testing.B) {
	schema, pages, intervals := agrawalPages(b)
	var alive []AliveInterval
	for j := range 2 {
		mid := intervals[j].NumIntervals() / 2
		for i := mid - 1; i <= mid+1; i++ {
			alive = append(alive, AliveInterval{AttrJ: j, Interval: i})
		}
	}
	col := NewAliveCollector(intervals, alive, make([]int64, len(alive)), nil)
	bt := NewBatch(schema)
	b.ResetTimer()
	rows := 0
	for i := range b.N {
		for s := range col.slots {
			col.slots[s] = col.slots[s][:0]
		}
		bt.Decode(pages[i%len(pages)])
		col.AddBatch(bt)
		rows += bt.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
