package clouds

import (
	"bytes"
	"fmt"
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
// same points, in the same order, as one fed record by record.
func TestAliveAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := randomAwkwardDataset(rng, 1200, 3, 1, 2)
	intervals := BuildIntervals(data.Schema, data.Records[:400], 50)
	var alive []AliveInterval
	for j, iv := range intervals {
		for i := j; i < iv.NumIntervals(); i += 3 {
			alive = append(alive, AliveInterval{AttrJ: j, Interval: i})
		}
	}
	capacity := make([]int64, len(alive))
	byRecord := NewAliveCollector(intervals, alive, capacity)
	byBatch := NewAliveCollector(intervals, alive, capacity)
	for i := range data.Records {
		byRecord.Add(&data.Records[i])
	}
	for lo := 0; lo < data.Len(); lo += 300 {
		byBatch.AddBatch(decodeBatch(data.Schema, data.Records[lo:lo+300]))
	}
	for s := range alive {
		if !slices.EqualFunc(byBatch.Points(s), byRecord.Points(s), samePoint) {
			t.Fatalf("alive slot %d: batch and record collection differ", s)
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
