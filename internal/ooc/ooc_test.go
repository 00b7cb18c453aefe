package ooc

import (
	"math/rand"
	"testing"

	"pclouds/internal/costmodel"
	"pclouds/internal/record"
)

func testSchema(t *testing.T) *record.Schema {
	t.Helper()
	return record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 5},
	}, 2)
}

func randRecords(n int, seed int64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Num:   []float64{rng.NormFloat64()},
			Cat:   []int32{int32(rng.Intn(5))},
			Class: int32(rng.Intn(2)),
		}
	}
	return recs
}

func stores(t *testing.T) map[string]*Store {
	t.Helper()
	s := testSchema(t)
	fileStore, err := NewFileStore(s, t.TempDir(), costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Store{
		"mem":  NewMemStore(s, costmodel.Zero(), nil),
		"file": fileStore,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			recs := randRecords(5000, 1) // spans multiple pages
			if err := st.WriteAll("data", recs); err != nil {
				t.Fatal(err)
			}
			got, err := st.ReadAll("data")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i].Num[0] != recs[i].Num[0] || got[i].Class != recs[i].Class {
					t.Fatalf("record %d mismatch", i)
				}
			}
		})
	}
}

func TestCount(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.WriteAll("d", randRecords(123, 2)); err != nil {
				t.Fatal(err)
			}
			n, err := st.Count("d")
			if err != nil {
				t.Fatal(err)
			}
			if n != 123 {
				t.Fatalf("count %d", n)
			}
			if _, err := st.Count("missing"); err == nil {
				t.Fatal("missing file should error")
			}
		})
	}
}

func TestStreamingReader(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			recs := randRecords(3000, 3)
			if err := st.WriteAll("d", recs); err != nil {
				t.Fatal(err)
			}
			r, err := st.OpenReader("d")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var rec record.Record
			i := 0
			for {
				ok, err := r.Next(&rec)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if rec.Num[0] != recs[i].Num[0] {
					t.Fatalf("record %d mismatch", i)
				}
				i++
			}
			if i != len(recs) {
				t.Fatalf("streamed %d of %d", i, len(recs))
			}
		})
	}
}

func TestRemoveAndList(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			st.WriteAll("a", randRecords(5, 1))
			st.WriteAll("b", randRecords(5, 2))
			names, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "a" || names[1] != "b" {
				t.Fatalf("list %v", names)
			}
			if err := st.Remove("a"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.ReadAll("a"); err == nil {
				t.Fatal("removed file still readable")
			}
			if err := st.Remove("a"); err == nil {
				t.Fatal("double remove should error")
			}
		})
	}
}

func TestOverwriteTruncates(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			st.WriteAll("d", randRecords(100, 1))
			st.WriteAll("d", randRecords(10, 2))
			n, err := st.Count("d")
			if err != nil {
				t.Fatal(err)
			}
			if n != 10 {
				t.Fatalf("overwrite left %d records", n)
			}
		})
	}
}

func TestIOStatsAndClock(t *testing.T) {
	s := testSchema(t)
	clock := costmodel.NewClock()
	params := costmodel.Params{DiskSeek: 1, DiskByte: 0.001}
	st := NewMemStore(s, params, clock)
	recs := randRecords(5000, 4)
	if err := st.WriteAll("d", recs); err != nil {
		t.Fatal(err)
	}
	wStats := st.Stats()
	if wStats.WriteOps == 0 || wStats.WriteBytes != int64(len(recs)*s.RecordBytes()) {
		t.Fatalf("write stats %+v", wStats)
	}
	tAfterWrite := clock.Time()
	if tAfterWrite <= 0 {
		t.Fatal("clock did not advance on writes")
	}
	if _, err := st.ReadAll("d"); err != nil {
		t.Fatal(err)
	}
	rStats := st.Stats()
	if rStats.ReadBytes != wStats.WriteBytes {
		t.Fatalf("read %d bytes, wrote %d", rStats.ReadBytes, wStats.WriteBytes)
	}
	if clock.Time() <= tAfterWrite {
		t.Fatal("clock did not advance on reads")
	}
	// Page-sized ops: 5000 records * 24B = 120000B -> 2 pages of 64K.
	if wStats.WriteOps != 2 {
		t.Fatalf("write ops %d, want 2", wStats.WriteOps)
	}
}

func TestWriterCount(t *testing.T) {
	st := NewMemStore(testSchema(t), costmodel.Zero(), nil)
	w, err := st.CreateWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range randRecords(7, 5) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 7 {
		t.Fatalf("writer count %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemLimit(t *testing.T) {
	m := NewMemLimit(100)
	if !m.Fits(100) || m.Fits(101) {
		t.Fatal("Fits wrong")
	}
	if err := m.Acquire(60); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 60 {
		t.Fatalf("used %d", m.Used())
	}
	if err := m.Acquire(50); err == nil {
		t.Fatal("over-acquire should fail")
	}
	m.Release(60)
	if m.Used() != 0 {
		t.Fatal("release broken")
	}
	m.Release(1000)
	if m.Used() != 0 {
		t.Fatal("release should clamp at zero")
	}
	// Unlimited variants.
	var nilLimit *MemLimit
	if !nilLimit.Fits(1 << 60) {
		t.Fatal("nil limit should be unlimited")
	}
	if err := nilLimit.Acquire(1 << 60); err != nil {
		t.Fatal(err)
	}
	unlimited := NewMemLimit(0)
	if !unlimited.Fits(1 << 60) {
		t.Fatal("zero limit should be unlimited")
	}
}

func TestCorruptFileDetected(t *testing.T) {
	s := testSchema(t)
	st := NewMemStore(s, costmodel.Zero(), nil)
	// Write a file whose size is not a record multiple by abusing the
	// backend through a raw writer of a different schema.
	tiny := record.MustSchema([]record.Attribute{{Name: "z", Kind: record.Numeric}}, 2)
	st2 := NewMemStore(tiny, costmodel.Zero(), nil)
	_ = st2
	w, _ := st.CreateWriter("d")
	w.Write(randRecords(1, 1)[0])
	w.Close()
	// Count on a good file works; mismatched schema store sees corruption.
	stBad := NewMemStore(record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "y", Kind: record.Numeric},
	}, 2), costmodel.Zero(), nil)
	wb, _ := stBad.CreateWriter("d")
	wb.Write(record.Record{Num: []float64{1, 2}, Class: 0})
	wb.Close()
	if _, err := stBad.Count("d"); err != nil {
		t.Fatal("aligned file should count fine")
	}
}

func TestAppendWriter(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			first := randRecords(100, 11)
			second := randRecords(50, 12)
			if err := st.WriteAll("d", first); err != nil {
				t.Fatal(err)
			}
			w, err := st.AppendWriter("d")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range second {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := st.ReadAll("d")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 150 {
				t.Fatalf("got %d records after append, want 150", len(got))
			}
			if got[0].Num[0] != first[0].Num[0] || got[100].Num[0] != second[0].Num[0] {
				t.Fatal("append changed order or contents")
			}
		})
	}
}

func TestAppendWriterCreatesMissing(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, err := st.AppendWriter("fresh")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(randRecords(1, 1)[0]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			n, err := st.Count("fresh")
			if err != nil || n != 1 {
				t.Fatalf("count %d err %v", n, err)
			}
		})
	}
}

// TestPagesCopyEncoded: copying a file as the encoded records ScanPages
// hands out — whole pages, or one record at a time — through
// Writer.WriteEncoded writes the same bytes with the same write operations
// as writing its records with Writer.Write.
func TestPagesCopyEncoded(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			recs := randRecords(5000, 3)
			before := st.Stats()
			if err := st.WriteAll("a", recs); err != nil {
				t.Fatal(err)
			}
			want := st.Stats().Sub(before)
			rb := st.Schema().RecordBytes()
			for _, step := range []int{0, rb} {
				before := st.Stats()
				w, err := st.CreateWriter("b")
				if err != nil {
					t.Fatal(err)
				}
				n, err := st.ScanPages("a", func(page []byte) error {
					if len(page) == 0 || len(page)%rb != 0 || len(page) > PageSize {
						t.Fatalf("page of %d bytes", len(page))
					}
					if step == 0 {
						return w.WriteEncoded(page)
					}
					for off := 0; off < len(page); off += step {
						if err := w.WriteEncoded(page[off : off+step]); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil || n != int64(len(recs)) || w.Count() != n {
					t.Fatalf("step %d: scanned %d, wrote %d records: %v", step, n, w.Count(), err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				got := st.Stats().Sub(before)
				if got.WriteOps != want.WriteOps || got.WriteBytes != want.WriteBytes {
					t.Fatalf("step %d: wrote %d ops/%d B, Write wrote %d ops/%d B", step, got.WriteOps, got.WriteBytes, want.WriteOps, want.WriteBytes)
				}
				copied, err := st.ReadAll("b")
				if err != nil {
					t.Fatal(err)
				}
				if string(record.EncodeAll(copied)) != string(record.EncodeAll(recs)) {
					t.Fatalf("step %d: copied file differs", step)
				}
			}
			w, _ := st.CreateWriter("c")
			defer w.Close()
			if err := w.WriteEncoded(make([]byte, rb+1)); err == nil {
				t.Fatal("WriteEncoded accepted a partial record")
			}
		})
	}
}
