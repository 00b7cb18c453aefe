package ooc

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"pclouds/internal/costmodel"
	"pclouds/internal/record"
)

// pipelineStores returns a synchronous and a pipelined store over the same
// backend kind, for parity checks.
func pipelineStores(t *testing.T, depth int) (sync, async *Store) {
	t.Helper()
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	sync = NewMemStore(schema, costmodel.Default(), costmodel.NewClock())
	async = NewMemStore(schema, costmodel.Default(), costmodel.NewClock())
	async.SetPipeline(Pipeline{Enabled: true, Depth: depth})
	return sync, async
}

// TestPipelineParity verifies the tentpole invariant: with the pipeline on,
// a write-then-scan round trip yields the same records, the same IOStats
// page counts and per-op sizes, and the same simulated clock as the
// synchronous path.
func TestPipelineParity(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5000, 60000} {
		sync, async := pipelineStores(t, 3)
		recs := manyRecords(n)
		if err := sync.WriteAll("d", recs); err != nil {
			t.Fatal(err)
		}
		if err := async.WriteAll("d", recs); err != nil {
			t.Fatal(err)
		}
		a, b := sync.Stats(), async.Stats()
		if a.WriteOps != b.WriteOps || a.WriteBytes != b.WriteBytes {
			t.Fatalf("n=%d: write stats diverge: sync %v async %v", n, a, b)
		}
		got, err := async.ReadAll("d")
		if err != nil {
			t.Fatal(err)
		}
		want, err := sync.ReadAll("d")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: read %d records, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Num[0] != want[i].Num[0] || got[i].Class != want[i].Class {
				t.Fatalf("n=%d: record %d diverges: %v vs %v", n, i, got[i], want[i])
			}
		}
		a, b = sync.Stats(), async.Stats()
		if a.ReadOps != b.ReadOps || a.ReadBytes != b.ReadBytes {
			t.Fatalf("n=%d: read stats diverge: sync %v async %v", n, a, b)
		}
		if sc, ac := sync.Clock().Time(), async.Clock().Time(); sc != ac {
			t.Fatalf("n=%d: simulated clocks diverge: sync %v async %v", n, sc, ac)
		}
	}
}

// TestPipelineFileBackendParity repeats the parity check on real files.
func TestPipelineFileBackendParity(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	sync, err := NewFileStore(schema, t.TempDir(), costmodel.Default(), costmodel.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	async, err := NewFileStore(schema, t.TempDir(), costmodel.Default(), costmodel.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	async.SetPipeline(Pipeline{Enabled: true, Depth: 4})
	recs := manyRecords(50000)
	if err := sync.WriteAll("d", recs); err != nil {
		t.Fatal(err)
	}
	if err := async.WriteAll("d", recs); err != nil {
		t.Fatal(err)
	}
	got, err := async.ReadAll("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	if _, err := sync.ReadAll("d"); err != nil {
		t.Fatal(err)
	}
	a, b := sync.Stats(), async.Stats()
	if a.ReadOps != b.ReadOps || a.ReadBytes != b.ReadBytes ||
		a.WriteOps != b.WriteOps || a.WriteBytes != b.WriteBytes {
		t.Fatalf("stats diverge: sync %v async %v", a, b)
	}
}

// TestWriteBehindErrorSurfaces checks that a background write failure is
// not dropped: it poisons the stream and surfaces on a later Write, Flush
// or Close — whichever the caller reaches first.
func TestWriteBehindErrorSurfaces(t *testing.T) {
	st := faultStore(t, 1, 0)
	st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
	err := st.WriteAll("d", manyRecords(200000))
	if err == nil {
		t.Fatal("background write failure not propagated")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestWriteBehindErrorSurfacesOnFlush drives the failure through the
// explicit Flush barrier rather than a later page hand-off.
func TestWriteBehindErrorSurfacesOnFlush(t *testing.T) {
	st := faultStore(t, 1, 0)
	st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
	w, err := st.CreateWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	// One page's worth hands off to the background writer, which fails.
	for _, r := range manyRecords(6000) {
		if err := w.Write(r); err != nil {
			break // sticky error may already surface on a hand-off
		}
	}
	err = w.Flush()
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err == nil {
		t.Fatal("flush barrier did not surface the background write error")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestWriteBehindErrorSurfacesOnClose leaves the failure to the final
// barrier: a partial page whose write fails must fail Close.
func TestWriteBehindErrorSurfacesOnClose(t *testing.T) {
	st := faultStore(t, 1, 0)
	st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
	w, err := st.CreateWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(manyRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("close-time background write failure not propagated")
	}
}

// TestFlushBarrierPersists checks Flush is a real barrier: once it returns,
// every record written so far is on the backend (visible to size/Count).
func TestFlushBarrierPersists(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	st, err := NewFileStore(schema, t.TempDir(), costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st.SetPipeline(Pipeline{Enabled: true, Depth: 4})
	w, err := st.CreateWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	recs := manyRecords(12345)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count("d")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("after Flush barrier, %d records on disk, want %d", n, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFailurePropagatesPipelined mirrors TestReadFailurePropagates with
// the prefetcher active: the background reader's error must reach Next.
func TestReadFailurePropagatesPipelined(t *testing.T) {
	st := faultStore(t, 0, 2)
	if err := st.WriteAll("d", manyRecords(20000)); err != nil {
		t.Fatal(err)
	}
	st.SetPipeline(Pipeline{Enabled: true, Depth: 4})
	_, err := st.ReadAll("d")
	if err == nil {
		t.Fatal("read failure not propagated through prefetcher")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestPrefetchCancelNoGoroutineLeak abandons scans mid-stream and asserts
// the prefetch goroutines exit (Close is the cancellation point).
func TestPrefetchCancelNoGoroutineLeak(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	st := NewMemStore(schema, costmodel.Zero(), nil)
	st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
	// Multi-page file so the prefetcher is still mid-stream when abandoned.
	if err := st.WriteAll("d", manyRecords(60000)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		r, err := st.OpenReader("d")
		if err != nil {
			t.Fatal(err)
		}
		var rec record.Record
		if _, err := r.Next(&rec); err != nil { // consume a little, then abandon
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the goroutine to stop, so the count should be back
	// immediately; poll briefly to absorb unrelated runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after abandoning scans", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineTrailingGarbage keeps the corruption diagnostics intact under
// the prefetcher: a partial trailing record still errors after the intact
// records were delivered.
func TestPipelineTrailingGarbage(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	mb := newMemBackend()
	st := &Store{schema: schema, params: costmodel.Zero(), b: mb}
	if err := st.WriteAll("d", manyRecords(3)); err != nil {
		t.Fatal(err)
	}
	mb.mu.Lock()
	mb.files["d"] = append(mb.files["d"], 0xAA, 0xBB, 0xCC)
	mb.mu.Unlock()
	st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
	r, err := st.OpenReader("d")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rec record.Record
	var count int
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			if count != 3 {
				t.Fatalf("read %d records before corruption error, want 3", count)
			}
			return
		}
		if !ok {
			t.Fatal("trailing garbage silently ignored by prefetcher")
		}
		count++
		if count > 3 {
			t.Fatal("read more records than written")
		}
	}
}

// TestObserverMayCallBackIntoStore locks in the relaxed SetObserver
// contract: the callback runs outside the stats lock, so reading Stats from
// inside it must not deadlock.
func TestObserverMayCallBackIntoStore(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	st := NewMemStore(schema, costmodel.Zero(), nil)
	var calls int
	st.SetObserver(func(write bool, bytes int64) {
		_ = st.Stats() // would deadlock if invoked under statsMu
		calls++
	})
	if err := st.WriteAll("d", manyRecords(10000)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadAll("d"); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("observer never invoked")
	}
}

// TestPrefetchPageParityRecordWidths: a pipelined reader hands out the
// same NextPage windows as the synchronous reader, whether the record
// width divides PageSize (every prefetched page becomes the window) or
// not (a partial record is carried and pages are copied in behind it).
func TestPrefetchPageParityRecordWidths(t *testing.T) {
	for _, attrs := range [][]record.Attribute{
		{{Name: "x", Kind: record.Numeric}, {Name: "y", Kind: record.Numeric}},                     // 20 B
		{{Name: "x", Kind: record.Numeric}, {Name: "c", Kind: record.Categorical, Cardinality: 5}}, // 16 B
	} {
		schema := record.MustSchema(attrs, 2)
		rb := schema.RecordBytes()
		sync := NewMemStore(schema, costmodel.Default(), costmodel.NewClock())
		async := NewMemStore(schema, costmodel.Default(), costmodel.NewClock())
		async.SetPipeline(Pipeline{Enabled: true, Depth: 2})
		recs := make([]record.Record, 7*PageSize/(2*rb)+3) // three and a half pages and a bit
		for i := range recs {
			recs[i] = record.Record{Num: []float64{float64(i)}, Class: int32(i % 2)}
			if schema.NumNumeric() == 2 {
				recs[i].Num = append(recs[i].Num, -float64(i))
			} else {
				recs[i].Cat = []int32{int32(i % 5)}
			}
		}
		for _, st := range []*Store{sync, async} {
			if err := st.WriteAll("d", recs); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := sync.OpenReader("d")
		if err != nil {
			t.Fatal(err)
		}
		ra, err := async.OpenReader("d")
		if err != nil {
			t.Fatal(err)
		}
		for page := 0; ; page++ {
			want, err := rs.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ra.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte records, page %d: pipelined %d bytes, synchronous %d, or their contents differ", rb, page, len(got), len(want))
			}
			if len(want) == 0 {
				break
			}
		}
		rs.Close()
		ra.Close()
		if a, b := sync.Stats(), async.Stats(); a.ReadOps != b.ReadOps || a.ReadBytes != b.ReadBytes {
			t.Fatalf("%d-byte records: read stats diverge: sync %v async %v", rb, a, b)
		}
	}
}
