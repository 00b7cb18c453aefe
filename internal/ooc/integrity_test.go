package ooc

import (
	"errors"
	"io"
	"sync"
	"testing"

	"pclouds/internal/costmodel"
	"pclouds/internal/durable"
	"pclouds/internal/record"
)

func integrityStore(t *testing.T, pipeline bool) (*Store, *memBackend) {
	t.Helper()
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	mb := newMemBackend()
	st := &Store{schema: schema, params: costmodel.Zero(), b: mb}
	if pipeline {
		st.SetPipeline(Pipeline{Enabled: true})
	}
	st.EnableIntegrity(IntegrityOptions{Retries: -1, Backoff: -1})
	return st, mb
}

func TestIntegrityRoundTrip(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		st, _ := integrityStore(t, pipeline)
		// Enough records to span several frames.
		want := manyRecords(20000)
		if err := st.WriteAll("d", want); err != nil {
			t.Fatalf("pipeline=%v: %v", pipeline, err)
		}
		n, err := st.Count("d")
		if err != nil {
			t.Fatalf("pipeline=%v: Count: %v", pipeline, err)
		}
		if n != int64(len(want)) {
			t.Fatalf("pipeline=%v: Count = %d, want %d", pipeline, n, len(want))
		}
		got, err := st.ReadAll("d")
		if err != nil {
			t.Fatalf("pipeline=%v: ReadAll: %v", pipeline, err)
		}
		if len(got) != len(want) {
			t.Fatalf("pipeline=%v: read %d records, want %d", pipeline, len(got), len(want))
		}
		for i := range got {
			if got[i].Num[0] != want[i].Num[0] || got[i].Class != want[i].Class {
				t.Fatalf("pipeline=%v: record %d mismatch", pipeline, i)
			}
		}
		is := st.Integrity().Stats()
		if is.FramesWritten == 0 || is.FramesRead == 0 {
			t.Fatalf("pipeline=%v: no frames counted: %+v", pipeline, is)
		}
		if is.Corruptions != 0 {
			t.Fatalf("pipeline=%v: spurious corruption: %+v", pipeline, is)
		}
	}
}

func TestIntegrityAppendContinuesSequence(t *testing.T) {
	st, mb := integrityStore(t, false)
	recs := manyRecords(10)
	if err := st.WriteAll("d", recs[:4]); err != nil {
		t.Fatal(err)
	}
	w, err := st.AppendWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[4:] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A cold scan must accept the multi-session file as one frame stream.
	mb.mu.Lock()
	raw := append([]byte(nil), mb.files["d"]...)
	mb.mu.Unlock()
	logical, frames, err := VerifyFrames("d", readerOf(raw))
	if err != nil {
		t.Fatalf("appended file fails verification: %v", err)
	}
	if frames != 2 {
		t.Fatalf("frames = %d, want 2", frames)
	}
	rb := int64(st.Schema().RecordBytes())
	if logical != rb*int64(len(recs)) {
		t.Fatalf("logical = %d, want %d", logical, rb*int64(len(recs)))
	}
	got, err := st.ReadAll("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
}

func readerOf(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestIntegrityEveryBitFlipDetected is the property test demanded by the
// integrity design: for EVERY single-bit flip of a framed file — header
// bytes, payload bytes, across two frames — reading the file back must
// fail with a corruption error, never silently succeed.
func TestIntegrityEveryBitFlipDetected(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	mb := newMemBackend()
	st := &Store{schema: schema, params: costmodel.Zero(), b: mb}
	st.EnableIntegrity(IntegrityOptions{Retries: -1, Backoff: -1})
	recs := manyRecords(7)
	// Two write sessions → two frames, so sequence bytes are exercised too.
	if err := st.WriteAll("d", recs[:3]); err != nil {
		t.Fatal(err)
	}
	w, err := st.AppendWriter("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[3:] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mb.mu.Lock()
	orig := append([]byte(nil), mb.files["d"]...)
	mb.mu.Unlock()
	if len(orig) == 0 {
		t.Fatal("no bytes written")
	}
	for bit := 0; bit < len(orig)*8; bit++ {
		bad := append([]byte(nil), orig...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := VerifyFrames("d", readerOf(bad)); err == nil {
			t.Fatalf("bit flip at byte %d bit %d not detected by scan", bit/8, bit%8)
		}
		// And through the streaming read path, cold cache.
		inner := newMemBackend()
		inner.files["d"] = bad
		vb := NewVerifyingBackend(inner, IntegrityOptions{Retries: -1, Backoff: -1})
		rc, err := vb.Open("d")
		if err != nil {
			continue // refusing to open is detection too
		}
		_, rerr := io.ReadAll(rc)
		rc.Close()
		if rerr == nil {
			t.Fatalf("bit flip at byte %d bit %d read back without error", bit/8, bit%8)
		}
		if !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d bit %d: error not ErrCorrupt: %v", bit/8, bit%8, rerr)
		}
	}
}

func TestIntegrityTruncationDetected(t *testing.T) {
	st, mb := integrityStore(t, false)
	if err := st.WriteAll("d", manyRecords(5)); err != nil {
		t.Fatal(err)
	}
	mb.mu.Lock()
	mb.files["d"] = mb.files["d"][:len(mb.files["d"])-3]
	mb.mu.Unlock()
	inner := newMemBackend()
	mb.mu.Lock()
	inner.files["d"] = mb.files["d"]
	mb.mu.Unlock()
	vb := NewVerifyingBackend(inner, IntegrityOptions{Retries: -1, Backoff: -1})
	if _, err := vb.Size("d"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation not detected by Size: %v", err)
	}
}

func TestIntegrityCorruptionErrorAttribution(t *testing.T) {
	st, mb := integrityStore(t, false)
	if err := st.WriteAll("d", manyRecords(4)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit well past the header.
	mb.mu.Lock()
	mb.files["d"][FrameHeaderSize+5] ^= 0x10
	mb.mu.Unlock()
	inner := newMemBackend()
	mb.mu.Lock()
	inner.files["d"] = mb.files["d"]
	mb.mu.Unlock()
	vb := NewVerifyingBackend(inner, IntegrityOptions{Retries: -1, Backoff: -1})
	rc, err := vb.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, rerr := io.ReadAll(rc)
	var ce *CorruptionError
	if !errors.As(rerr, &ce) {
		t.Fatalf("error is not a *CorruptionError: %v", rerr)
	}
	if ce.File != "d" || ce.Offset != 0 || ce.Seq != 0 {
		t.Fatalf("wrong attribution: %+v", ce)
	}
	if ce.WantCRC == ce.GotCRC {
		t.Fatalf("checksum attribution missing: %+v", ce)
	}
	if vb.Stats().Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
}

// flakyOpenBackend delivers corrupted read streams for the first badOpens
// Opens, then clean ones — a transient medium error the retry ladder must
// absorb.
type flakyOpenBackend struct {
	Backend
	mu       sync.Mutex
	badOpens int
}

func (f *flakyOpenBackend) Open(name string) (io.ReadCloser, error) {
	rc, err := f.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	bad := f.badOpens > 0
	if bad {
		f.badOpens--
	}
	f.mu.Unlock()
	if !bad {
		return rc, nil
	}
	return &flippingReader{inner: rc}, nil
}

type flippingReader struct {
	inner   io.ReadCloser
	flipped bool
}

func (r *flippingReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	if n > 0 && !r.flipped {
		p[n-1] ^= 0x80
		r.flipped = true
	}
	return n, err
}

func (r *flippingReader) Close() error { return r.inner.Close() }

func TestIntegrityRetryRecoversTransient(t *testing.T) {
	mb := newMemBackend()
	flaky := &flakyOpenBackend{Backend: mb}
	vb := NewVerifyingBackend(flaky, IntegrityOptions{Retries: 2, Backoff: -1})
	wc, err := vb.Create("d")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := wc.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	flaky.mu.Lock()
	flaky.badOpens = 1
	flaky.mu.Unlock()
	rc, err := vb.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("transient corruption not absorbed by retry: %v", err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted after retry", i)
		}
	}
	is := vb.Stats()
	if is.Retries == 0 {
		t.Fatal("retry not counted")
	}
	if is.Corruptions != 0 {
		t.Fatalf("transient error counted as corruption: %+v", is)
	}
}

func TestIntegrityPersistentCorruptionExhaustsRetries(t *testing.T) {
	mb := newMemBackend()
	vb := NewVerifyingBackend(mb, IntegrityOptions{Retries: 2, Backoff: -1})
	wc, err := vb.Create("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write([]byte("hello integrity layer")); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	mb.mu.Lock()
	mb.files["d"][FrameHeaderSize] ^= 0x01
	mb.mu.Unlock()
	rc, err := vb.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("persistent corruption not surfaced: %v", err)
	}
	is := vb.Stats()
	if is.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", is.Retries)
	}
	if is.Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestQuarantine(t *testing.T) {
	st, _ := integrityStore(t, false)
	if err := st.WriteAll("d", manyRecords(3)); err != nil {
		t.Fatal(err)
	}
	q, err := st.Quarantine("d")
	if err != nil {
		t.Fatal(err)
	}
	if q != durable.QuarantineName("d") || durable.Live(q) {
		t.Fatalf("quarantined name %q", q)
	}
	if _, err := st.OpenReader("d"); err == nil {
		t.Fatal("quarantined file still opens under live name")
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == q {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantined file missing from listing: %v", names)
	}
}

func TestIntegrityLogicalSizeUnderFraming(t *testing.T) {
	// Logical sizes must be framing-independent: Count sees records, not
	// frame headers, even when payloads span many frames.
	st, mb := integrityStore(t, false)
	recs := manyRecords(30000) // several PageSize frames
	if err := st.WriteAll("d", recs); err != nil {
		t.Fatal(err)
	}
	rb := int64(st.Schema().RecordBytes())
	logical := rb * int64(len(recs))
	mb.mu.Lock()
	physical := int64(len(mb.files["d"]))
	mb.mu.Unlock()
	if physical <= logical {
		t.Fatalf("physical %d not larger than logical %d — frames missing?", physical, logical)
	}
	n, err := st.Count("d")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", n, len(recs))
	}
}
