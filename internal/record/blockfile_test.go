package record

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func v2TestDataset(t testing.TB, n int) *Dataset {
	s, err := NewSchema([]Attribute{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Categorical, Cardinality: 4},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDataset(s)
	for i := 0; i < n; i++ {
		d.Append(Record{Num: []float64{float64(i) * 0.5}, Cat: []int32{int32(i % 4)}, Class: int32(i % 3)})
	}
	return d
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 9000} { // 9000 spans three blocks
		d := v2TestDataset(t, n)
		var buf bytes.Buffer
		if err := d.WriteBinaryV2(&buf, 42); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(d.Schema, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != n {
			t.Fatalf("n=%d: read %d records", n, got.Len())
		}
		for i := range got.Records {
			if got.Records[i].Num[0] != d.Records[i].Num[0] ||
				got.Records[i].Cat[0] != d.Records[i].Cat[0] ||
				got.Records[i].Class != d.Records[i].Class {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
		}
	}
}

func TestV1StillReads(t *testing.T) {
	d := v2TestDataset(t, 500)
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(d.Schema, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("legacy v1 stream rejected: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("read %d records, want %d", got.Len(), d.Len())
	}
}

func TestSniffHeader(t *testing.T) {
	dir := t.TempDir()
	d := v2TestDataset(t, 50)

	v2 := filepath.Join(dir, "v2.bin")
	f, err := os.Create(v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinaryV2(f, 1234); err != nil {
		t.Fatal(err)
	}
	f.Close()
	hdr, ok, err := SniffHeader(v2)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if hdr.FileID != 1234 || hdr.RecordBytes != uint32(d.Schema.RecordBytes()) {
		t.Fatalf("bad header: %+v", hdr)
	}
	if hdr.CRC == 0 {
		t.Fatal("zero fingerprint")
	}

	v1 := filepath.Join(dir, "v1.bin")
	if err := d.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := SniffHeader(v1); err != nil || ok {
		t.Fatalf("v1 misidentified: ok=%v err=%v", ok, err)
	}

	// A file claiming the magic with a corrupted header must error, not
	// silently demote to v1.
	bad := filepath.Join(dir, "bad.bin")
	hb := EncodeV2Header(16, 99)
	hb[10] ^= 0x01
	if err := os.WriteFile(bad, hb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SniffHeader(bad); err == nil {
		t.Fatal("corrupted v2 header accepted")
	}
}

func TestV2FingerprintBindsIdentity(t *testing.T) {
	// Same schema and fileID → same fingerprint; different fileID →
	// different fingerprint. The fingerprint is what checkpoints bind to
	// refuse a swapped dataset.
	a := EncodeV2Header(16, 7)
	b := EncodeV2Header(16, 7)
	c := EncodeV2Header(16, 8)
	ha, err := ParseV2Header(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := ParseV2Header(b)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := ParseV2Header(c)
	if err != nil {
		t.Fatal(err)
	}
	if ha.CRC != hb.CRC {
		t.Fatal("identical headers have different fingerprints")
	}
	if ha.CRC == hc.CRC {
		t.Fatal("different fileIDs share a fingerprint")
	}
}

// TestV2EveryBitFlipPastMagicDetected: deterministic companion to
// FuzzRecordBlock — every single-bit flip at or past the magic's end must
// make ReadBinary error. (A flip inside the 8 magic bytes demotes the file
// to the unprotected legacy path by design; SniffHeader-first callers and
// the scrubber close that gap for files known to be v2.)
func TestV2EveryBitFlipPastMagicDetected(t *testing.T) {
	d := v2TestDataset(t, 40)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 11); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for bit := 8 * 8; bit < len(orig)*8; bit++ {
		bad := append([]byte(nil), orig...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := ReadBinary(d.Schema, bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d bit %d decoded without error", bit/8, bit%8)
		}
		if _, _, err := VerifyV2Stream(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d bit %d passed VerifyV2Stream", bit/8, bit%8)
		}
	}
}

func TestV2TruncationDetected(t *testing.T) {
	d := v2TestDataset(t, 40)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 11); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for _, cut := range []int{1, 7, len(orig) / 2, len(orig) - 1} {
		if _, err := ReadBinary(d.Schema, bytes.NewReader(orig[:len(orig)-cut])); err == nil {
			t.Fatalf("truncation by %d bytes decoded without error", cut)
		}
	}
}

func TestVerifyV2StreamCounts(t *testing.T) {
	d := v2TestDataset(t, 9000)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 3); err != nil {
		t.Fatal(err)
	}
	hdr, n, err := VerifyV2Stream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 9000 {
		t.Fatalf("counted %d records, want 9000", n)
	}
	if hdr.FileID != 3 {
		t.Fatalf("hdr = %+v", hdr)
	}
}

// FuzzRecordBlock: corrupt v2 bytes must never decode silently — any
// mutation past the magic either errors or leaves the bytes (and hence the
// decoded records) identical. Arbitrary garbage must never panic.
func FuzzRecordBlock(f *testing.F) {
	d := v2TestDataset(f, 300)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 77); err != nil {
		f.Fatal(err)
	}
	orig := buf.Bytes()
	f.Add([]byte{0x01}, uint32(30))
	f.Add([]byte{0xFF, 0x00, 0x80}, uint32(100))
	f.Add([]byte(V2Magic), uint32(0))
	// A whole file of five small blocks, the last one short: the loader's
	// workers take them in parallel.
	multi := EncodeV2Header(uint32(d.Schema.RecordBytes()), 78)
	for k := range 5 {
		multi = EncodeV2Block(multi, EncodeAll(d.Records[10*k:10*k+10-k/4*3]))
	}
	if ds, err := ReadBinary(d.Schema, bytes.NewReader(multi)); err != nil || ds.Len() != 47 {
		f.Fatalf("multi-block seed: %v", err)
	}
	f.Add(multi, uint32(0))
	f.Fuzz(func(t *testing.T, mutation []byte, off uint32) {
		// Arbitrary bytes as a whole file: error or success, never panic.
		if ds, err := ReadBinary(d.Schema, bytes.NewReader(mutation)); err == nil {
			_ = ds.Len()
		}
		if len(mutation) == 0 {
			return
		}
		// XOR the mutation into a copy, at offsets past the magic.
		bad := append([]byte(nil), orig...)
		span := len(bad) - len(V2Magic)
		for i, m := range mutation {
			bad[len(V2Magic)+(int(off)+i)%span] ^= m
		}
		if bytes.Equal(bad, orig) {
			return // no-op mutation (all-zero XOR)
		}
		if _, err := ReadBinary(d.Schema, bytes.NewReader(bad)); err == nil {
			t.Fatalf("mutated v2 file decoded without error (off=%d len=%d)", off, len(mutation))
		}
	})
}
