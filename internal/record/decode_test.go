package record

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func decodeTestDataset(n int) *Dataset {
	s := MustSchema([]Attribute{
		{Name: "c0", Kind: Categorical, Cardinality: 5},
		{Name: "x", Kind: Numeric},
		{Name: "c1", Kind: Categorical, Cardinality: 3},
		{Name: "y", Kind: Numeric},
	}, 4)
	rng := rand.New(rand.NewSource(int64(n)))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	d := NewDataset(s)
	for i := 0; i < n; i++ {
		r := Record{Num: []float64{rng.NormFloat64(), rng.NormFloat64()}, Cat: []int32{int32(rng.Intn(5)), int32(rng.Intn(3))}, Class: int32(rng.Intn(4))}
		if i%97 == 0 {
			r.Num[i%2] = special[i%len(special)]
		}
		d.Append(r)
	}
	return d
}

// sameRecords compares bit for bit (NaN equals NaN) and nil-ness of slices.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		ok := g.Class == w.Class && len(g.Num) == len(w.Num) && len(g.Cat) == len(w.Cat) &&
			(g.Num == nil) == (w.Num == nil) && (g.Cat == nil) == (w.Cat == nil)
		for j := 0; ok && j < len(w.Num); j++ {
			ok = math.Float64bits(g.Num[j]) == math.Float64bits(w.Num[j])
		}
		for j := 0; ok && j < len(w.Cat); j++ {
			ok = g.Cat[j] == w.Cat[j]
		}
		if !ok {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestBlockDecodersMatchPerRowDecode: every bulk decoder returns exactly
// what Record.Decode (or DecodeFeatures) gives row by row, at sizes around
// the v2 block and v1 chunk boundaries.
func TestBlockDecodersMatchPerRowDecode(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 500_001} {
		if n > 5000 && testing.Short() {
			continue
		}
		d := decodeTestDataset(n)
		s := d.Schema
		enc := EncodeAll(d.Records)
		var feat []byte
		for _, r := range d.Records {
			feat = r.EncodeFeatures(feat)
		}
		want := make([]Record, n)
		wantFeat := make([]Record, n)
		for i := range want {
			if _, err := want[i].Decode(s, enc[i*s.RecordBytes():]); err != nil {
				t.Fatal(err)
			}
			if _, err := wantFeat[i].DecodeFeatures(s, feat[i*s.FeatureBytes():]); err != nil {
				t.Fatal(err)
			}
		}

		got, err := DecodeAll(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "DecodeAll", got, want)
		if got, err = DecodeAllFeatures(s, feat); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "DecodeAllFeatures", got, wantFeat)

		v1, err := ReadBinary(s, bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "v1 ReadBinary", v1.Records, want)

		path := filepath.Join(t.TempDir(), "v2.bin")
		if err := writeV2(d, path); err != nil {
			t.Fatal(err)
		}
		v2, err := LoadFile(s, path)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "v2 LoadFile", v2.Records, want)
	}
}

func writeV2(d *Dataset, path string) error {
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 5); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestBlockDecodedRecordsDoNotAlias: records decoded from one block share
// backing arrays, but an append to one record, or a write through its
// slices, never reaches its neighbours.
func TestBlockDecodedRecordsDoNotAlias(t *testing.T) {
	d := decodeTestDataset(3)
	s := d.Schema
	enc := EncodeAll(d.Records)
	var feat []byte
	for _, r := range d.Records {
		feat = r.EncodeFeatures(feat)
	}
	path := filepath.Join(t.TempDir(), "v2.bin")
	if err := writeV2(d, path); err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func() ([]Record, error){
		"DecodeAll":         func() ([]Record, error) { return DecodeAll(s, enc) },
		"DecodeAllFeatures": func() ([]Record, error) { return DecodeAllFeatures(s, feat) },
		"v1 ReadBinary": func() ([]Record, error) {
			ds, err := ReadBinary(s, bytes.NewReader(enc))
			if err != nil {
				return nil, err
			}
			return ds.Records, nil
		},
		"v2 LoadFile": func() ([]Record, error) {
			ds, err := LoadFile(s, path)
			if err != nil {
				return nil, err
			}
			return ds.Records, nil
		},
	}
	for name, decode := range decoders {
		recs, err := decode()
		if err != nil {
			t.Fatal(err)
		}
		before := []Record{recs[0].Clone(), recs[2].Clone()}
		for _, r := range recs {
			if cap(r.Num) != len(r.Num) || cap(r.Cat) != len(r.Cat) {
				t.Fatalf("%s: record slices have spare capacity: num %d/%d cat %d/%d", name, len(r.Num), cap(r.Num), len(r.Cat), cap(r.Cat))
			}
		}
		recs[1].Num = append(recs[1].Num, 42, 43)
		recs[1].Cat = append(recs[1].Cat, 7, 8)
		recs[1].Num[0], recs[1].Cat[0] = -1, -1
		sameRecords(t, name+" neighbours", []Record{recs[0], recs[2]}, before)
	}
}

// TestV2FlippedPayloadBitFailsItsBlock: a flipped payload bit in a later
// block fails that block's checksum with the verifier's error, and no
// records are returned.
func TestV2FlippedPayloadBitFailsItsBlock(t *testing.T) {
	d := decodeTestDataset(3 * v2BlockRecords)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 9); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	blockLen := V2BlockHeaderSize + v2BlockRecords*d.Schema.RecordBytes()
	hdr := b[V2HeaderSize+blockLen : V2HeaderSize+blockLen+V2BlockHeaderSize]
	payload := b[V2HeaderSize+blockLen+V2BlockHeaderSize : V2HeaderSize+2*blockLen]
	payload[100] ^= 0x10
	want := "record: v2 block 1: " + VerifyV2Block(hdr, payload).Error()
	if binary.LittleEndian.Uint32(hdr) != uint32(len(payload)) {
		t.Fatal("block framing assumption broken")
	}
	path := filepath.Join(t.TempDir(), "flipped.bin")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadFile(d.Schema, path)
	if err == nil || err.Error() != want || ds != nil {
		t.Fatalf("LoadFile = %v, %v; want no records and %q", ds, err, want)
	}
}
