package record

import "testing"

func featSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema([]Attribute{
		{Name: "a", Kind: Numeric},
		{Name: "c", Kind: Categorical, Cardinality: 4},
		{Name: "b", Kind: Numeric},
	}, 3)
}

func TestFeatureBytes(t *testing.T) {
	s := featSchema(t)
	if got, want := s.FeatureBytes(), 8*2+4*1; got != want {
		t.Fatalf("FeatureBytes = %d, want %d", got, want)
	}
	if s.FeatureBytes() != s.RecordBytes()-4 {
		t.Fatal("FeatureBytes must be RecordBytes minus the class label")
	}
}

func TestFeatureRowRoundTrip(t *testing.T) {
	s := featSchema(t)
	in := Record{Num: []float64{1.5, -2.25}, Cat: []int32{3}, Class: 2}
	row := in.EncodeFeatures(nil)
	if len(row) != s.FeatureBytes() {
		t.Fatalf("encoded %d bytes, want %d", len(row), s.FeatureBytes())
	}
	var out Record
	n, err := out.DecodeFeatures(s, row)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(row) {
		t.Fatalf("consumed %d bytes, want %d", n, len(row))
	}
	if out.Num[0] != 1.5 || out.Num[1] != -2.25 || out.Cat[0] != 3 {
		t.Fatalf("values lost: %+v", out)
	}
	if out.Class != 0 {
		t.Fatalf("feature rows carry no class; got %d", out.Class)
	}
}

func TestFeatureRowMatchesRecordPrefix(t *testing.T) {
	in := Record{Num: []float64{4, 5}, Cat: []int32{1}, Class: 2}
	full := in.Encode(nil)
	feat := in.EncodeFeatures(nil)
	if string(full[:len(feat)]) != string(feat) {
		t.Fatal("feature row is not a prefix of the full record encoding")
	}
}

func TestDecodeAllFeatures(t *testing.T) {
	s := featSchema(t)
	recs := []Record{
		{Num: []float64{1, 2}, Cat: []int32{0}},
		{Num: []float64{3, 4}, Cat: []int32{2}},
	}
	var buf []byte
	for _, r := range recs {
		buf = r.EncodeFeatures(buf)
	}
	got, err := DecodeAllFeatures(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Num[0] != 3 || got[1].Cat[0] != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if _, err := DecodeAllFeatures(s, buf[:len(buf)-1]); err == nil {
		t.Fatal("ragged buffer accepted")
	}
}

// TestFeatureRowsReuse: decoding into storage that held a longer request
// gives exactly what a fresh decode gives — no row of the earlier request
// survives — and, once the storage is large enough, allocates nothing.
func TestFeatureRowsReuse(t *testing.T) {
	d := decodeTestDataset(300)
	s := d.Schema
	var long, short []byte
	for i, r := range d.Records {
		long = r.EncodeFeatures(long)
		if i < 7 {
			short = r.EncodeFeatures(short)
		}
	}
	var f FeatureRows
	if err := f.Decode(s, long); err != nil {
		t.Fatal(err)
	}
	want, err := DecodeAllFeatures(s, long)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "first decode", f.Recs, want)
	if err := f.Decode(s, short); err != nil {
		t.Fatal(err)
	}
	if want, err = DecodeAllFeatures(s, short); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "shorter decode into reused rows", f.Recs, want)
	if err := f.Decode(s, short[:len(short)-1]); err == nil {
		t.Fatal("ragged buffer accepted")
	}
	if allocs := testing.AllocsPerRun(20, func() { f.Decode(s, long) }); allocs != 0 { //nolint:errcheck // checked above
		t.Fatalf("steady-state Decode allocates %.0f objects", allocs)
	}
}
