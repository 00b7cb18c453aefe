package record

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Categorical, Cardinality: 4},
		{Name: "c", Kind: Numeric},
		{Name: "d", Kind: Categorical, Cardinality: 7},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name    string
		attrs   []Attribute
		classes int
	}{
		{"no attrs", nil, 2},
		{"one class", []Attribute{{Name: "a", Kind: Numeric}}, 1},
		{"empty name", []Attribute{{Name: "", Kind: Numeric}}, 2},
		{"dup name", []Attribute{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}, 2},
		{"cat card 1", []Attribute{{Name: "a", Kind: Categorical, Cardinality: 1}}, 2},
		{"bad kind", []Attribute{{Name: "a", Kind: Kind(9)}}, 2},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.attrs, tc.classes); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSchemaIndices(t *testing.T) {
	s := testSchema(t)
	if s.NumNumeric() != 2 || s.NumCategorical() != 2 {
		t.Fatalf("counts: %d numeric, %d categorical", s.NumNumeric(), s.NumCategorical())
	}
	if got := s.NumericIndices(); got[0] != 0 || got[1] != 2 {
		t.Fatalf("numeric indices %v", got)
	}
	if got := s.CategoricalIndices(); got[0] != 1 || got[1] != 3 {
		t.Fatalf("categorical indices %v", got)
	}
	if s.NumericPos(2) != 1 || s.NumericPos(1) != -1 {
		t.Fatal("NumericPos wrong")
	}
	if s.CategoricalPos(3) != 1 || s.CategoricalPos(0) != -1 {
		t.Fatal("CategoricalPos wrong")
	}
	if s.RecordBytes() != 8*2+4*2+4 {
		t.Fatalf("record bytes %d", s.RecordBytes())
	}
	if !strings.Contains(s.String(), "numeric") {
		t.Fatal("String() misses kinds")
	}
}

func TestRecordValidate(t *testing.T) {
	s := testSchema(t)
	good := Record{Num: []float64{1, 2}, Cat: []int32{0, 6}, Class: 2}
	if err := good.Validate(s); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		{Num: []float64{1}, Cat: []int32{0, 0}, Class: 0},     // short numeric
		{Num: []float64{1, 2}, Cat: []int32{0}, Class: 0},     // short categorical
		{Num: []float64{1, 2}, Cat: []int32{0, 0}, Class: 3},  // class range
		{Num: []float64{1, 2}, Cat: []int32{4, 0}, Class: 0},  // cat range
		{Num: []float64{1, 2}, Cat: []int32{0, -1}, Class: 0}, // negative cat
		{Num: []float64{1, 2}, Cat: []int32{0, 0}, Class: -1}, // negative class
	}
	for i, r := range bad {
		if err := r.Validate(s); err == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := Record{
			Num:   []float64{rng.NormFloat64() * 1e6, rng.Float64()},
			Cat:   []int32{int32(rng.Intn(4)), int32(rng.Intn(7))},
			Class: int32(rng.Intn(3)),
		}
		buf := r.Encode(nil)
		if len(buf) != s.RecordBytes() {
			t.Fatalf("encoded %d bytes, want %d", len(buf), s.RecordBytes())
		}
		var got Record
		n, err := got.Decode(s, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if got.Class != r.Class || got.Num[0] != r.Num[0] || got.Num[1] != r.Num[1] ||
			got.Cat[0] != r.Cat[0] || got.Cat[1] != r.Cat[1] {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, r)
		}
	}
}

func TestEncodeSpecialFloats(t *testing.T) {
	s := testSchema(t)
	r := Record{Num: []float64{math.Inf(1), math.Copysign(0, -1)}, Cat: []int32{0, 0}, Class: 0}
	var got Record
	if _, err := got.Decode(s, r.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Num[0], 1) || math.Signbit(got.Num[1]) != true {
		t.Fatalf("special floats mangled: %v", got.Num)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	s := testSchema(t)
	var r Record
	if _, err := r.Decode(s, make([]byte, 3)); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestEncodeDecodeAll(t *testing.T) {
	s := testSchema(t)
	recs := []Record{
		{Num: []float64{1, 2}, Cat: []int32{1, 2}, Class: 0},
		{Num: []float64{3, 4}, Cat: []int32{3, 6}, Class: 2},
	}
	buf := EncodeAll(recs)
	got, err := DecodeAll(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Num[1] != 4 || got[1].Class != 2 {
		t.Fatalf("DecodeAll mismatch: %+v", got)
	}
	if _, err := DecodeAll(s, buf[:len(buf)-1]); err == nil {
		t.Fatal("misaligned buffer should fail")
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	f := func(a, c float64, b, d uint8, cls uint8) bool {
		r := Record{
			Num:   []float64{a, c},
			Cat:   []int32{int32(b % 4), int32(d % 7)},
			Class: int32(cls % 3),
		}
		var got Record
		if _, err := got.Decode(s, r.Encode(nil)); err != nil {
			return false
		}
		sameF := func(x, y float64) bool {
			return x == y || (math.IsNaN(x) && math.IsNaN(y))
		}
		return sameF(got.Num[0], r.Num[0]) && sameF(got.Num[1], r.Num[1]) &&
			got.Cat[0] == r.Cat[0] && got.Cat[1] == r.Cat[1] && got.Class == r.Class
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetBinaryRoundTrip(t *testing.T) {
	s := testSchema(t)
	d := NewDataset(s)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		d.Append(Record{
			Num:   []float64{rng.Float64(), rng.Float64()},
			Cat:   []int32{int32(rng.Intn(4)), int32(rng.Intn(7))},
			Class: int32(rng.Intn(3)),
		})
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("got %d records, want %d", got.Len(), d.Len())
	}
	for i := range d.Records {
		if got.Records[i].Class != d.Records[i].Class || got.Records[i].Num[0] != d.Records[i].Num[0] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	d := NewDataset(s)
	d.Append(
		Record{Num: []float64{1.5, -2.25}, Cat: []int32{0, 3}, Class: 1},
		Record{Num: []float64{0, 1e10}, Cat: []int32{3, 6}, Class: 2},
	)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Records[0].Num[1] != -2.25 || got.Records[1].Cat[1] != 6 {
		t.Fatalf("CSV roundtrip mismatch: %+v", got.Records)
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"",               // empty
		"h\n1,2,3\n",     // wrong field count
		"h\nx,0,1,0,0\n", // bad numeric
		"h\n1,z,1,0,0\n", // bad categorical
		"h\n1,0,1,0,9\n", // class out of range
		"h\n1,9,1,0,0\n", // categorical out of range
	}
	for i, in := range cases {
		if _, err := ReadCSV(s, strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestClassCounts(t *testing.T) {
	s := testSchema(t)
	d := NewDataset(s)
	for i := 0; i < 9; i++ {
		d.Append(Record{Num: []float64{0, 0}, Cat: []int32{0, 0}, Class: int32(i % 3)})
	}
	counts := d.ClassCounts()
	if counts[0] != 3 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts %v", counts)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := SampleRows(100, 30, rng)
	if len(got) != 30 {
		t.Fatalf("sampled %d", len(got))
	}
	seen := map[int]bool{}
	for _, r := range got {
		if r < 0 || r >= 100 || seen[r] {
			t.Fatalf("row %d out of range or drawn twice", r)
		}
		seen[r] = true
	}
	// Oversampling draws every row.
	all := SampleRows(100, 500, rng)
	slices.Sort(all)
	for i, r := range all {
		if r != i {
			t.Fatalf("oversample drew %v", all)
		}
	}
}

func TestSplitFractions(t *testing.T) {
	s := testSchema(t)
	d := NewDataset(s)
	for i := 0; i < 10; i++ {
		d.Append(Record{Num: []float64{0, 0}, Cat: []int32{0, 0}, Class: 0})
	}
	a, b := d.Split(0.7)
	if a.Len() != 7 || b.Len() != 3 {
		t.Fatalf("split %d/%d", a.Len(), b.Len())
	}
	a, b = d.Split(-1)
	if a.Len() != 0 || b.Len() != 10 {
		t.Fatal("negative fraction should clamp")
	}
	a, b = d.Split(2)
	if a.Len() != 10 || b.Len() != 0 {
		t.Fatal("fraction > 1 should clamp")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := testSchema(t)
	d := NewDataset(s)
	d.Append(Record{Num: []float64{42, 7}, Cat: []int32{2, 5}, Class: 1})
	path := t.TempDir() + "/data.bin"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(s, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Records[0].Num[0] != 42 {
		t.Fatal("file roundtrip mismatch")
	}
}
