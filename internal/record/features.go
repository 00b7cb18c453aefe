package record

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Feature rows are the wire format used by the prediction-serving binary
// protocol: the fixed-width attribute values of a record *without* the
// trailing class label, since a classification client by definition does
// not know the class. Layout matches Encode minus the final int32:
// numeric float64s (little-endian IEEE-754) then categorical int32s.

// FeatureBytes returns the encoded size of one feature row under s:
// 8 bytes per numeric value, 4 per categorical value, no class.
func (s *Schema) FeatureBytes() int {
	return 8*len(s.numIdx) + 4*len(s.catIdx)
}

// EncodeFeatures appends the feature row of r (attribute values only, no
// class label) to dst and returns the extended slice.
func (r Record) EncodeFeatures(dst []byte) []byte {
	var buf [8]byte
	for _, v := range r.Num {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		dst = append(dst, buf[:8]...)
	}
	for _, v := range r.Cat {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		dst = append(dst, buf[:4]...)
	}
	return dst
}

// DecodeFeatures parses one feature row of schema s from src into r,
// reusing r's slices when they have the right length. Class is reset to 0.
// It returns the number of bytes consumed.
func (r *Record) DecodeFeatures(s *Schema, src []byte) (int, error) {
	need := s.FeatureBytes()
	if len(src) < need {
		return 0, fmt.Errorf("record: short feature row: need %d bytes, have %d", need, len(src))
	}
	if len(r.Num) != s.NumNumeric() {
		r.Num = make([]float64, s.NumNumeric())
	}
	if len(r.Cat) != s.NumCategorical() {
		r.Cat = make([]int32, s.NumCategorical())
	}
	off := 0
	for j := range r.Num {
		r.Num[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		off += 8
	}
	for j := range r.Cat {
		r.Cat[j] = int32(binary.LittleEndian.Uint32(src[off:]))
		off += 4
	}
	r.Class = 0
	return off, nil
}

// DecodeAllFeatures decodes every feature row of schema s contained in src
// into fresh storage: FeatureRows.Decode on an empty FeatureRows.
func DecodeAllFeatures(s *Schema, src []byte) ([]Record, error) {
	var f FeatureRows
	if err := f.Decode(s, src); err != nil {
		return nil, err
	}
	return f.Recs, nil
}

// FeatureRows is reusable storage for decoded feature rows: the records and
// the one []float64 and one []int32 arena their values live in. A server
// that decodes one request after another into the same FeatureRows
// allocates only when a request has more rows than any before it.
type FeatureRows struct {
	Recs []Record
	num  []float64
	cat  []int32
}

// Decode replaces f.Recs with every feature row of schema s contained in
// src, reusing f's records and arenas when they are large enough. The rows
// of an earlier Decode are overwritten, so a caller must be done with them.
// Each record gets three-index slices of the arenas (cap == len), as
// DecodeAll gives.
func (f *FeatureRows) Decode(s *Schema, src []byte) error {
	fb := s.FeatureBytes()
	if fb == 0 {
		return fmt.Errorf("record: schema has no attributes")
	}
	if len(src)%fb != 0 {
		return fmt.Errorf("record: buffer length %d not a multiple of feature row size %d", len(src), fb)
	}
	n := len(src) / fb
	if cap(f.Recs) < n {
		f.Recs = make([]Record, n)
	}
	if nn := n * s.NumNumeric(); cap(f.num) < nn {
		f.num = make([]float64, nn)
	}
	if nc := n * s.NumCategorical(); cap(f.cat) < nc {
		f.cat = make([]int32, nc)
	}
	f.Recs = f.Recs[:n]
	decodeRows(s, f.Recs, f.num[:cap(f.num)], f.cat[:cap(f.cat)], src, fb)
	return nil
}
