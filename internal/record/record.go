// Package record defines the data model shared by every layer of the
// repository: attribute schemas, typed training records, and a compact
// fixed-width binary encoding used by the out-of-core substrate.
//
// The model follows the paper's setting: each record ("example") has one or
// more attributes, each either numeric or categorical, plus a class label.
package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind distinguishes numeric from categorical attributes.
type Kind int

const (
	// Numeric attributes take real values and are split by thresholds.
	Numeric Kind = iota
	// Categorical attributes take values from a small finite domain and are
	// split by subset tests.
	Categorical
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes a single field of a record.
type Attribute struct {
	Name string
	Kind Kind
	// Cardinality is the number of distinct values for a categorical
	// attribute; it is ignored for numeric attributes.
	Cardinality int
}

// Schema describes the shape of a dataset: its attributes and class count.
// A Schema is immutable once built; the slice indices returned by
// NumericIndex/CategoricalIndex are stable.
type Schema struct {
	Attrs      []Attribute
	NumClasses int

	numIdx []int // attribute positions of numeric attrs, in order
	catIdx []int // attribute positions of categorical attrs, in order
}

// NewSchema builds a schema and validates it.
func NewSchema(attrs []Attribute, numClasses int) (*Schema, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("record: schema needs at least 2 classes, got %d", numClasses)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("record: schema needs at least one attribute")
	}
	s := &Schema{Attrs: attrs, NumClasses: numClasses}
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("record: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("record: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Kind {
		case Numeric:
			s.numIdx = append(s.numIdx, i)
		case Categorical:
			if a.Cardinality < 2 {
				return nil, fmt.Errorf("record: categorical attribute %q needs cardinality >= 2, got %d", a.Name, a.Cardinality)
			}
			s.catIdx = append(s.catIdx, i)
		default:
			return nil, fmt.Errorf("record: attribute %q has unknown kind %d", a.Name, a.Kind)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(attrs []Attribute, numClasses int) *Schema {
	s, err := NewSchema(attrs, numClasses)
	if err != nil {
		panic(err)
	}
	return s
}

// NumNumeric returns the number of numeric attributes.
func (s *Schema) NumNumeric() int { return len(s.numIdx) }

// NumCategorical returns the number of categorical attributes.
func (s *Schema) NumCategorical() int { return len(s.catIdx) }

// NumericIndices returns the attribute positions of the numeric attributes.
// The returned slice must not be modified.
func (s *Schema) NumericIndices() []int { return s.numIdx }

// CategoricalIndices returns the attribute positions of the categorical
// attributes. The returned slice must not be modified.
func (s *Schema) CategoricalIndices() []int { return s.catIdx }

// NumericPos returns the index into Record.Num for attribute position attr,
// or -1 if attr is not numeric.
func (s *Schema) NumericPos(attr int) int {
	for j, a := range s.numIdx {
		if a == attr {
			return j
		}
	}
	return -1
}

// CategoricalPos returns the index into Record.Cat for attribute position
// attr, or -1 if attr is not categorical.
func (s *Schema) CategoricalPos(attr int) int {
	for j, a := range s.catIdx {
		if a == attr {
			return j
		}
	}
	return -1
}

// RecordBytes returns the fixed encoded size of one record under s:
// 8 bytes per numeric value, 4 per categorical value, 4 for the class.
func (s *Schema) RecordBytes() int {
	return 8*len(s.numIdx) + 4*len(s.catIdx) + 4
}

// String renders a short description of the schema.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema(%d classes;", s.NumClasses)
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s:%s", a.Name, a.Kind)
		if a.Kind == Categorical {
			fmt.Fprintf(&b, "[%d]", a.Cardinality)
		}
	}
	b.WriteString(")")
	return b.String()
}

// Record is one training example. Num holds the numeric attribute values in
// schema numeric order; Cat holds the categorical values in schema
// categorical order; Class is the label in [0, NumClasses).
type Record struct {
	Num   []float64
	Cat   []int32
	Class int32
}

// Clone returns a deep copy of r.
func (r Record) Clone() Record {
	c := Record{Class: r.Class}
	if r.Num != nil {
		c.Num = append([]float64(nil), r.Num...)
	}
	if r.Cat != nil {
		c.Cat = append([]int32(nil), r.Cat...)
	}
	return c
}

// Validate checks that r conforms to schema s.
func (r Record) Validate(s *Schema) error {
	if len(r.Num) != s.NumNumeric() {
		return fmt.Errorf("record: got %d numeric values, schema has %d", len(r.Num), s.NumNumeric())
	}
	if len(r.Cat) != s.NumCategorical() {
		return fmt.Errorf("record: got %d categorical values, schema has %d", len(r.Cat), s.NumCategorical())
	}
	if r.Class < 0 || int(r.Class) >= s.NumClasses {
		return fmt.Errorf("record: class %d out of range [0,%d)", r.Class, s.NumClasses)
	}
	for j, v := range r.Cat {
		card := s.Attrs[s.catIdx[j]].Cardinality
		if v < 0 || int(v) >= card {
			return fmt.Errorf("record: categorical value %d out of range [0,%d) for attribute %q", v, card, s.Attrs[s.catIdx[j]].Name)
		}
	}
	return nil
}

// Encode appends the fixed-width binary form of r to dst and returns the
// extended slice. Layout: numeric float64s (little-endian IEEE-754), then
// categorical int32s, then the class int32.
func (r Record) Encode(dst []byte) []byte {
	var buf [8]byte
	for _, v := range r.Num {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		dst = append(dst, buf[:8]...)
	}
	for _, v := range r.Cat {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		dst = append(dst, buf[:4]...)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(r.Class))
	dst = append(dst, buf[:4]...)
	return dst
}

// Decode parses one record of schema s from src, reusing r's slices when
// they have the right length. It returns the number of bytes consumed.
func (r *Record) Decode(s *Schema, src []byte) (int, error) {
	need := s.RecordBytes()
	if len(src) < need {
		return 0, fmt.Errorf("record: short buffer: need %d bytes, have %d", need, len(src))
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
	r.Class = int32(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	return off, nil
}

// EncodeAll encodes all records to a single byte slice.
func EncodeAll(recs []Record) []byte {
	var dst []byte
	for _, r := range recs {
		dst = r.Encode(dst)
	}
	return dst
}

// DecodeAll decodes all records of schema s contained in src.
func DecodeAll(s *Schema, src []byte) ([]Record, error) {
	rb := s.RecordBytes()
	if len(src)%rb != 0 {
		return nil, fmt.Errorf("record: buffer length %d not a multiple of record size %d", len(src), rb)
	}
	return decodeBlock(s, make([]Record, 0, len(src)/rb), src, rb), nil
}

// decodeBlock appends the len(src)/stride fixed-width rows of src to dst.
// A row of stride RecordBytes ends in its class; a feature row (stride
// FeatureBytes) has none and decodes with class 0. Every row's values land
// in one fresh []float64 and one fresh []int32 for the whole block, and
// each record gets three-index slices of them (cap == len), so an append to
// one record reallocates instead of overwriting its neighbour. The records
// equal what Decode or DecodeFeatures gives row by row.
func decodeBlock(s *Schema, dst []Record, src []byte, stride int) []Record {
	nn, nc := s.NumNumeric(), s.NumCategorical()
	n := len(src) / stride
	nums := make([]float64, n*nn)
	cats := make([]int32, n*nc)
	withClass := stride == s.RecordBytes()
	for i := 0; i < n; i++ {
		row := src[i*stride : (i+1)*stride]
		var r Record
		if nn > 0 {
			r.Num = nums[i*nn : (i+1)*nn : (i+1)*nn]
			for j := range r.Num {
				r.Num[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
			}
		}
		if nc > 0 {
			r.Cat = cats[i*nc : (i+1)*nc : (i+1)*nc]
			off := 8 * nn
			for j := range r.Cat {
				r.Cat[j] = int32(binary.LittleEndian.Uint32(row[off+4*j:]))
			}
		}
		if withClass {
			r.Class = int32(binary.LittleEndian.Uint32(row[stride-4:]))
		}
		dst = append(dst, r)
	}
	return dst
}
