package tree

import (
	"bytes"
	"testing"

	"pclouds/internal/record"
)

// FuzzDecode: arbitrary bytes must never panic the tree decoder; anything
// it accepts must round-trip through Encode.
func FuzzDecode(f *testing.F) {
	s := testSchemaForFuzz()
	valid := Encode(&Tree{Schema: s, Root: &Node{ClassCounts: []int64{3, 4}, N: 7, Class: 1}})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(s, data)
		if err != nil {
			return
		}
		re := Encode(tr)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted tree does not round-trip")
		}
	})
}

// FuzzModelRead: the model container must reject corrupt input gracefully.
func FuzzModelRead(f *testing.F) {
	s := testSchemaForFuzz()
	var buf bytes.Buffer
	Write(&buf, &Tree{Schema: s, Root: &Node{ClassCounts: []int64{1, 2}, N: 3, Class: 1}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Schema == nil || tr.Root == nil {
			t.Fatal("accepted model with nil parts")
		}
	})
}

// FuzzDecodePartial: the batch-checkpoint partial-tree reader (footer check,
// then partial decode) must never panic, and accepted bytes must re-encode
// identically, footer included when there was one.
func FuzzDecodePartial(f *testing.F) {
	s := testSchemaForFuzz()
	partial := EncodePartial(&Tree{Schema: s, Root: &Node{
		Splitter:    &Splitter{Kind: NumericSplit, Attr: 0, Threshold: 1.5},
		ClassCounts: []int64{3, 4}, N: 7,
		Left: &Node{ClassCounts: []int64{3, 0}, N: 3},
	}})
	f.Add(AppendChecksum(partial))
	f.Add(partial)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, hadFooter, err := StripChecksum(data)
		if err != nil {
			return
		}
		tr, err := DecodePartial(s, payload)
		if err != nil {
			return
		}
		re := EncodePartial(tr)
		if hadFooter {
			re = AppendChecksum(re)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted partial tree does not round-trip")
		}
	})
}

func testSchemaForFuzz() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 3},
	}, 2)
}
