package record

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// withProcs runs f at each GOMAXPROCS in procs, restoring the setting.
func withProcs(procs []int, f func(p int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

// pipelinedRows spans six v2 blocks, the last one short.
const pipelinedRows = 5*v2BlockRecords + 123

// TestPipelinedLoadMatchesDecodeAll: a file of several blocks loads, with
// and without a size to presize from, to exactly the records DecodeAll
// gives, each with cap == len, at any worker count.
func TestPipelinedLoadMatchesDecodeAll(t *testing.T) {
	d := decodeTestDataset(pipelinedRows)
	want, err := DecodeAll(d.Schema, EncodeAll(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := d.WriteBinaryV2(&v2, 3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.bin")
	if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	withProcs([]int{1, 2, 4}, func(p int) {
		loaded, err := LoadFile(d.Schema, path)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadBinary(d.Schema, bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := ReadBinary(d.Schema, bytes.NewReader(EncodeAll(d.Records)))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Record{"LoadFile": loaded.Records, "ReadBinary": read.Records, "v1 ReadBinary": v1.Records} {
			sameRecords(t, fmt.Sprintf("%s at GOMAXPROCS %d", name, p), got, want)
			for i, r := range got {
				if cap(r.Num) != len(r.Num) || cap(r.Cat) != len(r.Cat) {
					t.Fatalf("%s at GOMAXPROCS %d: record %d has spare capacity", name, p, i)
				}
			}
		}
	})
}

// TestPipelinedLoadFirstError: however the workers race, a damaged file
// fails with the error of its first bad block, the one a front-to-back
// reader meets first, in every run and at every worker count.
func TestPipelinedLoadFirstError(t *testing.T) {
	s := decodeTestDataset(0).Schema
	rb := s.RecordBytes()
	blockLen := V2BlockHeaderSize + v2BlockRecords*rb
	block := func(b []byte, k int) (hdr, payload []byte) {
		at := V2HeaderSize + k*blockLen
		return b[at : at+V2BlockHeaderSize], b[at+V2BlockHeaderSize : at+blockLen]
	}
	encode := func(d *Dataset) []byte {
		var buf bytes.Buffer
		if err := d.WriteBinaryV2(&buf, 4); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	type damaged struct {
		name string
		file []byte
		want string
	}
	var cases []damaged

	// Blocks 1 and 3 fail their checksums and the last block is cut short.
	b := encode(decodeTestDataset(pipelinedRows))
	for _, k := range []int{1, 3} {
		_, p := block(b, k)
		p[17] ^= 0x40
	}
	h1, p1 := block(b, 1)
	cases = append(cases, damaged{"checksums", b[:len(b)-5], "record: v2 block 1: " + VerifyV2Block(h1, p1).Error()})

	// A row of block 2 lies outside the schema (its block checksum is
	// valid), block 3 fails its checksum, and the tail is cut.
	d := decodeTestDataset(pipelinedRows)
	bad := 2*v2BlockRecords + 77
	d.Records[bad].Cat[1] = 3
	b = encode(d)
	_, p3 := block(b, 3)
	p3[0] ^= 0x01
	cases = append(cases, damaged{"schema", b[:len(b)-5], fmt.Sprintf("record: row %d: %v", bad, d.Records[bad].Validate(s))})

	// Only the cut tail.
	b = encode(decodeTestDataset(pipelinedRows))
	cases = append(cases, damaged{"truncated", b[:len(b)-5], "record: v2 block 5: truncated payload: unexpected EOF"})

	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name+".bin")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		withProcs([]int{1, 2, 4}, func(p int) {
			for run := range 50 {
				ds, err := LoadFile(s, path)
				if err == nil || err.Error() != tc.want || ds != nil {
					t.Fatalf("%s, GOMAXPROCS %d, run %d: LoadFile = %v, %v; want %q", tc.name, p, run, ds, err, tc.want)
				}
				ds, err = ReadBinary(s, bytes.NewReader(tc.file))
				if err == nil || err.Error() != tc.want || ds != nil {
					t.Fatalf("%s, GOMAXPROCS %d, run %d: ReadBinary = %v, %v; want %q", tc.name, p, run, ds, err, tc.want)
				}
			}
		})
	}
}

// TestFirstInvalidMatchesValidate holds the block check to Validate: over
// rows whose class and categorical codes sit at and around their bounds,
// FirstInvalid names the first row whose decoded record Validate refuses,
// and loading the rows fails naming that row with Validate's message.
func TestFirstInvalidMatchesValidate(t *testing.T) {
	d := decodeTestDataset(1)
	schema, valid := d.Schema, d.Records[0]
	near := func(bound int32, k int) int32 { return []int32{bound - 1, bound, bound + 1, -1, 0, 1 << 30}[k%6] }
	for trial := range 600 {
		recs := make([]Record, 1+trial%7)
		for i := range recs {
			recs[i] = valid.Clone()
		}
		r := &recs[trial%len(recs)]
		if j := trial % (len(r.Cat) + 1); j == len(r.Cat) {
			r.Class = near(int32(schema.NumClasses), trial/7)
		} else {
			r.Cat[j] = near(int32(schema.Attrs[schema.CategoricalIndices()[j]].Cardinality), trial/7)
		}
		want := len(recs)
		for i, rec := range recs {
			if rec.Validate(schema) != nil {
				want = i
				break
			}
		}
		rows := EncodeAll(recs)
		if got := FirstInvalid(schema, rows); got != want {
			t.Fatalf("trial %d: first invalid row %d, Validate says %d", trial, got, want)
		}
		_, err := ReadBinary(schema, bytes.NewReader(rows))
		switch {
		case want == len(recs) && err != nil:
			t.Fatalf("trial %d: valid rows refused: %v", trial, err)
		case want < len(recs):
			if w := fmt.Sprintf("record: row %d: %v", want, recs[want].Validate(schema)); err == nil || err.Error() != w {
				t.Fatalf("trial %d: %v, want %q", trial, err, w)
			}
		}
	}
}

// BenchmarkLoadFile loads a 100,000-row v2 file: read, verify and decode.
func BenchmarkLoadFile(b *testing.B) {
	d := decodeTestDataset(100_000)
	path := filepath.Join(b.TempDir(), "v2.bin")
	if err := writeV2(d, path); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.Len() * d.Schema.RecordBytes()))
	b.ResetTimer()
	for range b.N {
		if _, err := LoadFile(d.Schema, path); err != nil {
			b.Fatal(err)
		}
	}
}
