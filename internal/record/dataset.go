package record

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Dataset is an in-memory collection of records with a shared schema.
type Dataset struct {
	Schema  *Schema
	Records []Record
}

// NewDataset creates an empty dataset for schema s.
func NewDataset(s *Schema) *Dataset {
	return &Dataset{Schema: s}
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Append adds records to the dataset.
func (d *Dataset) Append(recs ...Record) { d.Records = append(d.Records, recs...) }

// ClassCounts returns the per-class frequency vector of the dataset.
func (d *Dataset) ClassCounts() []int64 {
	counts := make([]int64, d.Schema.NumClasses)
	for _, r := range d.Records {
		counts[r.Class]++
	}
	return counts
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Schema: d.Schema, Records: make([]Record, len(d.Records))}
	for i, r := range d.Records {
		out.Records[i] = r.Clone()
	}
	return out
}

// Shuffle permutes the records in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Records), func(i, j int) {
		d.Records[i], d.Records[j] = d.Records[j], d.Records[i]
	})
}

// Split partitions the dataset into two new datasets: the first fraction
// frac of records and the remainder. It does not shuffle.
func (d *Dataset) Split(frac float64) (*Dataset, *Dataset) {
	k := int(frac * float64(len(d.Records)))
	if k < 0 {
		k = 0
	}
	if k > len(d.Records) {
		k = len(d.Records)
	}
	a := &Dataset{Schema: d.Schema, Records: d.Records[:k]}
	b := &Dataset{Schema: d.Schema, Records: d.Records[k:]}
	return a, b
}

// Sample draws k records uniformly without replacement using rng. If k
// exceeds the dataset size, all records are returned (in random order).
func (d *Dataset) Sample(k int, rng *rand.Rand) []Record {
	n := len(d.Records)
	if k >= n {
		out := make([]Record, n)
		copy(out, d.Records)
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// Floyd's algorithm for sampling without replacement.
	chosen := make(map[int]bool, k)
	out := make([]Record, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, d.Records[t])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// WriteBinary streams the dataset's records in fixed-width binary form.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, d.Schema.RecordBytes())
	for i := range d.Records {
		buf = d.Records[i].Encode(buf[:0])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads every record of schema s from r. Both dataset formats
// are accepted: the v2 checksummed block layout (sniffed by magic, every
// block verified) and the legacy raw fixed-width stream.
func ReadBinary(s *Schema, r io.Reader) (*Dataset, error) {
	return readBinary(NewDataset(s), r)
}

// v1ChunkRecords is how many legacy fixed-width records ReadBinary reads
// and decodes at a time.
const v1ChunkRecords = 4096

// readBinary is ReadBinary appending to d, whose Records may have been
// presized.
func readBinary(d *Dataset, r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(len(V2Magic)); err == nil && string(head) == V2Magic {
		return readBinaryV2(d, br)
	}
	rb := d.Schema.RecordBytes()
	buf := make([]byte, v1ChunkRecords*rb)
	for {
		n, err := io.ReadFull(br, buf)
		d.Records = decodeBlock(d.Schema, d.Records, buf[:n-n%rb], rb)
		if err == io.EOF || (err == io.ErrUnexpectedEOF && n%rb == 0) {
			return d, nil
		}
		if err != nil {
			return nil, fmt.Errorf("record: reading binary dataset: %w", err)
		}
	}
}

// SaveFile writes the dataset to path in binary form.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a binary dataset of schema s from path.
func LoadFile(s *Schema, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := NewDataset(s)
	// The size bounds the record count (a v2 file also holds its framing),
	// so it presizes Records; the count itself still comes from the blocks.
	if fi, err := f.Stat(); err == nil {
		d.Records = make([]Record, 0, fi.Size()/int64(s.RecordBytes()))
	}
	return readBinary(d, f)
}

// WriteCSV writes the dataset as comma-separated text with a header row.
// Numeric values use %g; categorical values and the class are integers.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(d.Schema.Attrs)+1)
	for _, a := range d.Schema.Attrs {
		names = append(names, a.Name)
	}
	names = append(names, "class")
	if _, err := fmt.Fprintln(bw, strings.Join(names, ",")); err != nil {
		return err
	}
	for _, r := range d.Records {
		fields := make([]string, 0, len(d.Schema.Attrs)+1)
		ni, ci := 0, 0
		for _, a := range d.Schema.Attrs {
			if a.Kind == Numeric {
				fields = append(fields, strconv.FormatFloat(r.Num[ni], 'g', -1, 64))
				ni++
			} else {
				fields = append(fields, strconv.FormatInt(int64(r.Cat[ci]), 10))
				ci++
			}
		}
		fields = append(fields, strconv.FormatInt(int64(r.Class), 10))
		if _, err := fmt.Fprintln(bw, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset of schema s from comma-separated text produced by
// WriteCSV (header row required).
func ReadCSV(s *Schema, r io.Reader) (*Dataset, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		if err := br.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("record: empty CSV input")
	}
	d := NewDataset(s)
	line := 1
	for br.Scan() {
		line++
		text := strings.TrimSpace(br.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(s.Attrs)+1 {
			return nil, fmt.Errorf("record: line %d: got %d fields, want %d", line, len(fields), len(s.Attrs)+1)
		}
		rec := Record{
			Num: make([]float64, 0, s.NumNumeric()),
			Cat: make([]int32, 0, s.NumCategorical()),
		}
		for i, a := range s.Attrs {
			f := strings.TrimSpace(fields[i])
			if a.Kind == Numeric {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("record: line %d attr %q: %w", line, a.Name, err)
				}
				rec.Num = append(rec.Num, v)
			} else {
				v, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("record: line %d attr %q: %w", line, a.Name, err)
				}
				rec.Cat = append(rec.Cat, int32(v))
			}
		}
		cls, err := strconv.ParseInt(strings.TrimSpace(fields[len(fields)-1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("record: line %d class: %w", line, err)
		}
		rec.Class = int32(cls)
		if err := rec.Validate(s); err != nil {
			return nil, fmt.Errorf("record: line %d: %w", line, err)
		}
		d.Records = append(d.Records, rec)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
