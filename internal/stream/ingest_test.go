package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// blockSource hands out pre-encoded rows as views of perBlock-row blocks,
// the way TailSource hands out a verified v2 block without the file read
// and the checksum; past the last row it starts over from the first, so a
// benchmark can ingest any number of windows.
type blockSource struct {
	rows         []byte
	rb, perBlock int
	pos          int // byte offset of the next row
}

func (s *blockSource) Rows(n int) ([]byte, error) {
	if s.pos == len(s.rows) {
		s.pos = 0
	}
	block := s.rb * s.perBlock
	end := min(len(s.rows), s.pos+n*s.rb, (s.pos/block+1)*block)
	out := s.rows[s.pos:end]
	s.pos = end
	return out, nil
}

func (s *blockSource) Close() error { return nil }

// encodeSamples is the sample all-gather's payload, record by record: a
// u32 record count, then each record's u64 global index and encoded row.
// Ingest builds it row by row as it scans; this is the reference layout.
func encodeSamples(idxs []int64, recs []record.Record, schema *record.Schema) []byte {
	out := make([]byte, 0, 4+len(recs)*(8+schema.RecordBytes()))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(recs)))
	for i, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, uint64(idxs[i]))
		out = r.Encode(out)
	}
	return out
}

// TestIngestMatchesRowOracle holds block ingest to the record-at-a-time
// ingest it replaced: after every window, each rank's frontier statistics
// must equal NodeStats.Add over the records it owns and trains on, each
// routed by the pointer walk, and its holdout rows, sample payload and
// counters must be those of the same records. The windows run over a v2
// file of 512-row blocks that 1,000-record windows do not align with, a
// legacy v1 file, the synthetic source, and time-based windows, at one to
// three ranks.
func TestIngestMatchesRowOracle(t *testing.T) {
	const n = 4500
	gen := datagen.Config{Function: 2, Seed: 42, Noise: 0.05}
	g, err := datagen.New(gen)
	if err != nil {
		t.Fatal(err)
	}
	data := g.Generate(n)
	schema := data.Schema
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.bin")
	file := record.EncodeV2Header(uint32(schema.RecordBytes()), 1)
	for i := 0; i < n; i += 512 {
		file = record.EncodeV2Block(file, record.EncodeAll(data.Records[i:min(i+512, n)]))
	}
	if err := os.WriteFile(v2, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := data.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, "v1.bin")
	if err := os.WriteFile(v1Path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	base := goldenConfig("").withDefaults()
	base.WindowRecords = 1000
	rg, err := datagen.New(datagen.Config{Function: 2, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	reservoir := rg.Generate(base.ReservoirCap).Records
	tr, _, err := clouds.BuildInCore(base.Clouds, &record.Dataset{Schema: schema, Records: reservoir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := tree.Encode(tr)

	tail := func(path string) func() (Source, error) {
		return func() (Source, error) {
			return TailFile(schema, path, TailOptions{Poll: time.Millisecond, Limit: n})
		}
	}
	for _, tc := range []struct {
		name   string
		open   func() (Source, error)
		window time.Duration
	}{
		{"v2", tail(v2), 0},
		{"v1", tail(v1Path), 0},
		{"synthetic", func() (Source, error) { return NewSynthetic(gen, n) }, 0},
		{"timed", tail(v2), 200 * time.Microsecond},
	} {
		for _, p := range []int{1, 2, 3} {
			cfg := base
			cfg.WindowDuration = tc.window
			err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
				src, err := tc.open()
				if err != nil {
					return err
				}
				defer src.Close()
				tr, err := tree.Decode(schema, blob)
				if err != nil {
					return err
				}
				e := &engine{cfg: cfg, c: c, src: src, tree: tr, reservoir: slices.Clone(reservoir), live: newLiveMetrics(nil, nil)}
				for w := 0; ; w++ {
					e.buildFrontier()
					first := e.nextIdx
					_, end, err := e.ingestWindow()
					if err != nil {
						return err
					}
					if err := checkIngest(e, data.Records[first:e.nextIdx], first); err != nil {
						return fmt.Errorf("window %d (records %d to %d): %w", w, first, e.nextIdx, err)
					}
					e.samples, e.holdout = e.samples[:0], e.holdout[:0]
					if end || e.nextIdx == n {
						return nil
					}
				}
			})
			if err != nil {
				t.Fatalf("%s, p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// checkIngest compares what one window's ingest left in e with the record
// by record oracle over the window's records recs, the first at global
// index first.
func checkIngest(e *engine, recs []record.Record, first int64) error {
	schema := e.cfg.Schema
	p, rank := int64(e.c.Size()), int64(e.c.Rank())
	want := make([]*clouds.NodeStats, len(e.frontier))
	for l := range e.frontier {
		want[l] = clouds.NewNodeStats(schema, e.frontier[l].stats.Intervals())
	}
	var holdout []byte
	var sampleIdx []int64
	var samples []record.Record
	for i, r := range recs {
		idx := first + int64(i)
		if idx%p != rank {
			continue
		}
		if holdoutIdx(idx, e.cfg.HoldoutEvery) {
			holdout = r.Encode(holdout)
			continue
		}
		leaf := e.tree.Leaf(r)
		for l := range e.frontier {
			if e.frontier[l].node == leaf {
				want[l].Add(r)
			}
		}
		if idx%int64(e.cfg.SampleEvery) == 0 {
			sampleIdx, samples = append(sampleIdx, idx), append(samples, r)
		}
	}
	for l := range e.frontier {
		if got, w := e.frontier[l].stats.AppendFlatten(nil), want[l].AppendFlatten(nil); !slices.Equal(got, w) {
			return fmt.Errorf("leaf %d: %d records counted, oracle %d: statistics differ", l, got[0], w[0])
		}
	}
	if !bytes.Equal(e.holdout, holdout) {
		return fmt.Errorf("%d holdout bytes, oracle %d", len(e.holdout), len(holdout))
	}
	// The count is set at close; a window that scanned nothing has not
	// started the payload.
	got := binary.LittleEndian.AppendUint32(nil, uint32(len(samples)))
	if len(e.samples) > 4 {
		got = append(got, e.samples[4:]...)
	}
	if payload := encodeSamples(sampleIdx, samples, schema); !bytes.Equal(got, payload) {
		return fmt.Errorf("%d sample payload bytes, oracle %d", len(got), len(payload))
	}
	if e.stats.Scanned != e.nextIdx {
		return fmt.Errorf("scanned %d, stream at %d", e.stats.Scanned, e.nextIdx)
	}
	return nil
}

// TestFirstInvalidMatchesValidate holds the block check to
// Record.Validate: over rows whose class and categorical codes sit at and
// around their bounds, firstInvalid names the first row whose decoded
// record Validate refuses, and invalidRow gives Validate's message.
func TestFirstInvalidMatchesValidate(t *testing.T) {
	schema := datagen.Schema()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	valid := g.Generate(1).Records[0]
	near := func(bound int32, k int) int32 { return []int32{bound - 1, bound, bound + 1, -1, 0, 1 << 30}[k%6] }
	for trial := range 600 {
		recs := make([]record.Record, 1+trial%7)
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
		rows := record.EncodeAll(recs)
		if got := firstInvalid(schema, rows); got != want {
			t.Fatalf("trial %d: first invalid row %d, Validate says %d", trial, got, want)
		}
		if want < len(recs) {
			rb := schema.RecordBytes()
			got := invalidRow(schema, 5, rows[want*rb:(want+1)*rb]).Error()
			if w := fmt.Sprintf("stream: global record 5: %v", recs[want].Validate(schema)); got != w {
				t.Fatalf("trial %d: %q, want %q", trial, got, w)
			}
		}
	}
}
