package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
)

// Data-plane integrity at the stream layer (ISSUE 10): v2 record files are
// tailed block-by-block with every CRC verified, and window checkpoints are
// whole-file checksummed and bound to the source dataset's fingerprint.

// v2StreamFile renders n generated records as one v2 byte stream.
func v2StreamFile(t *testing.T, n int, fileID uint64) ([]byte, *record.Schema) {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate(n)
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, fileID); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), d.Schema
}

// TestTailV2Blocks: a tailed v2 file yields its records with CRC
// verification, an incomplete trailing block is polled (never surfaced,
// never an error), and HeaderChecksum exposes the dataset fingerprint.
func TestTailV2Blocks(t *testing.T) {
	const n = 9000 // three blocks at the writer's 4096-record granularity
	raw, schema := v2StreamFile(t, n, 99)

	// Split the file mid-block-2: header+block1 complete, block2 torn.
	b1len := binary.LittleEndian.Uint32(raw[record.V2HeaderSize:])
	b1end := record.V2HeaderSize + record.V2BlockHeaderSize + int(b1len)
	cut := b1end + record.V2BlockHeaderSize + 100

	path := filepath.Join(t.TempDir(), "train.bin")
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	src, err := TailFile(schema, path, TailOptions{Poll: time.Millisecond, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	hdr, ok, err := record.SniffHeader(path)
	if err != nil || !ok {
		t.Fatalf("sniff: ok=%v err=%v", ok, err)
	}
	if src.HeaderChecksum() == 0 || src.HeaderChecksum() != hdr.CRC {
		t.Fatalf("HeaderChecksum = %08x, want %08x", src.HeaderChecksum(), hdr.CRC)
	}

	var rec record.Record
	for i := 0; i < 4096; i++ {
		ok, err := src.Next(&rec)
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	// The torn block must not surface; Next polls until Stop.
	nextDone := make(chan error, 1)
	go func() {
		ok, err := src.Next(&rec)
		if ok {
			nextDone <- errors.New("torn block surfaced a record")
			return
		}
		nextDone <- err
	}()
	select {
	case err := <-nextDone:
		t.Fatalf("Next returned on a torn block: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(stop)
	if err := <-nextDone; err != nil {
		t.Fatalf("stopped Next: %v", err)
	}
	// Complete the file; a fresh tail reads every record.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	src2, err := TailFile(schema, path, TailOptions{Poll: time.Millisecond, Limit: n})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	count := 0
	for {
		ok, err := src2.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("tailed %d records, want %d", count, n)
	}
}

// TestTailV2CorruptionSurfaces: a bit flip in a complete interior block is
// corruption, not something to poll past — Next errors with the offset.
func TestTailV2CorruptionSurfaces(t *testing.T) {
	raw, schema := v2StreamFile(t, 5000, 7)
	bad := append([]byte(nil), raw...)
	bad[record.V2HeaderSize+record.V2BlockHeaderSize+50] ^= 0x10 // inside block 1's payload

	path := filepath.Join(t.TempDir(), "train.bin")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := TailFile(schema, path, TailOptions{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rec record.Record
	_, err = src.Next(&rec)
	if err == nil {
		t.Fatal("corrupt block tailed without error")
	}
}

// TestCheckpointSourceBinding: a checkpoint written against one dataset
// fingerprint refuses to resume against another — explicitly, with
// ErrSourceMismatch, not by silently skipping to a fresh start.
func TestCheckpointSourceBinding(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Schema: g.Schema(), CheckpointDir: t.TempDir()}
	st := &ckptState{window: 3, nextIdx: 999}
	if err := writeCkpt(cfg.CheckpointDir, 0, cfg.fingerprint(), 0xAAAA0001, st); err != nil {
		t.Fatal(err)
	}

	cfg.SourceChecksum = 0xAAAA0001
	got, err := resumeAlone(cfg)
	if err != nil || got == nil || got.window != 3 {
		t.Fatalf("matching fingerprint: st=%+v err=%v", got, err)
	}
	cfg.SourceChecksum = 0 // unbound run accepts
	got, err = resumeAlone(cfg)
	if err != nil || got == nil {
		t.Fatalf("unbound resume: st=%+v err=%v", got, err)
	}
	cfg.SourceChecksum = 0xBBBB0002
	if _, err = resumeAlone(cfg); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("swapped dataset: want ErrSourceMismatch, got %v", err)
	}
}

// resumeAlone runs the resume agreement on a one-rank group.
func resumeAlone(cfg Config) (*ckptState, error) {
	return agreeResume(&cfg, comm.NewGroup(1, costmodel.Zero())[0])
}

// TestCheckpointEveryBitFlipDetected: the whole-file checksum rejects any
// single-bit flip in a window checkpoint, and recovery degrades to the
// previous window instead of loading the damaged one.
func TestCheckpointEveryBitFlipDetected(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	schema := g.Schema()
	const fp, src = 0x2222, uint32(0xCCCC0003)
	blob := encodeCkpt(fp, src, &ckptState{window: 2, nextIdx: 123})
	for bit := 0; bit < len(blob)*8; bit++ {
		bad := append([]byte(nil), blob...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeCkpt(schema, fp, src, bad); err == nil {
			t.Fatalf("bit flip at byte %d bit %d decoded without error", bit/8, bit%8)
		}
	}

	cfg := Config{Schema: schema, CheckpointDir: t.TempDir(), SourceChecksum: src}
	dir, cfp := cfg.CheckpointDir, cfg.fingerprint()
	if err := writeCkpt(dir, 0, cfp, src, &ckptState{window: 1, nextIdx: 50}); err != nil {
		t.Fatal(err)
	}
	if err := writeCkpt(dir, 0, cfp, src, &ckptState{window: 2, nextIdx: 123}); err != nil {
		t.Fatal(err)
	}
	p := ckptPath(dir, 0, 2)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resumeAlone(cfg)
	if err != nil || got == nil {
		t.Fatalf("st=%+v err=%v", got, err)
	}
	if got.window != 1 {
		t.Fatalf("recovered window %d, want degradation to 1", got.window)
	}
}

// TestOutOfSchemaRecordFailsEveryRank: a tailed record whose class or
// categorical value lies outside the schema stops every rank with an error
// naming its global index (at the same record, so no rank is left waiting
// in a collective), instead of indexing a sketch with it.
func TestOutOfSchemaRecordFailsEveryRank(t *testing.T) {
	const n, bad = 1000, 250 // record 250 falls in window 1, a grown window
	for _, tc := range []struct {
		name  string
		spoil func(*record.Record)
	}{
		{"class", func(r *record.Record) { r.Class = 7 }},
		{"categorical", func(r *record.Record) { r.Cat[0] = 99 }},
	} {
		for _, p := range []int{1, 2} {
			g, err := datagen.New(datagen.Config{Function: 2, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			d := g.Generate(n)
			tc.spoil(&d.Records[bad])
			var buf bytes.Buffer
			if err := d.WriteBinaryV2(&buf, 1); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "stream.bin")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(t)
			cfg.PublishDir = t.TempDir()
			errs := make([]error, p)
			comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
				src, err := TailFile(d.Schema, path, TailOptions{Poll: time.Millisecond, Limit: n})
				if err != nil {
					errs[c.Rank()] = err
					return err
				}
				defer src.Close()
				_, errs[c.Rank()] = Run(cfg, c, src)
				return errs[c.Rank()]
			})
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "global record 250") {
					t.Errorf("%s, p=%d: rank %d returned %v, want an error naming global record 250", tc.name, p, r, err)
				}
			}
		}
	}
}
