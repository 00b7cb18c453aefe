// Command datagen generates synthetic training data with the Agrawal et
// al. generator used by the paper (function 2 by default: 6 numeric + 3
// categorical attributes, 2 classes).
//
// Usage:
//
//	datagen -n 100000 -function 2 -seed 1 -format binary -o train.bin
//	datagen -n 1000 -format csv -o - | head
//
// Binary output defaults to the checksummed v2 record format: a
// self-describing file header (whose checksum doubles as the dataset
// fingerprint checkpoints bind) followed by CRC-32C-protected record
// blocks, so every downstream reader detects torn or corrupted data
// instead of training on it. -checksum=false writes the legacy headerless
// fixed-width v1 layout.
//
// With -stream, datagen becomes a live writer: it appends binary records
// to -o at -rate records per second (creating the file if needed) until -n
// records are written or it is interrupted. The output is the layout
// pcloudsstream's tail source follows, so
//
//	datagen -stream -rate 500 -n 0 -o train.bin
//
// feeds a streaming build indefinitely. Restarting the writer against an
// existing file continues in that file's format: the v2 header is sniffed
// and verified (the record width must match) and new blocks are appended
// after the existing bytes; a legacy v1 file keeps growing as v1.
//
// Durability contract in -stream mode: records are written in whole
// checksummed blocks (one write per batch), and -fsync-every N fsyncs the
// file after at least every N records (0 = leave flushing to the OS, sync
// once at exit). A record is durable once its block has been fsynced. If
// the writer dies mid-write, the file ends in a torn block: the tail
// source treats it as a writer mid-append and polls (it never surfaces a
// partial record), and the offline scrubber reports it as a truncated
// block at its exact offset.
//
// -drift-after N flips the labelling concept to -drift-to mid-stream
// (feature rows are unchanged, labels diverge), which is how the
// drift-detection tests exercise the real tailed-file writer path:
//
//	datagen -stream -rate 500 -drift-after 5000 -drift-to 5 -o train.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pclouds/internal/datagen"
	"pclouds/internal/durable"
	"pclouds/internal/record"
)

func main() {
	var (
		n        = flag.Int("n", 100000, "number of records to generate (0 with -stream = unbounded)")
		fn       = flag.Int("function", 2, "classification function (1..10)")
		seed     = flag.Int64("seed", 1, "generator seed")
		noise    = flag.Float64("noise", 0, "label noise probability in [0,1)")
		format   = flag.String("format", "binary", "output format: binary or csv")
		out      = flag.String("o", "train.bin", "output path ('-' for stdout)")
		checksum = flag.Bool("checksum", true, "write the checksummed v2 record format (binary output)")
		strm     = flag.Bool("stream", false, "append binary records to -o at -rate records/s instead of writing a batch")
		rate     = flag.Float64("rate", 1000, "records per second in -stream mode")
		fsync    = flag.Int("fsync-every", 0, "in -stream mode, fsync after at least every N records (0 = OS-buffered, sync at exit)")
		drift    = flag.Int64("drift-after", 0, "flip the labelling concept to -drift-to after this many records (0 disables)")
		dto      = flag.Int("drift-to", 5, "post-drift classification function (with -drift-after)")
	)
	flag.Parse()

	g, err := datagen.New(datagen.Config{Function: *fn, Seed: *seed, Noise: *noise, DriftAfter: *drift, DriftTo: *dto})
	if err != nil {
		fatal(err)
	}
	// The file ID in the v2 header names what the bytes are: the generator
	// configuration, hashed. Deterministic, so regenerating the same dataset
	// yields the same identity (and the same header fingerprint).
	fileID := uint64(durable.Checksum([]byte(fmt.Sprintf("datagen fn=%d seed=%d noise=%g drift=%d,%d",
		*fn, *seed, *noise, *drift, *dto))))

	if *strm {
		if err := streamRecords(g, *out, *n, *rate, *checksum, *fsync, fileID); err != nil {
			fatal(err)
		}
		return
	}

	data := g.Generate(*n)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch {
	case *format == "binary" && *checksum:
		err = data.WriteBinaryV2(w, fileID)
	case *format == "binary":
		err = data.WriteBinary(w)
	case *format == "csv":
		err = data.WriteCSV(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d records (%s, function %d) to %s\n", *n, *format, *fn, *out)
	}
}

// streamRecords appends binary records to path at roughly rate records per
// second. In v2 mode each batch of complete records becomes one
// checksummed block written whole; in v1 mode records are written raw.
// Either way a tailer never observes a torn record from a single write —
// and the tail source additionally waits out short reads.
func streamRecords(g *datagen.Generator, path string, n int, rate float64, checksum bool, fsyncEvery int, fileID uint64) error {
	if path == "-" {
		return fmt.Errorf("-stream needs a file path, not stdout")
	}
	if rate <= 0 {
		return fmt.Errorf("-rate must be positive")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	// An existing file dictates the format: sniff its header and keep
	// appending in kind, rather than mixing layouts in one file.
	recordBytes := g.Schema().RecordBytes()
	v2 := checksum
	if st, err := f.Stat(); err != nil {
		return err
	} else if st.Size() > 0 {
		hdr, ok, err := record.SniffHeader(path)
		if err != nil {
			return fmt.Errorf("datagen: existing %s: %w", path, err)
		}
		if ok && hdr.RecordBytes != uint32(recordBytes) {
			return fmt.Errorf("datagen: existing %s has record width %d, generator writes %d", path, hdr.RecordBytes, recordBytes)
		}
		if v2 != ok {
			fmt.Fprintf(os.Stderr, "datagen: existing %s is %s; continuing in that format\n",
				path, map[bool]string{true: "checksummed v2", false: "legacy v1"}[ok])
			v2 = ok
		}
	} else if v2 {
		if _, err := f.Write(record.EncodeV2Header(uint32(recordBytes), fileID)); err != nil {
			return err
		}
	}
	// Block size cap: a burst batch still fits one plausible v2 block.
	maxBlock := record.MaxV2BlockBytes / recordBytes

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	const tick = 20 * time.Millisecond
	perTick := rate * tick.Seconds()
	t := time.NewTicker(tick)
	defer t.Stop()

	written, carry, sinceSync := 0, 0.0, 0
	var payload, blk []byte
	flush := func(batch int) error {
		payload = payload[:0]
		for i := 0; i < batch; i++ {
			payload = g.Next().Encode(payload)
		}
		if v2 {
			blk = record.EncodeV2Block(blk[:0], payload)
		} else {
			blk = payload
		}
		if _, err := f.Write(blk); err != nil {
			return err
		}
		written += batch
		sinceSync += batch
		if fsyncEvery > 0 && sinceSync >= fsyncEvery {
			if err := f.Sync(); err != nil {
				return err
			}
			sinceSync = 0
		}
		return nil
	}
	for n <= 0 || written < n {
		select {
		case <-stop:
			fmt.Fprintf(os.Stderr, "datagen: interrupted after %d records\n", written)
			return f.Sync()
		case <-t.C:
		}
		carry += perTick
		batch := int(carry)
		carry -= float64(batch)
		if n > 0 && written+batch > n {
			batch = n - written
		}
		for batch > 0 {
			b := batch
			if b > maxBlock {
				b = maxBlock
			}
			if err := flush(b); err != nil {
				return err
			}
			batch -= b
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamed %d records (%.0f/s) to %s\n", written, rate, path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
