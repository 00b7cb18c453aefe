package stream

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"pclouds/internal/datagen"
	"pclouds/internal/notify"
	"pclouds/internal/record"
)

// Source yields the global record stream. Every rank opens the same source
// and scans the same global sequence; ownership of individual records is
// decided by the engine (round-robin on the global index), so a source does
// not need to know the rank count.
//
// Rows hands out the stream by blocks: the next whole records, at least
// one and at most n (n >= 1), back to back in Record.Encode's layout. The
// bytes are a view valid until the next call; the engine counts a block's
// rows in place and copies out only the rows it keeps. No rows and a nil
// error is a clean end of stream, after which the engine commits the
// final (possibly partial) window and returns.
//
// Determinism contract: two opens of the same source must yield the same
// record sequence. SyntheticSource regenerates it from the seed;
// TailSource re-reads the file from the top. The engine relies on this to
// replay the stream up to a checkpoint's high-water mark after recovery.
type Source interface {
	Rows(n int) ([]byte, error)
	Close() error
}

// SyntheticSource streams the Agrawal generator: an unbounded (or
// limit-bounded) deterministic record sequence derived from the seed.
type SyntheticSource struct {
	g     *datagen.Generator
	limit int64
	read  int64
	buf   []byte // the last block, encoded
}

// NewSynthetic builds a synthetic stream. limit > 0 bounds the stream to
// that many records; 0 streams forever (the engine's MaxWindows then bounds
// the run).
func NewSynthetic(cfg datagen.Config, limit int64) (*SyntheticSource, error) {
	g, err := datagen.New(cfg)
	if err != nil {
		return nil, err
	}
	return &SyntheticSource{g: g, limit: limit}, nil
}

// Schema returns the generator's record schema.
func (s *SyntheticSource) Schema() *record.Schema { return s.g.Schema() }

// Rows generates the next n records (fewer at the limit) and encodes them
// into a buffer reused from call to call.
func (s *SyntheticSource) Rows(n int) ([]byte, error) {
	if s.limit > 0 {
		n = int(min(int64(n), s.limit-s.read))
	}
	s.buf = s.buf[:0]
	for range n {
		s.buf = s.g.Next().Encode(s.buf)
	}
	s.read += int64(max(n, 0))
	return s.buf, nil
}

func (s *SyntheticSource) Close() error { return nil }

// TailOptions tunes a TailSource.
type TailOptions struct {
	// Poll is how often the tail re-checks the file for appended records
	// when it has caught up (default 50ms). Where the platform reports
	// file events (Linux) an append wakes the tail at once, and Poll only
	// bounds how late a missed event can make it.
	Poll time.Duration
	// Limit > 0 ends the stream cleanly after that many records; 0 tails
	// forever.
	Limit int64
	// Stop, when non-nil, ends the stream cleanly when closed — the tail
	// equivalent of the writer closing the pipe.
	Stop <-chan struct{}
}

// TailSource follows a binary record file the way `tail -f` follows a log:
// it reads whole records as they are appended and, when it has caught up,
// waits for the next write to the file (or the next poll). Both dataset
// formats are tailed. A checksummed v2 file (record.V2Magic, as
// `datagen -stream` now produces) is consumed block by block with every
// block CRC verified, and Rows hands out views of the verified block: an
// incomplete trailing block is a writer mid-append and is polled until
// whole, while a complete block that fails its checksum — or an
// implausible block header — is data corruption and surfaces as an error
// with the file offset. A legacy headerless fixed-width file is read as
// the whole records already written, with no protection; either way a
// partial record is never surfaced.
type TailSource struct {
	schema *record.Schema
	f      *os.File
	opts   TailOptions
	off    int64
	read   int64
	buf    []byte // v1: the rows of the last call
	// Format detection state: the first bytes of the file decide the mode,
	// which may not be knowable before the writer's first append.
	sniffed bool
	v2      bool
	hdr     record.V2Header
	block   []byte // verified payload of the current v2 block
	bpos    int    // offset of the block's first row not yet handed out
	// The file's change watch, armed on the first wait so a tail that
	// never catches up with its writer never holds one. armed stays set
	// when arming failed: the tail then polls without retrying.
	armed   bool
	wake    <-chan struct{}
	unwatch func()
}

// TailFile opens path for tailing. The file must exist (create it empty
// before starting the writer if needed); the format is detected from its
// first bytes, waiting for the writer when the file is still empty.
func TailFile(schema *record.Schema, path string, opts TailOptions) (*TailSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if opts.Poll <= 0 {
		opts.Poll = 50 * time.Millisecond
	}
	s := &TailSource{schema: schema, f: f, opts: opts}
	// Best-effort early sniff so HeaderChecksum is available right after
	// open when the writer already wrote the header (the common case).
	if err := s.sniff(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// HeaderChecksum returns the tailed v2 file's header checksum — the dataset
// fingerprint window checkpoints bind — or 0 for a legacy v1 file (or when
// the file's first bytes have not been written yet).
func (s *TailSource) HeaderChecksum() uint32 { return s.hdr.CRC }

// sniff decides the file format from its first bytes. It is a no-op once
// decided, and leaves s.sniffed false (no error) while the file is still
// too short to tell — the writer has not appended the header yet.
func (s *TailSource) sniff() error {
	if s.sniffed {
		return nil
	}
	head := make([]byte, record.V2HeaderSize)
	n, err := s.f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
	}
	if n < len(record.V2Magic) {
		return nil // too short to tell; poll
	}
	if string(head[:len(record.V2Magic)]) != record.V2Magic {
		s.sniffed = true // legacy fixed-width file
		return nil
	}
	if n < record.V2HeaderSize {
		return nil // header mid-append; poll
	}
	hdr, err := record.ParseV2Header(head)
	if err != nil {
		return fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
	}
	if hdr.RecordBytes != uint32(s.schema.RecordBytes()) {
		return fmt.Errorf("stream: tail %s: file record width %d does not match schema width %d",
			s.f.Name(), hdr.RecordBytes, s.schema.RecordBytes())
	}
	s.sniffed, s.v2, s.hdr = true, true, hdr
	s.off = record.V2HeaderSize
	return nil
}

// nextBlock reads and verifies the next v2 block. (false, nil) means the
// block is not fully appended yet — poll; errors are corruption.
func (s *TailSource) nextBlock() (bool, error) {
	var bh [record.V2BlockHeaderSize]byte
	n, err := s.f.ReadAt(bh[:], s.off)
	if n < len(bh) {
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
		}
		return false, nil
	}
	plen, err := record.V2BlockLen(bh[:], uint32(s.schema.RecordBytes()))
	if err != nil {
		return false, fmt.Errorf("stream: tail %s at offset %d: %w", s.f.Name(), s.off, err)
	}
	if cap(s.block) < int(plen) {
		s.block = make([]byte, plen)
	}
	s.block = s.block[:plen]
	n, err = s.f.ReadAt(s.block, s.off+record.V2BlockHeaderSize)
	if n < int(plen) {
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
		}
		s.block = s.block[:0]
		return false, nil
	}
	if err := record.VerifyV2Block(bh[:], s.block); err != nil {
		return false, fmt.Errorf("stream: tail %s at offset %d: %w", s.f.Name(), s.off, err)
	}
	s.bpos = 0
	s.off += record.V2BlockHeaderSize + int64(plen)
	return true, nil
}

// wait blocks until the file is written, a poll interval passes or Stop
// closes; true means Stop closed (clean end). The first call arms the
// file's change watch and returns at once, so the caller reads the file
// once more before it blocks: an append that landed before the watch was
// armed is not left waiting for the poll.
func (s *TailSource) wait() bool {
	if !s.armed {
		s.armed = true
		if wake, unwatch, err := notify.Watch(s.f.Name(), nil); err == nil {
			s.wake, s.unwatch = wake, unwatch
			return false
		}
	}
	t := time.NewTimer(s.opts.Poll)
	defer t.Stop()
	select {
	case <-s.opts.Stop:
		return true
	case <-s.wake:
	case <-t.C:
	}
	return false
}

// Rows returns the next whole records, at least one and at most n: a view
// of the verified v2 block, whose rest is kept for the next call, or of
// the legacy records already written. It waits for the writer when it has
// caught up, and returns no rows at Limit or when Stop closes.
func (s *TailSource) Rows(n int) ([]byte, error) {
	if s.opts.Limit > 0 {
		n = int(min(int64(n), s.opts.Limit-s.read))
	}
	if n <= 0 {
		return nil, nil
	}
	rb := s.schema.RecordBytes()
	for {
		if err := s.sniff(); err != nil {
			return nil, err
		}
		if !s.sniffed {
			if s.wait() {
				return nil, nil
			}
			continue
		}
		if s.v2 {
			if s.bpos < len(s.block) {
				k := min(n, (len(s.block)-s.bpos)/rb)
				out := s.block[s.bpos : s.bpos+k*rb]
				s.bpos += k * rb
				s.read += int64(k)
				return out, nil
			}
			ok, err := s.nextBlock()
			if err != nil {
				return nil, err
			}
			if !ok && s.wait() {
				return nil, nil
			}
			continue
		}
		s.buf = slices.Grow(s.buf[:0], n*rb)[:n*rb]
		got, err := s.f.ReadAt(s.buf, s.off)
		if k := got / rb; k > 0 {
			s.off += int64(k * rb)
			s.read += int64(k)
			return s.buf[:k*rb], nil
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
		}
		// Caught up (or a record is mid-append): wait for the writer.
		if s.wait() {
			return nil, nil
		}
	}
}

// Next reads one record into rec through Rows; (false, nil) is a clean end.
func (s *TailSource) Next(rec *record.Record) (bool, error) {
	row, err := s.Rows(1)
	if err != nil || len(row) == 0 {
		return false, err
	}
	if _, err := rec.Decode(s.schema, row); err != nil {
		return false, fmt.Errorf("stream: tail %s: %w", s.f.Name(), err)
	}
	return true, nil
}

// Close releases the file and its change watch.
func (s *TailSource) Close() error {
	if s.unwatch != nil {
		s.unwatch()
		s.unwatch = nil
	}
	return s.f.Close()
}
