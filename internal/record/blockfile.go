package record

// Record-file format v2: the checksummed on-disk layout for datasets that
// live outside a build's private ooc store — the files `datagen` produces
// and the streaming ingest tails. Layout:
//
//	header (24 bytes)
//	  magic        8 bytes  "pcRECv2\n"
//	  recordBytes  u32 LE   fixed record width (schema-derived)
//	  fileID       u64 LE   generator identity (seed/config hash)
//	  headerCRC    u32 LE   CRC-32C of the first 20 bytes
//	blocks, each
//	  payloadLen   u32 LE   1..MaxV2BlockBytes, multiple of recordBytes
//	  blockCRC     u32 LE   CRC-32C of the payload
//	  payload      payloadLen bytes of fixed-width records
//
// The header checksum doubles as the file's *fingerprint*: checkpoint
// manifests bind it so a resume against a swapped or regenerated dataset is
// refused instead of silently training on different data. v1 files (raw
// fixed-width records, no header) remain readable — ReadBinary sniffs the
// magic — but carry no protection.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pclouds/internal/durable"
)

// V2Magic begins every v2 record file.
const V2Magic = "pcRECv2\n"

// V2HeaderSize and V2BlockHeaderSize are the fixed framing widths.
const (
	V2HeaderSize      = 24
	V2BlockHeaderSize = 8
)

// MaxV2BlockBytes bounds one block's payload; an implausible length in a
// block header is corruption, not a huge allocation.
const MaxV2BlockBytes = 16 << 20

// v2BlockRecords is the writer's records-per-block granularity.
const v2BlockRecords = 4096

// Checksum is durable.Checksum, the CRC-32C used throughout the data
// plane, kept for the benchmark harness that fingerprints trees with it.
func Checksum(b []byte) uint32 { return durable.Checksum(b) }

// V2Header is a parsed v2 file header. CRC is the stored header checksum —
// the dataset fingerprint checkpoints bind.
type V2Header struct {
	RecordBytes uint32
	FileID      uint64
	CRC         uint32
}

// EncodeV2Header renders the 24-byte file header.
func EncodeV2Header(recordBytes uint32, fileID uint64) []byte {
	b := make([]byte, V2HeaderSize)
	copy(b, V2Magic)
	binary.LittleEndian.PutUint32(b[8:], recordBytes)
	binary.LittleEndian.PutUint64(b[12:], fileID)
	binary.LittleEndian.PutUint32(b[20:], durable.Checksum(b[:20]))
	return b
}

// ParseV2Header validates and parses a 24-byte header.
func ParseV2Header(b []byte) (V2Header, error) {
	if len(b) < V2HeaderSize {
		return V2Header{}, fmt.Errorf("record: v2 header truncated: %d bytes", len(b))
	}
	if string(b[:8]) != V2Magic {
		return V2Header{}, fmt.Errorf("record: bad v2 magic %q", b[:8])
	}
	want := binary.LittleEndian.Uint32(b[20:])
	if got := durable.Checksum(b[:20]); got != want {
		return V2Header{}, fmt.Errorf("record: v2 header checksum mismatch (want %08x got %08x)", want, got)
	}
	h := V2Header{
		RecordBytes: binary.LittleEndian.Uint32(b[8:]),
		FileID:      binary.LittleEndian.Uint64(b[12:]),
		CRC:         want,
	}
	if h.RecordBytes == 0 {
		return V2Header{}, fmt.Errorf("record: v2 header declares zero record width")
	}
	return h, nil
}

// SniffHeader reports whether the file at path starts with a v2 header,
// returning the parsed header when it does. A v1 file (or one too short to
// hold a header) yields ok=false with no error; a file that *claims* the
// magic but fails header validation yields the validation error.
func SniffHeader(path string) (hdr V2Header, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return V2Header{}, false, err
	}
	defer f.Close()
	b := make([]byte, V2HeaderSize)
	n, err := io.ReadFull(f, b)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return V2Header{}, false, err
	}
	if n < len(V2Magic) || string(b[:8]) != V2Magic {
		return V2Header{}, false, nil
	}
	hdr, perr := ParseV2Header(b[:n])
	if perr != nil {
		return V2Header{}, false, perr
	}
	return hdr, true, nil
}

// EncodeV2Block renders one block (header + payload) into dst, which is
// grown as needed and returned. The payload must be a positive multiple of
// the record width and at most MaxV2BlockBytes; the caller guarantees it.
func EncodeV2Block(dst, payload []byte) []byte {
	var h [V2BlockHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], durable.Checksum(payload))
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// V2BlockLen validates a block header against the record width and reports
// the payload length.
func V2BlockLen(hdr []byte, recordBytes uint32) (uint32, error) {
	plen := binary.LittleEndian.Uint32(hdr[0:])
	if plen == 0 || plen > MaxV2BlockBytes {
		return 0, fmt.Errorf("record: implausible v2 block length %d", plen)
	}
	if recordBytes > 0 && plen%recordBytes != 0 {
		return 0, fmt.Errorf("record: v2 block length %d not a multiple of record width %d", plen, recordBytes)
	}
	return plen, nil
}

// VerifyV2Block checks a block payload against its header checksum.
func VerifyV2Block(hdr, payload []byte) error {
	want := binary.LittleEndian.Uint32(hdr[4:])
	if got := durable.Checksum(payload); got != want {
		return fmt.Errorf("record: v2 block checksum mismatch (want %08x got %08x)", want, got)
	}
	return nil
}

// WriteBinaryV2 streams the dataset in v2 form: checksummed header +
// checksummed blocks of v2BlockRecords records.
func (d *Dataset) WriteBinaryV2(w io.Writer, fileID uint64) error {
	rb := d.Schema.RecordBytes()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(EncodeV2Header(uint32(rb), fileID)); err != nil {
		return err
	}
	payload := make([]byte, 0, v2BlockRecords*rb)
	block := make([]byte, 0, V2BlockHeaderSize+v2BlockRecords*rb)
	flush := func() error {
		if len(payload) == 0 {
			return nil
		}
		block = EncodeV2Block(block[:0], payload)
		if _, err := bw.Write(block); err != nil {
			return err
		}
		payload = payload[:0]
		return nil
	}
	for i := range d.Records {
		payload = d.Records[i].Encode(payload)
		if len(payload) >= v2BlockRecords*rb {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// readBinaryV2 consumes a v2 stream after the magic has been sniffed,
// appending to d. Each block's checksum is verified before any of its rows
// is decoded.
func readBinaryV2(d *Dataset, br *bufio.Reader) (*Dataset, error) {
	s := d.Schema
	hb := make([]byte, V2HeaderSize)
	if _, err := io.ReadFull(br, hb); err != nil {
		return nil, fmt.Errorf("record: reading v2 header: %w", err)
	}
	hdr, err := ParseV2Header(hb)
	if err != nil {
		return nil, err
	}
	rb := s.RecordBytes()
	if hdr.RecordBytes != uint32(rb) {
		return nil, fmt.Errorf("record: v2 file record width %d does not match schema width %d", hdr.RecordBytes, rb)
	}
	var bh [V2BlockHeaderSize]byte
	var payload []byte
	for block := 0; ; block++ {
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			if err == io.EOF {
				return d, nil
			}
			return nil, fmt.Errorf("record: v2 block %d: truncated header: %w", block, err)
		}
		plen, err := V2BlockLen(bh[:], uint32(rb))
		if err != nil {
			return nil, fmt.Errorf("record: v2 block %d: %w", block, err)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("record: v2 block %d: truncated payload: %w", block, err)
		}
		if err := VerifyV2Block(bh[:], payload); err != nil {
			return nil, fmt.Errorf("record: v2 block %d: %w", block, err)
		}
		d.Records = decodeBlock(s, d.Records, payload, rb)
	}
}

// VerifyV2Stream scans a v2 stream front to back without a schema,
// verifying the header and every block checksum. It returns the parsed
// header and the number of records covered by valid blocks — the offline
// scrubber's entry point.
func VerifyV2Stream(r io.Reader) (V2Header, int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hb := make([]byte, V2HeaderSize)
	if _, err := io.ReadFull(br, hb); err != nil {
		return V2Header{}, 0, fmt.Errorf("record: reading v2 header: %w", err)
	}
	hdr, err := ParseV2Header(hb)
	if err != nil {
		return V2Header{}, 0, err
	}
	var records int64
	var bh [V2BlockHeaderSize]byte
	var payload []byte
	off := int64(V2HeaderSize)
	for block := 0; ; block++ {
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			if err == io.EOF {
				return hdr, records, nil
			}
			return hdr, records, fmt.Errorf("record: v2 block %d at offset %d: truncated header: %w", block, off, err)
		}
		plen, err := V2BlockLen(bh[:], hdr.RecordBytes)
		if err != nil {
			return hdr, records, fmt.Errorf("record: v2 block %d at offset %d: %w", block, off, err)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return hdr, records, fmt.Errorf("record: v2 block %d at offset %d: truncated payload: %w", block, off, err)
		}
		if err := VerifyV2Block(bh[:], payload); err != nil {
			return hdr, records, fmt.Errorf("record: v2 block %d at offset %d: %w", block, off, err)
		}
		records += int64(plen / hdr.RecordBytes)
		off += int64(V2BlockHeaderSize) + int64(plen)
	}
}
