// Package wire is the hand-rolled framing protocol used by the TCP
// transport (the distributed substitute for MPI). A frame is:
//
//	magic   u32  0x70434c44 ("pCLD")
//	tag     i32  message tag
//	sentAt  f64  sender's simulated clock at send completion (0 if unused)
//	length  u64  payload byte count
//	crc     u32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// All integers are little-endian. The magic word catches desynchronised
// streams early; MaxFrame bounds memory against corrupt length fields; the
// payload checksum turns in-flight corruption into an immediate framing
// error at the receiver instead of silently delivering garbage records.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pclouds/internal/durable"
)

// Magic is the frame marker.
const Magic uint32 = 0x70434c44

// MaxFrame is the largest accepted payload (1 GiB); larger lengths are
// treated as stream corruption.
const MaxFrame = 1 << 30

// headerSize is the fixed frame header length in bytes.
const headerSize = 4 + 4 + 8 + 8 + 4

// Frame is one decoded message.
type Frame struct {
	Tag     int32
	SentAt  float64
	Payload []byte
}

// Write encodes and writes one frame.
func Write(w io.Writer, f Frame) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.Tag))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(f.SentAt))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[24:], durable.Checksum(f.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("wire: writing payload: %w", err)
		}
	}
	return nil
}

// Read reads and decodes one frame.
func Read(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return Frame{}, fmt.Errorf("wire: bad magic %#x (stream desynchronised)", m)
	}
	f := Frame{
		Tag:    int32(binary.LittleEndian.Uint32(hdr[4:])),
		SentAt: math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
	}
	n := binary.LittleEndian.Uint64(hdr[16:])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("wire: reading payload: %w", err)
		}
	}
	want := binary.LittleEndian.Uint32(hdr[24:])
	if got := durable.Checksum(f.Payload); got != want {
		return Frame{}, fmt.Errorf("wire: payload checksum mismatch (got %#x, want %#x): frame corrupt", got, want)
	}
	return f, nil
}

// Conn wraps a byte stream with buffered framed I/O. It is not safe for
// concurrent use; callers serialise writers (the TCP transport holds a
// mutex) and dedicate one reader goroutine per connection.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn buffers rw for framed exchange.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, 1<<16), w: bufio.NewWriterSize(rw, 1<<16)}
}

// Send writes a frame and flushes it.
func (c *Conn) Send(f Frame) error {
	if err := Write(c.w, f); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads the next frame.
func (c *Conn) Recv() (Frame, error) { return Read(c.r) }
