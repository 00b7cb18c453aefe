package pclouds

import (
	"encoding/binary"
	"errors"
)

// Wire frames of the build's collectives (alive descriptors, point buckets,
// candidate vectors, ballots, task records, subtrees) are little-endian
// sequences of u32/u64 fields. Encoders pre-size their buffer from counts
// they already know and append with binary.LittleEndian.AppendUint*; every
// decoder reads through frameReader, which checks each field — and each
// count against the bytes actually present — before anything is allocated
// or indexed.

var errShortFrame = errors.New("truncated frame")

// frameReader consumes a frame front to back. The first read past the end
// sets err and every later read returns zero, so a decoder can read a whole
// record and check err once.
type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.err = errShortFrame
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count and fails unless that many elements of
// elemBytes each are still present — the check that keeps a corrupt length
// field from sizing an allocation.
func (r *frameReader) count(elemBytes int) int {
	n := uint64(r.u32())
	if r.err == nil && n*uint64(elemBytes) > uint64(len(r.buf)) {
		r.err = errShortFrame
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// more reports whether unread bytes remain (and no read has failed).
func (r *frameReader) more() bool { return r.err == nil && len(r.buf) > 0 }
