package ooc

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzVerifyFrames: the frame-stream verifier (the scrubber's and the
// verifying backend's entry point) must never panic, and a stream it accepts
// must re-frame — each frame's payload appended through the verifying
// writer in turn — to the same bytes.
func FuzzVerifyFrames(f *testing.F) {
	seed := NewVerifyingBackend(newMemBackend(), IntegrityOptions{})
	for _, payload := range [][]byte{[]byte("first frame"), bytes.Repeat([]byte{7}, 40)} {
		w, err := seed.Append("seed")
		if err != nil {
			f.Fatal(err)
		}
		w.Write(payload)
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.inner.(*memBackend).files["seed"])
	f.Add([]byte{})
	f.Add([]byte(FrameMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		logical, frames, err := VerifyFrames("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		vb := NewVerifyingBackend(newMemBackend(), IntegrityOptions{})
		var n int64
		for off := 0; off < len(data); {
			plen := int(binary.LittleEndian.Uint32(data[off+8:]))
			w, err := vb.Append("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(data[off+FrameHeaderSize : off+FrameHeaderSize+plen]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			off += FrameHeaderSize + plen
			n += int64(plen)
		}
		if n != logical {
			t.Fatalf("accepted %d logical bytes, frames carry %d", logical, n)
		}
		var re []byte
		if frames > 0 {
			rc, err := vb.inner.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			if re, err = io.ReadAll(rc); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame stream does not re-frame identically")
		}
	})
}
