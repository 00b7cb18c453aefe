package ooc

// Data-plane integrity for out-of-core stores. A VerifyingBackend wraps any
// Backend and turns every file it holds into a sequence of self-describing
// checksummed frames:
//
//	magic    4 bytes  "pOC1"
//	seq      u32 LE   frame index within the file (0-based)
//	len      u32 LE   payload bytes (1..PageSize)
//	crc      u32 LE   CRC-32C of the first 12 header bytes + payload
//	payload  len bytes
//
// The CRC covers the header fields as well as the payload, so a bit flip
// anywhere in a frame — magic, sequence, length or data — is detected on
// read. The sequence number additionally catches frames that were swapped,
// duplicated or dropped by a buggy lower layer. Because the wrapper sits
// below Store's page buffering and above the physical medium, the same
// verification covers the synchronous path and the read-ahead/write-behind
// pipeline (the background goroutines read through the same stream).
//
// Reads retry transient failures transparently: on any read error or
// checksum mismatch the reader re-opens the file, seeks back to the frame
// it was decoding, and tries again, up to IntegrityOptions.Retries times
// with exponential backoff. Only a persistent failure surfaces, as a
// *CorruptionError naming the file, the physical byte offset of the bad
// frame, and the expected/actual CRC — the attribution the collective
// recovery protocol in internal/pclouds ships to every rank.
//
// Composition with the fault injector: Store.WrapBackend makes the later
// wrapper outermost, so install fault.WrapBackend first and EnableIntegrity
// second (Store → verifier → injector → medium). That way injected read
// corruption is seen — and must be caught — by the verifier.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pclouds/internal/durable"
)

// FrameMagic starts every frame written by a VerifyingBackend; scrubbers
// use it to classify files.
const FrameMagic = "pOC1"

// FrameHeaderSize is the fixed per-frame header length in bytes.
const FrameHeaderSize = 16

// ErrCorrupt is the sentinel wrapped by every CorruptionError; callers test
// with errors.Is.
var ErrCorrupt = errors.New("ooc: data corruption detected")

// CorruptionError is a verification failure with root-cause attribution:
// which file, at which physical byte offset, and what the checksum said.
type CorruptionError struct {
	// File is the store-level file name.
	File string
	// Offset is the physical byte offset of the corrupt frame's header.
	Offset int64
	// Seq is the frame index the reader expected at that offset.
	Seq uint32
	// WantCRC and GotCRC are the stored and recomputed checksums (both zero
	// when the failure was structural — bad magic, truncation, I/O error —
	// rather than a checksum mismatch).
	WantCRC, GotCRC uint32
	// Reason is a one-line diagnosis.
	Reason string
}

func (e *CorruptionError) Error() string {
	if e.WantCRC != e.GotCRC {
		return fmt.Sprintf("ooc: %q: frame %d at offset %d: %s (crc want %08x got %08x)",
			e.File, e.Seq, e.Offset, e.Reason, e.WantCRC, e.GotCRC)
	}
	return fmt.Sprintf("ooc: %q: frame %d at offset %d: %s", e.File, e.Seq, e.Offset, e.Reason)
}

func (e *CorruptionError) Unwrap() error { return ErrCorrupt }

// IntegrityStats counts a verifying backend's activity.
type IntegrityStats struct {
	// FramesWritten and FramesRead count frames that passed through.
	FramesWritten int64
	FramesRead    int64
	// Retries counts transparent re-open-and-re-read attempts after a read
	// error or checksum mismatch (whether or not they eventually succeeded).
	Retries int64
	// Corruptions counts verification failures that exhausted the retry
	// budget and surfaced to the caller.
	Corruptions int64
}

// IntegrityOptions tunes a VerifyingBackend.
type IntegrityOptions struct {
	// Retries is how many times a failed frame read is retried by
	// re-opening the file (default 2; negative disables retry).
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 1ms; tests set a negative value for no sleep).
	Backoff time.Duration
}

func (o IntegrityOptions) withDefaults() IntegrityOptions {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff == 0 {
		o.Backoff = time.Millisecond
	}
	if o.Backoff < 0 {
		o.Backoff = 0
	}
	return o
}

// fileMeta caches a file's logical geometry so Size stays O(1) after the
// first access: logical payload bytes and the number of frames.
type fileMeta struct {
	logical int64
	frames  uint32
}

// VerifyingBackend wraps an inner Backend with checksummed framing. Install
// it via Store.EnableIntegrity (or directly with Store.WrapBackend).
type VerifyingBackend struct {
	inner Backend
	opts  IntegrityOptions

	mu    sync.Mutex
	meta  map[string]fileMeta
	stats IntegrityStats
}

var _ Backend = (*VerifyingBackend)(nil)

// NewVerifyingBackend wraps inner with checksummed framing.
func NewVerifyingBackend(inner Backend, opts IntegrityOptions) *VerifyingBackend {
	return &VerifyingBackend{inner: inner, opts: opts.withDefaults(), meta: make(map[string]fileMeta)}
}

// Stats returns the verification counters so far.
func (b *VerifyingBackend) Stats() IntegrityStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

func (b *VerifyingBackend) setMeta(name string, m fileMeta) {
	b.mu.Lock()
	b.meta[name] = m
	b.mu.Unlock()
}

func (b *VerifyingBackend) dropMeta(name string) {
	b.mu.Lock()
	delete(b.meta, name)
	b.mu.Unlock()
}

func (b *VerifyingBackend) addStats(fn func(*IntegrityStats)) {
	b.mu.Lock()
	fn(&b.stats)
	b.mu.Unlock()
}

// metaOf returns a file's logical geometry, scanning (and verifying) the
// frame structure on a cache miss. The scan verifies every frame's CRC, so
// a Size or Count on a corrupt file fails with a CorruptionError instead of
// reporting plausible garbage.
func (b *VerifyingBackend) metaOf(name string) (fileMeta, error) {
	b.mu.Lock()
	if m, ok := b.meta[name]; ok {
		b.mu.Unlock()
		return m, nil
	}
	b.mu.Unlock()
	rc, err := b.inner.Open(name)
	if err != nil {
		return fileMeta{}, err
	}
	defer rc.Close()
	logical, frames, verr := VerifyFrames(name, rc)
	if verr != nil {
		b.addStats(func(s *IntegrityStats) { s.Corruptions++ })
		return fileMeta{}, verr
	}
	m := fileMeta{logical: logical, frames: frames}
	b.setMeta(name, m)
	return m, nil
}

// VerifyFrames scans a frame stream front to back, verifying every frame's
// checksum, and returns the logical payload size and frame count. It is the
// scrubber's entry point for ooc store files.
func VerifyFrames(name string, r io.Reader) (logical int64, frames uint32, err error) {
	page := getPage()
	defer putPage(page)
	hdr, payload := page[:FrameHeaderSize], page[FrameHeaderSize:FrameHeaderSize+PageSize]
	var off int64
	var seq uint32
	for {
		n, err := io.ReadFull(r, hdr)
		if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			return logical, seq, nil
		}
		if err != nil {
			return 0, 0, &CorruptionError{File: name, Offset: off, Seq: seq, Reason: fmt.Sprintf("truncated frame header: %v", err)}
		}
		plen, cerr := checkFrameHeader(name, off, seq, hdr)
		if cerr != nil {
			return 0, 0, cerr
		}
		if _, err := io.ReadFull(r, payload[:plen]); err != nil {
			return 0, 0, &CorruptionError{File: name, Offset: off, Seq: seq, Reason: fmt.Sprintf("truncated frame payload: %v", err)}
		}
		if cerr := checkFrameCRC(name, off, seq, hdr, payload[:plen]); cerr != nil {
			return 0, 0, cerr
		}
		logical += int64(plen)
		off += int64(FrameHeaderSize) + int64(plen)
		seq++
	}
}

// checkFrameHeader validates magic, sequence and payload length, returning
// the payload length.
func checkFrameHeader(name string, off int64, seq uint32, hdr []byte) (uint32, *CorruptionError) {
	if string(hdr[:4]) != FrameMagic {
		return 0, &CorruptionError{File: name, Offset: off, Seq: seq, Reason: fmt.Sprintf("bad frame magic %q", hdr[:4])}
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != seq {
		return 0, &CorruptionError{File: name, Offset: off, Seq: seq, Reason: fmt.Sprintf("frame sequence %d, want %d", got, seq)}
	}
	plen := binary.LittleEndian.Uint32(hdr[8:])
	if plen == 0 || plen > PageSize {
		return 0, &CorruptionError{File: name, Offset: off, Seq: seq, Reason: fmt.Sprintf("implausible frame payload length %d", plen)}
	}
	return plen, nil
}

// checkFrameCRC recomputes the frame checksum over header fields + payload.
func checkFrameCRC(name string, off int64, seq uint32, hdr, payload []byte) *CorruptionError {
	want := binary.LittleEndian.Uint32(hdr[12:])
	got := durable.Update(durable.Checksum(hdr[:12]), payload)
	if want != got {
		return &CorruptionError{File: name, Offset: off, Seq: seq, WantCRC: want, GotCRC: got, Reason: "frame checksum mismatch"}
	}
	return nil
}

// Create implements Backend.
func (b *VerifyingBackend) Create(name string) (io.WriteCloser, error) {
	wc, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	b.setMeta(name, fileMeta{})
	return &verifyWriter{b: b, name: name, inner: wc, frame: getPage()[:FrameHeaderSize]}, nil
}

// Append implements Backend: the writer continues the existing frame
// sequence, so appends from several sessions still verify end to end.
func (b *VerifyingBackend) Append(name string) (io.WriteCloser, error) {
	m, err := b.metaOf(name)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		// Absent file: appending creates it with a fresh sequence.
		m = fileMeta{}
	} else if err != nil {
		return nil, err
	}
	wc, err := b.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &verifyWriter{b: b, name: name, inner: wc, frame: getPage()[:FrameHeaderSize], seq: m.frames, baseLogical: m.logical}, nil
}

// Open implements Backend.
func (b *VerifyingBackend) Open(name string) (io.ReadCloser, error) {
	rc, err := b.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &verifyReader{b: b, name: name, inner: rc, frame: getPage()[:FrameHeaderSize+PageSize]}, nil
}

// Size implements Backend, reporting the file's *logical* (payload) size so
// Store.Count keeps working on top of the framed layout.
func (b *VerifyingBackend) Size(name string) (int64, error) {
	m, err := b.metaOf(name)
	if err != nil {
		return 0, err
	}
	return m.logical, nil
}

// Remove implements Backend.
func (b *VerifyingBackend) Remove(name string) error {
	b.dropMeta(name)
	return b.inner.Remove(name)
}

// Rename implements Backend.
func (b *VerifyingBackend) Rename(oldName, newName string) error {
	if err := b.inner.Rename(oldName, newName); err != nil {
		return err
	}
	b.mu.Lock()
	if m, ok := b.meta[oldName]; ok {
		b.meta[newName] = m
		delete(b.meta, oldName)
	} else {
		delete(b.meta, newName)
	}
	b.mu.Unlock()
	return nil
}

// List implements Backend.
func (b *VerifyingBackend) List() ([]string, error) { return b.inner.List() }

// Sync implements Backend.
func (b *VerifyingBackend) Sync(name string) error { return b.inner.Sync(name) }

// verifyWriter buffers logical bytes and emits one checksummed frame per
// PageSize of payload (plus a final partial frame on Close). The payload is
// buffered in place behind the frame header, so a frame goes out without
// being copied.
type verifyWriter struct {
	b           *VerifyingBackend
	name        string
	inner       io.WriteCloser
	frame       []byte // pooled page: header, then the payload so far
	seq         uint32
	baseLogical int64
	written     int64
	closed      bool
	err         error
}

func (w *verifyWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("ooc: writing %q: writer closed", w.name)
	}
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		n := min(FrameHeaderSize+PageSize-len(w.frame), len(p))
		w.frame = append(w.frame, p[:n]...)
		p = p[n:]
		if len(w.frame) == FrameHeaderSize+PageSize {
			if err := w.emit(); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

func (w *verifyWriter) emit() error {
	f, payload := w.frame, w.frame[FrameHeaderSize:]
	copy(f, FrameMagic)
	binary.LittleEndian.PutUint32(f[4:], w.seq)
	binary.LittleEndian.PutUint32(f[8:], uint32(len(payload)))
	crc := durable.Update(durable.Checksum(f[:12]), payload)
	binary.LittleEndian.PutUint32(f[12:], crc)
	if _, err := w.inner.Write(f); err != nil {
		w.err = err
		return err
	}
	w.seq++
	w.written += int64(len(payload))
	w.frame = w.frame[:FrameHeaderSize]
	w.b.addStats(func(s *IntegrityStats) { s.FramesWritten++ })
	return nil
}

func (w *verifyWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var ferr error
	if w.err == nil && len(w.frame) > FrameHeaderSize {
		ferr = w.emit()
	}
	putPage(w.frame)
	cerr := w.inner.Close()
	if w.err == nil && ferr == nil && cerr == nil {
		w.b.setMeta(w.name, fileMeta{logical: w.baseLogical + w.written, frames: w.seq})
	} else {
		// The file's physical state is unknown; force a rescan next time.
		w.b.dropMeta(w.name)
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// verifyReader decodes frames, verifying each before surfacing its payload.
// Failed frames are retried transparently by re-opening the file and
// discarding back to the frame's physical offset.
type verifyReader struct {
	b       *VerifyingBackend
	name    string
	inner   io.ReadCloser
	frame   []byte // scratch: header + payload
	payload []byte // unconsumed slice of the current frame's payload
	physOff int64  // physical offset of the next frame header
	seq     uint32
	eof     bool
	sticky  error
}

func (r *verifyReader) Read(p []byte) (int, error) {
	if r.sticky != nil {
		return 0, r.sticky
	}
	for len(r.payload) == 0 {
		if r.eof {
			return 0, io.EOF
		}
		if err := r.nextFrame(); err != nil {
			r.sticky = err
			return 0, err
		}
	}
	n := copy(p, r.payload)
	r.payload = r.payload[n:]
	return n, nil
}

// nextFrame reads and verifies one frame, retrying by re-open on failure.
func (r *verifyReader) nextFrame() error {
	var lastErr error
	backoff := r.b.opts.Backoff
	for attempt := 0; attempt <= r.b.opts.Retries; attempt++ {
		if attempt > 0 {
			r.b.addStats(func(s *IntegrityStats) { s.Retries++ })
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
			if err := r.reopen(); err != nil {
				break
			}
		}
		err := r.readFrame()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	r.b.addStats(func(s *IntegrityStats) { s.Corruptions++ })
	return lastErr
}

// reopen discards the failed stream and seeks a fresh one to the current
// frame boundary.
func (r *verifyReader) reopen() error {
	r.inner.Close()
	rc, err := r.b.inner.Open(r.name)
	if err != nil {
		r.inner = nopReadCloser{}
		return err
	}
	if _, err := io.CopyN(io.Discard, rc, r.physOff); err != nil {
		rc.Close()
		r.inner = nopReadCloser{}
		return err
	}
	r.inner = rc
	return nil
}

func (r *verifyReader) readFrame() error {
	hdr := r.frame[:FrameHeaderSize]
	n, err := io.ReadFull(r.inner, hdr)
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		r.eof = true
		return nil
	}
	if err != nil {
		return &CorruptionError{File: r.name, Offset: r.physOff, Seq: r.seq, Reason: fmt.Sprintf("truncated frame header: %v", err)}
	}
	plen, cerr := checkFrameHeader(r.name, r.physOff, r.seq, hdr)
	if cerr != nil {
		return cerr
	}
	payload := r.frame[FrameHeaderSize : FrameHeaderSize+plen]
	if _, err := io.ReadFull(r.inner, payload); err != nil {
		return &CorruptionError{File: r.name, Offset: r.physOff, Seq: r.seq, Reason: fmt.Sprintf("truncated frame payload: %v", err)}
	}
	if cerr := checkFrameCRC(r.name, r.physOff, r.seq, hdr, payload); cerr != nil {
		return cerr
	}
	r.seq++
	r.physOff += int64(FrameHeaderSize) + int64(plen)
	r.payload = payload
	r.b.addStats(func(s *IntegrityStats) { s.FramesRead++ })
	return nil
}

// Close releases the stream and gives the frame buffer back; closing twice
// is a no-op.
func (r *verifyReader) Close() error {
	if r.frame == nil {
		return nil
	}
	putPage(r.frame)
	r.frame, r.payload = nil, nil
	r.sticky = fmt.Errorf("ooc: reading %q: reader closed", r.name)
	return r.inner.Close()
}

type nopReadCloser struct{}

func (nopReadCloser) Read([]byte) (int, error) { return 0, io.EOF }
func (nopReadCloser) Close() error             { return nil }

// EnableIntegrity wraps the store's current backend (fault injectors and
// all) in a VerifyingBackend, so every page this store writes from now on
// carries a checksummed frame header and every read verifies it. Call it
// before any I/O, after any fault wrappers (the verifier must sit above
// them to observe injected corruption). Returns the wrapper for stats.
func (s *Store) EnableIntegrity(opts IntegrityOptions) *VerifyingBackend {
	vb := NewVerifyingBackend(s.b, opts)
	s.b = vb
	s.verify = vb
	return vb
}

// Integrity returns the store's verifying backend, or nil when
// EnableIntegrity was never called.
func (s *Store) Integrity() *VerifyingBackend { return s.verify }

// Quarantine sets a corrupt file aside under durable.QuarantineName,
// preserving the evidence for offline scrubbing while making sure no later
// open can consume the bad bytes. The rename goes through the backend, so
// fault injectors see it. It returns the quarantined name.
func (s *Store) Quarantine(name string) (string, error) {
	q := durable.QuarantineName(name)
	if err := s.b.Rename(name, q); err != nil {
		return "", fmt.Errorf("ooc: quarantining %q: %w", name, err)
	}
	return q, nil
}
