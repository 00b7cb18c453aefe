// Package ooc is the out-of-core substrate: per-processor private record
// files with paged sequential access, explicit I/O accounting against the
// simulated cost model, and the memory-limit ledger that decides when node
// data must stay disk-resident.
//
// The paper assumes a shared-nothing machine where each processor owns a
// disk it controls independently; a Store is exactly that — one rank's
// private disk namespace. Two backends exist: real files under a directory,
// and an in-memory map (deterministic tests, simulated clusters with many
// ranks). Both charge identical simulated I/O costs, so experiment shape
// does not depend on the backend.
package ooc

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"pclouds/internal/costmodel"
	"pclouds/internal/record"
)

// PageSize is the unit of disk transfer for cost accounting and buffering.
const PageSize = 64 << 10

// IOStats counts a store's disk traffic.
type IOStats struct {
	ReadOps    int64
	ReadBytes  int64
	WriteOps   int64
	WriteBytes int64
	// WaitSec is the wall-clock seconds the owning rank spent blocked on the
	// asynchronous I/O pipeline — waiting for a prefetched page that was not
	// ready, or for space in a write-behind queue. Always zero for
	// synchronous stores (Pipeline disabled): there the whole transfer is
	// inline, and inline time is attributed to the enclosing compute span.
	WaitSec float64
	// Creates counts files created with CreateWriter, and CreateSec the
	// wall-clock seconds the backend spent creating them: the per-file
	// metadata cost a build pays once per node file.
	Creates   int64
	CreateSec float64
}

// Add accumulates o into s.
func (s *IOStats) Add(o IOStats) {
	s.ReadOps += o.ReadOps
	s.ReadBytes += o.ReadBytes
	s.WriteOps += o.WriteOps
	s.WriteBytes += o.WriteBytes
	s.WaitSec += o.WaitSec
	s.Creates += o.Creates
	s.CreateSec += o.CreateSec
}

// Sub returns s minus o, field by field.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		ReadOps:    s.ReadOps - o.ReadOps,
		ReadBytes:  s.ReadBytes - o.ReadBytes,
		WriteOps:   s.WriteOps - o.WriteOps,
		WriteBytes: s.WriteBytes - o.WriteBytes,
		WaitSec:    s.WaitSec - o.WaitSec,
		Creates:    s.Creates - o.Creates,
		CreateSec:  s.CreateSec - o.CreateSec,
	}
}

func (s IOStats) String() string {
	out := fmt.Sprintf("read %d ops/%d B, write %d ops/%d B", s.ReadOps, s.ReadBytes, s.WriteOps, s.WriteBytes)
	if s.WaitSec > 0 {
		out += fmt.Sprintf(", io-wait %.6fs", s.WaitSec)
	}
	if s.Creates > 0 {
		out += fmt.Sprintf(", create %d files/%.6fs", s.Creates, s.CreateSec)
	}
	return out
}

// Backend abstracts the storage medium. It is exported so cross-cutting
// layers — fault injection, instrumentation — can wrap a store's medium via
// WrapBackend without knowing whether files or memory sit underneath.
type Backend interface {
	// Create truncates (or creates) a named file for writing.
	Create(name string) (io.WriteCloser, error)
	// Append opens a named file for appending, creating it if absent.
	Append(name string) (io.WriteCloser, error)
	// Open opens a named file for sequential reading.
	Open(name string) (io.ReadCloser, error)
	// Size reports a named file's length in bytes.
	Size(name string) (int64, error)
	// Remove deletes a named file.
	Remove(name string) error
	// Rename atomically renames a file; used to quarantine corrupt
	// artifacts out of the live namespace without destroying evidence.
	Rename(oldName, newName string) error
	// List enumerates all file names.
	List() ([]string, error)
	// Sync flushes a named file to stable storage (no-op for memory).
	Sync(name string) error
}

// Store is one rank's private disk namespace for records of one schema.
type Store struct {
	schema   *record.Schema
	params   costmodel.Params
	clock    *costmodel.Clock
	b        Backend
	verify   *VerifyingBackend
	pipe     Pipeline
	statsMu  sync.Mutex
	stats    IOStats
	observer func(write bool, bytes int64)
}

// WrapBackend replaces the store's medium with wrap(current). Install
// wrappers before any I/O begins — readers and writers in flight keep the
// streams they opened.
func (s *Store) WrapBackend(wrap func(Backend) Backend) {
	s.b = wrap(s.b)
}

// Sync flushes a named file to stable storage; see Backend.Sync.
func (s *Store) Sync(name string) error { return s.b.Sync(name) }

// SetObserver installs a callback invoked on every charged page transfer
// (write=true for writes), letting live exporters (expvar, tracing) see I/O
// as it happens without polling. A nil observer (the default) costs one
// pointer comparison per page operation. The callback is invoked outside
// the store's stats lock (the installed function is snapshotted under the
// lock), so it may block or call back into the store — e.g. read Stats —
// without stalling page transfers or deadlocking. The relaxed guarantee is
// that a callback may observe a Stats snapshot that already includes
// transfers whose callbacks have not run yet.
func (s *Store) SetObserver(fn func(write bool, bytes int64)) {
	s.statsMu.Lock()
	s.observer = fn
	s.statsMu.Unlock()
}

// NewFileStore creates a store over real files in dir (created if absent).
func NewFileStore(schema *record.Schema, dir string, params costmodel.Params, clock *costmodel.Clock) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ooc: creating store dir: %w", err)
	}
	return &Store{schema: schema, params: params, clock: clock, b: &fileBackend{dir: dir}}, nil
}

// NewMemStore creates a store over an in-memory backend.
func NewMemStore(schema *record.Schema, params costmodel.Params, clock *costmodel.Clock) *Store {
	return &Store{schema: schema, params: params, clock: clock, b: newMemBackend()}
}

// Schema returns the store's record schema.
func (s *Store) Schema() *record.Schema { return s.schema }

// Stats returns cumulative I/O statistics.
func (s *Store) Stats() IOStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Clock returns the simulated clock charged by this store (may be nil).
func (s *Store) Clock() *costmodel.Clock { return s.clock }

func (s *Store) chargeRead(bytes int) {
	s.clock.Advance(s.params.DiskCost(bytes))
	s.statsMu.Lock()
	s.stats.ReadOps++
	s.stats.ReadBytes += int64(bytes)
	obs := s.observer
	s.statsMu.Unlock()
	if obs != nil {
		obs(false, int64(bytes))
	}
}

func (s *Store) chargeWrite(bytes int) {
	s.clock.Advance(s.params.DiskCost(bytes))
	s.statsMu.Lock()
	s.stats.WriteOps++
	s.stats.WriteBytes += int64(bytes)
	obs := s.observer
	s.statsMu.Unlock()
	if obs != nil {
		obs(true, int64(bytes))
	}
}

// addIOWait records time the rank spent blocked on the async pipeline.
func (s *Store) addIOWait(sec float64) {
	if sec <= 0 {
		return
	}
	s.statsMu.Lock()
	s.stats.WaitSec += sec
	s.statsMu.Unlock()
}

// Remove deletes a named record file.
func (s *Store) Remove(name string) error { return s.b.Remove(name) }

// List returns the names of all files in the store, sorted.
func (s *Store) List() ([]string, error) {
	names, err := s.b.List()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Count returns the number of records in a named file.
func (s *Store) Count(name string) (int64, error) {
	sz, err := s.b.Size(name)
	if err != nil {
		return 0, err
	}
	rb := int64(s.schema.RecordBytes())
	if sz%rb != 0 {
		return 0, fmt.Errorf("ooc: file %q size %d not a multiple of record size %d", name, sz, rb)
	}
	return sz / rb, nil
}

// Writer appends records to a named file with page-sized buffered writes.
// With the store's Pipeline enabled, full pages are handed to a background
// write-behind goroutine instead of being written inline; a background
// write failure is sticky and surfaces on the next Write, Flush or Close.
type Writer struct {
	s    *Store
	wc   io.WriteCloser // nil when write-behind owns the stream
	buf  []byte
	n    int64
	name string
	wb   *writeBehind // nil = synchronous
}

func (s *Store) newWriter(wc io.WriteCloser, name string) *Writer {
	w := &Writer{s: s, buf: getPage()[:0], name: name}
	if pl := s.Pipeline(); pl.Enabled {
		w.wb = startWriteBehind(wc, pl.depth())
	} else {
		w.wc = wc
	}
	return w
}

// CreateWriter creates (truncates) a named file for appending records.
func (s *Store) CreateWriter(name string) (*Writer, error) {
	t0 := time.Now()
	wc, err := s.b.Create(name)
	if err != nil {
		return nil, fmt.Errorf("ooc: creating %q: %w", name, err)
	}
	s.statsMu.Lock()
	s.stats.Creates++
	s.stats.CreateSec += time.Since(t0).Seconds()
	s.statsMu.Unlock()
	return s.newWriter(wc, name), nil
}

// AppendWriter opens a named file for appending records after its existing
// contents; the file is created if absent. Used when records arrive from
// several sources (e.g. task-parallel redistribution).
func (s *Store) AppendWriter(name string) (*Writer, error) {
	wc, err := s.b.Append(name)
	if err != nil {
		return nil, fmt.Errorf("ooc: appending to %q: %w", name, err)
	}
	return s.newWriter(wc, name), nil
}

// Write appends one record.
func (w *Writer) Write(rec record.Record) error {
	w.buf = rec.Encode(w.buf)
	w.n++
	if len(w.buf) >= PageSize {
		return w.flush()
	}
	return nil
}

// WriteRows appends the listed rows of page, whole records in the layout
// Record.Encode writes (row i is the i-th record), in list order: the bytes
// are copied straight into the writer's page, never decoded. Pages are
// flushed at the same record boundaries as record-by-record Write calls,
// so the file, its write operations and its checksum frames are the same.
// Every listed row must lie within page.
func (w *Writer) WriteRows(page []byte, rows []int32) error {
	rb := w.s.schema.RecordBytes()
	for len(rows) > 0 {
		// The rows that reach PageSize, at least one.
		take := rows[:min(len(rows), max(1, (PageSize-len(w.buf)+rb-1)/rb))]
		for _, r := range take {
			off := int(r) * rb
			w.buf = append(w.buf, page[off:off+rb]...)
		}
		w.n += int64(len(take))
		rows = rows[len(take):]
		if len(w.buf) >= PageSize {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.wb != nil {
		return w.handoff()
	}
	if _, err := w.wc.Write(w.buf); err != nil {
		return fmt.Errorf("ooc: writing %q: %w", w.name, err)
	}
	w.s.chargeWrite(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// handoff passes the current page to the write-behind goroutine, charging
// its cost here — the same logical point the synchronous flush charges — so
// accounting does not depend on when the physical write lands. Time spent
// blocked on a full queue is recorded as I/O wait.
func (w *Writer) handoff() error {
	if err := w.wb.fail(); err != nil {
		return fmt.Errorf("ooc: writing %q: %w", w.name, err)
	}
	w.s.chargeWrite(len(w.buf))
	item := wbItem{data: w.buf}
	select {
	case w.wb.ch <- item:
	default:
		t0 := time.Now()
		w.wb.ch <- item
		w.s.addIOWait(time.Since(t0).Seconds())
	}
	w.buf = getPage()[:0]
	return nil
}

// Flush forces every buffered record out: the current partial page is
// written (or handed off) and, when write-behind is active, the call blocks
// until the background goroutine has drained the queue — an explicit
// barrier that also surfaces any background write error.
func (w *Writer) Flush() error {
	if err := w.flush(); err != nil {
		return err
	}
	if w.wb == nil {
		return nil
	}
	ack := make(chan error, 1)
	t0 := time.Now()
	w.wb.ch <- wbItem{ack: ack}
	err := <-ack
	w.s.addIOWait(time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("ooc: writing %q: %w", w.name, err)
	}
	return nil
}

// Close flushes and closes the file and gives the writer's page back. With
// write-behind active it is the final barrier: it waits for the background
// goroutine to drain the queue and release the stream, and reports any
// write error still pending. Closing twice is a no-op.
func (w *Writer) Close() error {
	if w.buf == nil {
		return nil
	}
	defer func() {
		putPage(w.buf)
		w.buf = nil
	}()
	if w.wb == nil {
		if err := w.flush(); err != nil {
			w.wc.Close()
			return err
		}
		return w.wc.Close()
	}
	ferr := w.flush()
	close(w.wb.ch)
	<-w.wb.stopped
	if ferr != nil {
		return ferr
	}
	if err := w.wb.fail(); err != nil {
		return fmt.Errorf("ooc: writing %q: %w", w.name, err)
	}
	if err := w.wb.closeErr; err != nil {
		return fmt.Errorf("ooc: closing %q: %w", w.name, err)
	}
	return nil
}

// Reader scans a named file sequentially, one page at a time. With the
// store's Pipeline enabled, pages are pulled ahead of the scan by a
// background prefetcher; the records seen, the error behaviour and the
// charged page counts are identical to the synchronous path.
type Reader struct {
	s    *Store
	rc   io.ReadCloser // nil when the prefetcher owns the stream
	buf  []byte
	off  int
	end  int
	eof  bool
	name string
	rb   int
	pf   *prefetcher // nil = synchronous
}

// OpenReader opens a named file for sequential scanning.
func (s *Store) OpenReader(name string) (*Reader, error) {
	rc, err := s.b.Open(name)
	if err != nil {
		return nil, fmt.Errorf("ooc: opening %q: %w", name, err)
	}
	r := &Reader{s: s, buf: getPage()[:PageSize], name: name, rb: s.schema.RecordBytes()}
	// Records wider than a page cannot be streamed; keep the synchronous
	// path so the existing diagnostics fire unchanged.
	if pl := s.Pipeline(); pl.Enabled && r.rb > 0 && r.rb <= PageSize {
		r.pf = startPrefetch(rc, r.rb, pl.depth())
	} else {
		r.rc = rc
	}
	return r, nil
}

// Next reads the next record into rec. It returns false at end of file.
func (r *Reader) Next(rec *record.Record) (bool, error) {
	if ok, err := r.window(); !ok {
		return false, err
	}
	if _, err := rec.Decode(r.s.schema, r.buf[r.off:r.end]); err != nil {
		return false, err
	}
	r.off += r.rb
	return true, nil
}

// window makes at least one whole record available at r.off, reading more
// of the file when needed. It reports false at end of file.
func (r *Reader) window() (bool, error) {
	if r.buf == nil {
		return false, fmt.Errorf("ooc: reading %q: reader closed", r.name)
	}
	if r.end-r.off >= r.rb {
		return true, nil
	}
	if err := r.fill(); err != nil {
		return false, err
	}
	if r.end-r.off < r.rb {
		if r.end != r.off {
			return false, fmt.Errorf("ooc: %q: %d trailing bytes", r.name, r.end-r.off)
		}
		return false, nil
	}
	return true, nil
}

// NextPage returns the next whole encoded records of the file, at most a
// page of them, in the layout Record.Encode writes. The slice is the
// reader's own window: it is valid until the next NextPage, Next or Close,
// and must not be modified. It is empty at end of file.
func (r *Reader) NextPage() ([]byte, error) {
	if ok, err := r.window(); !ok {
		return nil, err
	}
	n := (r.end - r.off) / r.rb * r.rb
	page := r.buf[r.off : r.off+n]
	r.off += n
	return page, nil
}

// ScanPages streams a named file through fn one NextPage at a time and
// returns the number of records it held.
func (s *Store) ScanPages(name string, fn func(page []byte) error) (int64, error) {
	r, err := s.OpenReader(name)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var n int64
	for {
		page, err := r.NextPage()
		if err != nil || len(page) == 0 {
			return n, err
		}
		n += int64(len(page) / r.rb)
		if err := fn(page); err != nil {
			return n, err
		}
	}
}

func (r *Reader) fill() error {
	// Move the partial tail to the front and top the page up.
	copy(r.buf, r.buf[r.off:r.end])
	r.end -= r.off
	r.off = 0
	if r.eof {
		return nil
	}
	if r.pf != nil {
		return r.fillPrefetched()
	}
	n, err := io.ReadFull(r.rc, r.buf[r.end:])
	if n > 0 {
		r.s.chargeRead(n)
		r.end += n
	}
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		r.eof = true
	default:
		return fmt.Errorf("ooc: reading %q: %w", r.name, err)
	}
	return nil
}

// fillPrefetched takes the next page from the background reader, charging
// its cost here — the point the synchronous path would have performed the
// read — and recording time the scan actually stalled as I/O wait. With no
// partial record pending the prefetched page becomes the window and the
// old window goes back to the pool; a pending tail is kept in place and
// the page is copied in behind it.
func (r *Reader) fillPrefetched() error {
	var c pfChunk
	var ok bool
	select {
	case c, ok = <-r.pf.ch:
	default:
		t0 := time.Now()
		c, ok = <-r.pf.ch
		r.s.addIOWait(time.Since(t0).Seconds())
	}
	if !ok {
		r.eof = true
		return nil
	}
	if c.err != nil {
		r.eof = true
		return fmt.Errorf("ooc: reading %q: %w", r.name, c.err)
	}
	n := len(c.data)
	if r.end == 0 {
		putPage(r.buf)
		r.buf = c.data[:PageSize]
	} else {
		copied := copy(r.buf[r.end:], c.data)
		putPage(c.data)
		if copied != n {
			return fmt.Errorf("ooc: reading %q: prefetched page of %d bytes overflows %d-byte window", r.name, n, len(r.buf)-r.end)
		}
	}
	r.s.chargeRead(n)
	r.end += n
	return nil
}

// Close releases the underlying file and gives the reader's pages back.
// With the prefetcher active it also cancels the background read-ahead —
// abandoning a scan mid-stream leaks no goroutine and no page — and waits
// for the stream to be released. Closing twice is a no-op.
func (r *Reader) Close() error {
	if r.buf == nil {
		return nil
	}
	putPage(r.buf)
	r.buf = nil
	if r.pf != nil {
		return r.pf.stop()
	}
	return r.rc.Close()
}

// WriteAll writes an entire record slice to a named file.
func (s *Store) WriteAll(name string, recs []record.Record) error {
	w, err := s.CreateWriter(name)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// ReadAll loads an entire named file into memory. Callers are responsible
// for respecting their memory budget; the tree-building code only does this
// for small nodes and samples.
func (s *Store) ReadAll(name string) ([]record.Record, error) {
	var out []record.Record
	_, err := s.ScanPages(name, func(page []byte) error {
		recs, err := record.DecodeAll(s.schema, page)
		out = append(out, recs...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
