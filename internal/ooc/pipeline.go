package ooc

import (
	"io"
	"sync"
)

// Pipeline configures the store's asynchronous I/O pipeline: when enabled,
// every sequential scan is fed by a bounded read-ahead prefetcher (Depth
// pages in flight, read by a background goroutine) and every writer hands
// full pages to a write-behind goroutine, so compute overlaps disk latency
// instead of serializing behind every page.
//
// The pipeline is invisible to everything but the wall clock: record order,
// error behaviour at page granularity, IOStats page counts and the
// simulated-cost charges are identical to the synchronous path, because the
// background goroutines move raw bytes only — every charge is applied by
// the owning rank goroutine at the same logical point in its record stream
// as the synchronous code (see DESIGN.md §9).
type Pipeline struct {
	// Enabled turns the pipeline on. Off (the zero value), all I/O is
	// strictly synchronous page-at-a-time, as the paper's cost model charges.
	Enabled bool
	// Depth is the number of pages in flight per open stream; values below 2
	// (including zero) mean DefaultPipelineDepth.
	Depth int
}

// DefaultPipelineDepth is the per-stream page window used when a Pipeline
// is enabled without an explicit depth.
const DefaultPipelineDepth = 4

func (p Pipeline) depth() int {
	if p.Depth >= 2 {
		return p.Depth
	}
	return DefaultPipelineDepth
}

// SetPipeline configures the store's asynchronous I/O pipeline. It applies
// to streams opened afterwards; call it before the build starts, from the
// goroutine that owns the store.
func (s *Store) SetPipeline(p Pipeline) {
	s.statsMu.Lock()
	s.pipe = p
	s.statsMu.Unlock()
}

// Pipeline returns the store's pipeline configuration.
func (s *Store) Pipeline() Pipeline {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.pipe
}

// pfChunk is one prefetched page (or the background reader's error).
type pfChunk struct {
	data []byte
	err  error
}

// prefetcher reads ahead of a sequential scan: a background goroutine pulls
// pages from the backend into a bounded channel, replicating the exact
// transfer sizes of the synchronous Reader so that the consumer can charge
// identical per-page costs as it drains them.
type prefetcher struct {
	ch chan pfChunk
	// cancel stops the goroutine early (scan abandoned mid-stream); stopped
	// closes once it has exited and released the backend stream.
	cancel     chan struct{}
	stopped    chan struct{}
	cancelOnce sync.Once
	// closeErr is the backend close result; valid once stopped is closed.
	closeErr error
}

func startPrefetch(rc io.ReadCloser, rb, depth int) *prefetcher {
	p := &prefetcher{
		ch:      make(chan pfChunk, depth),
		cancel:  make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go p.run(rc, rb)
	return p
}

// run replicates the synchronous reader's transfer-size sequence: the first
// fill tops up a whole page; every later fill re-reads a whole page minus
// the partial-record tail the previous page left behind (a constant,
// PageSize mod recordBytes). Keeping the sizes identical keeps ReadOps and
// per-op byte counts — and therefore the simulated disk charges — exactly
// those of the synchronous path. Every page it reads into goes to the
// consumer, which gives it back once copied; a page it cannot hand over
// (empty read, cancelled scan) it gives back itself.
func (p *prefetcher) run(rc io.ReadCloser, rb int) {
	defer func() {
		p.closeErr = rc.Close()
		close(p.stopped)
	}()
	size := PageSize
	next := PageSize - PageSize%rb
	for {
		buf := getPage()
		n, err := io.ReadFull(rc, buf[:size])
		if n == 0 {
			putPage(buf)
		} else {
			select {
			case p.ch <- pfChunk{data: buf[:n]}:
			case <-p.cancel:
				putPage(buf)
				return
			}
		}
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			close(p.ch)
			return
		default:
			select {
			case p.ch <- pfChunk{err: err}:
				close(p.ch)
			case <-p.cancel:
			}
			return
		}
		size = next
	}
}

// stop cancels the background reader (idempotent), waits for it to release
// the backend stream, gives back the pages read ahead and never consumed,
// and returns the stream's close error. Safe to call whether the scan
// finished or was abandoned mid-stream; no goroutine or page is leaked
// either way.
func (p *prefetcher) stop() error {
	p.cancelOnce.Do(func() { close(p.cancel) })
	<-p.stopped
	for {
		select {
		case c, ok := <-p.ch:
			if !ok {
				return p.closeErr
			}
			if c.data != nil {
				putPage(c.data)
			}
		default:
			return p.closeErr
		}
	}
}

// wbItem is one page handed to the write-behind goroutine; a nil-data item
// with a non-nil ack is a flush barrier.
type wbItem struct {
	data []byte
	ack  chan error
}

// writeBehind drains full pages to the backend from a background goroutine.
// The producing rank charges each page's cost at hand-off (the same logical
// point the synchronous writer charges its flush), so accounting is
// unchanged; only the physical write is deferred. A background write error
// is sticky and surfaces on the next Write, Flush or Close. The goroutine
// gives back every page it is handed, written or dropped.
type writeBehind struct {
	ch      chan wbItem
	stopped chan struct{}
	mu      sync.Mutex
	err     error
	// closeErr is the backend close result; valid once stopped is closed.
	closeErr error
}

func startWriteBehind(wc io.WriteCloser, depth int) *writeBehind {
	w := &writeBehind{
		ch:      make(chan wbItem, depth),
		stopped: make(chan struct{}),
	}
	go w.run(wc)
	return w
}

func (w *writeBehind) run(wc io.WriteCloser) {
	defer func() {
		w.closeErr = wc.Close()
		close(w.stopped)
	}()
	for item := range w.ch {
		if item.ack != nil {
			item.ack <- w.fail()
			continue
		}
		// After a failure, keep draining so producers never block, but drop
		// the data: the error has already poisoned the stream.
		if w.fail() == nil {
			if _, err := wc.Write(item.data); err != nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
			}
		}
		putPage(item.data)
	}
}

// fail returns the sticky background write error, if any.
func (w *writeBehind) fail() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
