package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/ooc"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps the public interfaces and times the calls it makes.
// Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. Every method is safe on a nil tracer, which records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string, rank int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rank: rank, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedComm times every Send and Recv of one rank and records a span for
// each with its byte count. It forwards CountCall so the transport's
// per-collective statistics are the same with and without it (the
// fault.Comm pattern).
type tracedComm struct {
	inner  comm.Communicator
	tr     *tracer
	parent int

	// Time blocked in Recv is the transport's own comm.Stats.WaitSec; only
	// the send side needs a counter here.
	sendNs, sendBytes atomic.Int64
}

var (
	_ comm.Communicator = (*tracedComm)(nil)
	_ comm.CallCounter  = (*tracedComm)(nil)
)

func (c *tracedComm) Rank() int               { return c.inner.Rank() }
func (c *tracedComm) Size() int               { return c.inner.Size() }
func (c *tracedComm) Clock() *costmodel.Clock { return c.inner.Clock() }
func (c *tracedComm) Stats() comm.Stats       { return c.inner.Stats() }

func (c *tracedComm) CountCall(cl comm.OpClass) {
	if cc, ok := c.inner.(comm.CallCounter); ok {
		cc.CountCall(cl)
	}
}

func (c *tracedComm) Send(to int, tag comm.Tag, data []byte) error {
	id := c.tr.begin(c.parent, "comm.send", c.inner.Rank())
	t0 := time.Now()
	err := c.inner.Send(to, tag, data)
	c.sendNs.Add(time.Since(t0).Nanoseconds())
	c.sendBytes.Add(int64(len(data)))
	c.tr.end(id, int64(len(data)))
	return err
}

func (c *tracedComm) Recv(from int, tag comm.Tag) ([]byte, error) {
	id := c.tr.begin(c.parent, "comm.recv", c.inner.Rank())
	data, err := c.inner.Recv(from, tag)
	c.tr.end(id, int64(len(data)))
	return data, err
}

// backendMeter is what a timedBackend accumulates: time inside the medium's
// read and write calls and the bytes they moved. parent can be repointed
// between repetitions so spans attach to the right build.
type backendMeter struct {
	tr     *tracer
	rank   int
	parent atomic.Int64

	readNs, writeNs       atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func (m *backendMeter) busySeconds() float64 {
	return float64(m.readNs.Load()+m.writeNs.Load()) / 1e9
}

// timedBackend wraps an ooc.Backend (install it with Store.WrapBackend,
// after EnableIntegrity so the checksum work is inside the timed calls)
// and meters every stream it opens.
type timedBackend struct {
	ooc.Backend
	m *backendMeter
}

func (b timedBackend) Create(name string) (io.WriteCloser, error) {
	return b.writer(b.Backend.Create(name))
}

func (b timedBackend) Append(name string) (io.WriteCloser, error) {
	return b.writer(b.Backend.Append(name))
}

func (b timedBackend) writer(w io.WriteCloser, err error) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return &timedWriter{w, b.m}, nil
}

func (b timedBackend) Open(name string) (io.ReadCloser, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedReader{r, b.m}, nil
}

type timedWriter struct {
	io.WriteCloser
	m *backendMeter
}

func (w *timedWriter) Write(p []byte) (int, error) {
	id := w.m.tr.begin(int(w.m.parent.Load()), "ooc.write", w.m.rank)
	t0 := time.Now()
	n, err := w.WriteCloser.Write(p)
	w.m.writeNs.Add(time.Since(t0).Nanoseconds())
	w.m.writeBytes.Add(int64(n))
	w.m.tr.end(id, int64(n))
	return n, err
}

type timedReader struct {
	io.ReadCloser
	m *backendMeter
}

func (r *timedReader) Read(p []byte) (int, error) {
	id := r.m.tr.begin(int(r.m.parent.Load()), "ooc.read", r.m.rank)
	t0 := time.Now()
	n, err := r.ReadCloser.Read(p)
	r.m.readNs.Add(time.Since(t0).Nanoseconds())
	r.m.readBytes.Add(int64(n))
	r.m.tr.end(id, int64(n))
	return n, err
}

// slowBackend delays every read and write of the medium by a fraction of
// the call's own measured time: the injected slowdown the sensitivity test
// uses to show that a slower ooc layer is named as such. Sleeps shorter
// than the timer's resolution are saved up and paid together.
type slowBackend struct {
	ooc.Backend
	frac float64
	debt atomic.Int64 // nanoseconds owed
}

func (b *slowBackend) charge(d time.Duration) {
	const payAt = 200 * time.Microsecond
	owed := b.debt.Add(int64(float64(d) * b.frac))
	if owed < int64(payAt) {
		return
	}
	t0 := time.Now()
	time.Sleep(time.Duration(owed))
	b.debt.Add(-time.Since(t0).Nanoseconds())
}

func (b *slowBackend) Create(name string) (io.WriteCloser, error) {
	return b.writer(b.Backend.Create(name))
}

func (b *slowBackend) Append(name string) (io.WriteCloser, error) {
	return b.writer(b.Backend.Append(name))
}

func (b *slowBackend) writer(w io.WriteCloser, err error) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return &slowWriter{w, b}, nil
}

func (b *slowBackend) Open(name string) (io.ReadCloser, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowReader{r, b}, nil
}

type slowWriter struct {
	io.WriteCloser
	b *slowBackend
}

func (w *slowWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.WriteCloser.Write(p)
	w.b.charge(time.Since(t0))
	return n, err
}

type slowReader struct {
	io.ReadCloser
	b *slowBackend
}

func (r *slowReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := r.ReadCloser.Read(p)
	r.b.charge(time.Since(t0))
	return n, err
}
