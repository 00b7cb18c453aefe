package serve

import (
	"context"
	"runtime"
	"sync"
	"time"

	"pclouds/internal/record"
)

// EngineConfig sizes the prediction engine.
type EngineConfig struct {
	// Workers is the number of batch workers. 0 means GOMAXPROCS; a
	// negative value starts no workers at all — a paused engine whose
	// queue only fills, used by the admission-control tests.
	Workers int
	// QueueSize bounds the request queue (in requests, each carrying one
	// or more rows). A full queue sheds new requests with ErrOverloaded.
	// 0 means 1024.
	QueueSize int
	// MaxBatchRows caps how many rows one worker coalesces into a single
	// batch before classifying. 0 means 256.
	MaxBatchRows int
}

func (c *EngineConfig) setDefaults() {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 256
	}
}

// task is one admitted classification request travelling through the
// queue: its rows, the model they were validated against, and the caller's
// output slice. The worker that picks it up fills out and closes done; the
// submitting goroutine is the only other reader.
type task struct {
	m    *Model
	recs []record.Record
	out  []int32
	done chan struct{}
}

// Engine is the batched prediction engine: a bounded queue of requests
// drained by a pool of workers. Each worker pulls one request and then
// opportunistically coalesces whatever else is already queued (up to
// MaxBatchRows rows) into one batch. Every request is answered by the model
// it was admitted with, so every row of a request is answered by a single
// version, and a hot swap after admission cannot walk rows checked against
// one schema through a tree of another.
//
// Admission control: Classify never blocks on a full queue. If the queue
// is full the request is shed immediately with ErrOverloaded; the HTTP
// layer turns that into 503 + Retry-After so the server degrades by
// rejecting work instead of accumulating unbounded latency.
type Engine struct {
	src   ModelSource
	stats *Stats
	cfg   EngineConfig

	qmu    sync.RWMutex // guards closed + sends into queue vs close(queue)
	closed bool
	queue  chan *task

	wg sync.WaitGroup
}

// NewEngine starts an engine reading models from src. st may be nil.
func NewEngine(src ModelSource, cfg EngineConfig, st *Stats) *Engine {
	cfg.setDefaults()
	e := &Engine{
		src:   src,
		stats: st,
		cfg:   cfg,
		queue: make(chan *task, cfg.QueueSize),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Classify routes every record in recs through the active model and
// returns the predicted classes plus the model version that answered. It
// returns the errors of ClassifyInto; the result is always the caller's.
func (e *Engine) Classify(ctx context.Context, recs []record.Record) ([]int32, string, error) {
	m := e.src.Active()
	var out []int32
	if len(recs) > 0 {
		out = make([]int32, len(recs))
	}
	if _, err := e.ClassifyInto(ctx, m, recs, out); err != nil {
		return nil, "", err
	}
	return out, m.Info.Version, nil
}

// ClassifyInto routes every record in recs through m and writes the
// predicted classes to out, which must have len(recs) entries. It returns
// ErrOverloaded without blocking when the queue is full, ErrClosed after
// Close, ErrNoModel for a nil m, and ctx's error if the caller gives up
// while the request is queued or being classified.
//
// Ownership: recs and out belong to the engine from the call until the
// worker has finished the request. released reports whether that has
// happened. It is false only when ClassifyInto returned on ctx while the
// request was still in the engine: a worker will still read recs and write
// out, so the caller must neither reuse nor read them, and leaves them to
// the garbage collector. In every other case the caller may reuse both as
// soon as ClassifyInto returns.
func (e *Engine) ClassifyInto(ctx context.Context, m *Model, recs []record.Record, out []int32) (released bool, err error) {
	if m == nil {
		if e.stats != nil && len(recs) > 0 {
			e.stats.observeRequest(len(recs), "", 0, ErrNoModel)
		}
		return true, ErrNoModel
	}
	if len(recs) == 0 {
		return true, nil
	}
	t := &task{m: m, recs: recs, out: out, done: make(chan struct{})}
	start := time.Now()

	e.qmu.RLock()
	if e.closed {
		e.qmu.RUnlock()
		return true, ErrClosed
	}
	select {
	case e.queue <- t:
		depth := len(e.queue)
		e.qmu.RUnlock()
		if e.stats != nil {
			e.stats.observeQueueDepth(depth)
		}
	default:
		e.qmu.RUnlock()
		if e.stats != nil {
			e.stats.incShed(int64(len(recs)))
		}
		return true, ErrOverloaded
	}

	select {
	case <-t.done:
		if e.stats != nil {
			e.stats.observeRequest(len(recs), m.Info.Version, time.Since(start), nil)
		}
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// QueueDepth reports how many requests are waiting (diagnostics).
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Close stops admission, lets the workers drain every queued request, and
// waits for them to finish — the engine half of graceful shutdown.
// Idempotent.
func (e *Engine) Close() {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return
	}
	e.closed = true
	close(e.queue)
	e.qmu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	batch := make([]*task, 0, 64)
	for t := range e.queue {
		batch = append(batch[:0], t)
		rows := len(t.recs)
		// Coalesce whatever is already waiting, up to the row cap. This is
		// purely opportunistic: an idle server classifies single requests
		// immediately, a busy one amortises the queue handoff and keeps the
		// hot tree levels cache-resident across the batch.
	coalesce:
		for rows < e.cfg.MaxBatchRows {
			select {
			case t2, ok := <-e.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, t2)
				rows += len(t2.recs)
			default:
				break coalesce
			}
		}

		for _, bt := range batch {
			bt.m.flat.ClassifyBatch(bt.recs, bt.out)
			close(bt.done)
		}
		if e.stats != nil {
			e.stats.observeBatch(rows, len(batch))
		}
	}
}
