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
// queue. The worker that picks it up fills out/version/err and closes
// done; the submitting goroutine is the only other reader.
type task struct {
	recs    []record.Record
	out     []int32
	version string
	err     error
	done    chan struct{}
}

// Engine is the batched prediction engine: a bounded queue of requests
// drained by a pool of workers. Each worker pulls one request and then
// opportunistically coalesces whatever else is already queued (up to
// MaxBatchRows rows) into one batch, snapshots the active model once, and
// classifies the whole batch against it — so a hot-swap lands between
// batches, never inside one, and every row of a request is answered by a
// single version.
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
// returns the predicted classes plus the model version that answered.
// It returns ErrOverloaded without blocking when the queue is full,
// ErrClosed after Close, ErrNoModel when nothing is loaded, and ctx's
// error if the caller gives up while queued.
func (e *Engine) Classify(ctx context.Context, recs []record.Record) ([]int32, string, error) {
	if len(recs) == 0 {
		m := e.src.Active()
		if m == nil {
			return nil, "", ErrNoModel
		}
		return nil, m.Info.Version, nil
	}
	t := &task{recs: recs, out: make([]int32, len(recs)), done: make(chan struct{})}
	start := time.Now()

	e.qmu.RLock()
	if e.closed {
		e.qmu.RUnlock()
		return nil, "", ErrClosed
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
		return nil, "", ErrOverloaded
	}

	select {
	case <-t.done:
		if e.stats != nil {
			e.stats.observeRequest(len(recs), t.version, time.Since(start), t.err)
		}
		if t.err != nil {
			return nil, "", t.err
		}
		return t.out, t.version, nil
	case <-ctx.Done():
		// The task stays queued; a worker will still process it, but
		// nobody reads the result. The out slice is owned by the task, so
		// there is no data race with the departed caller.
		return nil, "", ctx.Err()
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
		// immediately, a busy one amortises model lookup and keeps the hot
		// tree levels cache-resident across the batch.
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

		m := e.src.Active()
		for _, bt := range batch {
			if m == nil {
				bt.err = ErrNoModel
			} else {
				bt.version = m.Info.Version
				m.flat.ClassifyBatch(bt.recs, bt.out)
			}
			close(bt.done)
		}
		if e.stats != nil {
			e.stats.observeBatch(rows, len(batch))
		}
	}
}
