package stream

import (
	"encoding/binary"
	"fmt"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/record"
)

// ingestScratch holds ingest's buffers between blocks and windows, so a
// steady-state window allocates nothing to count its rows.
type ingestScratch struct {
	// pend is the rest of the source's last block, not yet scanned: a
	// time-based window can end inside a block.
	pend []byte
	// train lists a block's owned training rows; leaf, start and next
	// group them by frontier leaf into byLeaf (a counting sort).
	train, leaf, byLeaf []int32
	start, next         []int32
	arena               rowArena
	batch               *clouds.Batch
}

// ingestWindow scans the stream to the window boundary, accumulating owned
// records into the frontier sketches, the window's holdout rows and its
// reservoir sample. It returns how many global records this window scanned
// and whether the source ended inside the window.
func (e *engine) ingestWindow() (scanned int64, streamEnd bool, err error) {
	first := e.nextIdx
	if e.cfg.WindowDuration > 0 {
		streamEnd, err = e.ingestTimed()
	} else {
		streamEnd, err = e.ingestTo(first+int64(e.cfg.WindowRecords), time.Time{})
	}
	return e.nextIdx - first, streamEnd, err
}

// ingestTimed ingests until the local deadline, then agrees on the boundary
// (the furthest position any rank reached) and catches up to it.
func (e *engine) ingestTimed() (streamEnd bool, err error) {
	streamEnd, err = e.ingestTo(1<<63-1, time.Now().Add(e.cfg.WindowDuration))
	if err != nil {
		return false, err
	}
	target, err := comm.AllReduceInt64(e.c, []int64{e.nextIdx}, func(a, b int64) int64 { return max(a, b) })
	if err != nil {
		return false, err
	}
	// Some rank has already read these records, so the source can produce
	// them; a clean end before the target is a source that violated the
	// identical-global-stream contract.
	end, err := e.ingestTo(target[0], time.Time{})
	if err != nil {
		return false, err
	}
	if end {
		return false, fmt.Errorf("stream: source ended at %d before agreed boundary %d", e.nextIdx, target[0])
	}
	return streamEnd, nil
}

// ingestTo scans the stream block by block up to global index target, or
// until deadline when it is set, and reports whether the source ended
// first.
func (e *engine) ingestTo(target int64, deadline time.Time) (bool, error) {
	rb := e.cfg.Schema.RecordBytes()
	s := &e.in
	for e.nextIdx < target {
		if e.stopped() {
			return false, ErrStopped
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false, nil
		}
		want := int(min(target-e.nextIdx, int64(e.cfg.WindowRecords)))
		if len(s.pend) == 0 {
			rows, err := e.src.Rows(want)
			if err != nil {
				return false, err
			}
			if len(rows) == 0 {
				return true, nil
			}
			s.pend = rows
		}
		k, err := e.scan(s.pend[:min(want*rb, len(s.pend))], deadline)
		s.pend = s.pend[k*rb:]
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// scan ingests rows, whole records in Record.Encode's layout, and returns
// how many it consumed: all of them unless the deadline passed or an error
// stopped it. Each row in order passes the Stop check and the deadline,
// is validated against the schema (every rank scans every row, so every
// rank refuses a row outside the schema at the same index, before any
// collective), is seen by RecordHook, and if this rank owns it goes to
// the holdout, or to the block's training rows and, one in SampleEvery,
// into the window's sample payload. The training rows are then counted
// into the frontier sketches as one batch.
func (e *engine) scan(rows []byte, deadline time.Time) (int, error) {
	schema, s := e.cfg.Schema, &e.in
	rb := schema.RecordBytes()
	n := len(rows) / rb
	bad := record.FirstInvalid(schema, rows)
	p, rank := int64(e.c.Size()), int64(e.c.Rank())
	every := int64(e.cfg.SampleEvery)
	if len(e.samples) == 0 {
		e.samples = append(e.samples, 0, 0, 0, 0) // the record count, set at close
	}
	train := s.train[:0]
	var owned int64
	var err error
	k := 0
	for ; k < n; k++ {
		if e.stopped() {
			err = ErrStopped
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		idx, row := e.nextIdx, rows[k*rb:(k+1)*rb]
		if k == bad {
			err = invalidRow(schema, idx, row)
			break
		}
		e.nextIdx++
		if e.cfg.RecordHook != nil {
			e.cfg.RecordHook(e.window, idx)
		}
		if idx%p != rank {
			continue
		}
		owned++
		if holdoutIdx(idx, e.cfg.HoldoutEvery) {
			// Held out of training entirely: scored against the window's
			// candidate model at close, then discarded.
			e.holdout = append(e.holdout, row...)
			continue
		}
		train = append(train, int32(k))
		if idx%every == 0 {
			e.samples = binary.LittleEndian.AppendUint64(e.samples, uint64(idx))
			e.samples = append(e.samples, row...)
		}
	}
	s.train = train
	e.stats.Scanned += int64(k)
	e.stats.Records += owned
	e.live.records.Add(owned)
	if err == nil {
		e.count(rows, train)
	}
	return k, err
}

// count adds the listed rows of rows to the frontier sketches: the rows
// are decoded into the arena and routed by one batched leaf walk, grouped
// by frontier leaf with a counting sort, and each leaf that received any
// counts its group with NodeStats.AddBatch, straight from the block.
func (e *engine) count(rows []byte, train []int32) {
	nLeaves := len(e.frontier)
	if nLeaves == 0 || len(train) == 0 {
		return
	}
	schema, s := e.cfg.Schema, &e.in
	rb := schema.RecordBytes()
	recs := s.arena.records(schema, len(train))
	for i, r := range train {
		// A whole row always decodes.
		_, _ = recs[i].Decode(schema, rows[int(r)*rb:])
	}
	leaf := resized(s.leaf, len(train))
	e.flat.LeafBatch(recs, leaf)
	start := resized(s.start, nLeaves+1)
	clear(start)
	for i, l := range leaf {
		leaf[i] = e.frontierOf[l]
		start[leaf[i]+1]++
	}
	for l := range nLeaves {
		start[l+1] += start[l]
	}
	next := resized(s.next, nLeaves)
	copy(next, start)
	byLeaf := resized(s.byLeaf, len(train))
	for i, l := range leaf {
		byLeaf[next[l]] = train[i]
		next[l]++
	}
	s.leaf, s.start, s.next, s.byLeaf = leaf, start, next, byLeaf
	if s.batch == nil {
		s.batch = clouds.NewBatch(schema)
	}
	s.batch.Decode(rows)
	for l := range nLeaves {
		if start[l] < start[l+1] {
			e.frontier[l].stats.AddBatch(s.batch, byLeaf[start[l]:start[l+1]])
		}
	}
	s.batch.Decode(nil) // the block is the source's; do not hold it
}

// invalidRow returns the error of the row at global index idx that
// record.FirstInvalid found: the one Record.Validate gives its decoded
// record.
func invalidRow(schema *record.Schema, idx int64, row []byte) error {
	var rec record.Record
	if _, err := rec.Decode(schema, row); err != nil {
		return fmt.Errorf("stream: global record %d: %w", idx, err)
	}
	return fmt.Errorf("stream: global record %d: %w", idx, rec.Validate(schema))
}

// rowArena lends records whose columns are carved from arrays it keeps, so
// decoding a block into them allocates only when the block is larger than
// any before it.
type rowArena struct {
	recs []record.Record
}

// records returns n records of schema's shape; their values are those of
// the previous use.
func (a *rowArena) records(schema *record.Schema, n int) []record.Record {
	if n > len(a.recs) {
		nNum, nCat := schema.NumNumeric(), schema.NumCategorical()
		size := max(n, 2*len(a.recs))
		nums, cats := make([]float64, size*nNum), make([]int32, size*nCat)
		a.recs = make([]record.Record, size)
		for i := range a.recs {
			a.recs[i].Num = nums[i*nNum : (i+1)*nNum : (i+1)*nNum]
			a.recs[i].Cat = cats[i*nCat : (i+1)*nCat : (i+1)*nCat]
		}
	}
	return a.recs[:n]
}

// decodeRows decodes rows, whole records in Record.Encode's layout, into
// the arena's records.
func (a *rowArena) decodeRows(schema *record.Schema, rows []byte) []record.Record {
	rb := schema.RecordBytes()
	recs := a.records(schema, len(rows)/rb)
	for i := range recs {
		// A whole row always decodes.
		_, _ = recs[i].Decode(schema, rows[i*rb:])
	}
	return recs
}
