// Package dnc is the paper's generic framework for parallel out-of-core
// divide-and-conquer (Section 3). A Problem describes one task of the
// divide-and-conquer tree in three pieces — a mergeable summary computed in
// one pass over the task's records, a decision (leaf or split) taken on the
// globally combined summary, and a routing rule that partitions records
// between the two subtasks. The Engine executes the tree over data that is
// distributed across ranks and disk-resident on each, under one of five
// strategies:
//
//	DataParallel    tasks solved one after another by all processors
//	Concatenated    all tasks of a tree level solved together (batched
//	                collectives; memory shared across the level)
//	TaskParallel    partitioned tree construction: processor subgroups
//	                recursively take subtasks, moving the data to the
//	                subgroup (compute-dependent parallel I/O)
//	TaskParallelCI  tasks assigned to owners while the data stays put
//	                (compute-independent parallel I/O)
//	Mixed           data parallelism for large tasks, then delayed task
//	                parallelism for small ones (the pCLOUDS recipe)
//
// All strategies produce identical leaf results for a deterministic
// Problem; they differ in communication structure, I/O volume and simulated
// time, which is exactly what the strategy ablation experiment measures
// (experiments.StrategiesAblation, pinned by TestStrategiesAblationShape).
package dnc

import (
	"encoding/binary"
	"fmt"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
)

// Task identifies one node of the divide-and-conquer tree.
type Task struct {
	// ID is the root-to-node path: "r", then "rL"/"rR", and so on.
	ID string
	// Depth is the node's depth (root = 0).
	Depth int
	// N is the task's global record count.
	N int64
}

// Decision is the outcome of inspecting a task's global summary.
type Decision struct {
	// Leaf stops recursion; Result is the task's final result, recorded in
	// the run's leaf map.
	Leaf   bool
	Result []byte
	// Payload parameterises Route for internal tasks (e.g. an encoded
	// pivot).
	Payload []byte
}

// Problem defines a divide-and-conquer computation over records.
// Implementations must be deterministic functions of their inputs: every
// rank evaluates Decide on the same global summary and must reach the same
// decision.
type Problem interface {
	// SummaryLen returns the length of the int64 summary vector for a task.
	SummaryLen(t Task) int
	// Accumulate folds one record into a summary vector.
	Accumulate(t Task, sum []int64, rec *record.Record)
	// Decide inspects the globally combined summary.
	Decide(t Task, global []int64) (Decision, error)
	// Route sends a record to child 0 (left) or 1 (right).
	Route(t Task, payload []byte, rec *record.Record) int
}

// Strategy selects the parallelisation technique.
type Strategy int

const (
	// DataParallel solves tasks one at a time with all processors.
	DataParallel Strategy = iota
	// Concatenated solves each tree level's tasks together.
	Concatenated
	// TaskParallel is partitioned tree construction with compute-dependent
	// parallel I/O.
	TaskParallel
	// Mixed is data parallelism for large tasks followed by delayed task
	// parallelism for small tasks.
	Mixed
	// TaskParallelCI is task parallelism with compute-independent parallel
	// I/O: subtasks are assigned to processors but the data never moves.
	TaskParallelCI
)

func (s Strategy) String() string {
	switch s {
	case DataParallel:
		return "data-parallel"
	case Concatenated:
		return "concatenated"
	case TaskParallel:
		return "task-parallel"
	case Mixed:
		return "mixed"
	case TaskParallelCI:
		return "task-parallel-ci"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// RunStats aggregates a run's work counters. Counters are rank-local until
// Reduce combines them.
type RunStats struct {
	Tasks         int64
	LeafTasks     int64
	RecordReads   int64
	Redistributed int64 // records shipped between ranks
	Collectives   int64
}

// Result is the outcome of a run at one rank.
type Result struct {
	// Leaves maps task IDs to leaf results. Strategies guarantee that rank
	// 0's map is complete; other ranks may hold partial views.
	Leaves map[string][]byte
	// Stats holds globally summed counters (identical on every rank).
	Stats RunStats
	// SimTime is this rank's simulated clock at completion.
	SimTime float64
}

// Engine runs divide-and-conquer trees for one rank.
type Engine struct {
	// C is the rank's communicator.
	C comm.Communicator
	// Store holds the rank's private disk-resident task files.
	Store *ooc.Store
	// Mem is the per-rank memory budget for in-core processing (nil =
	// unlimited).
	Mem *ooc.MemLimit
	// SwitchN is the mixed strategy's threshold: tasks with global N below
	// it are deferred to the task-parallel phase. Ignored by the other
	// strategies.
	SwitchN int64
	// MaxDepth caps recursion as a safety net (0 = unlimited).
	MaxDepth int
	// Params supplies machine constants for strategy-specific simulated
	// charges (e.g. the concatenated strategy's buffer-pressure seeks).
	Params costmodel.Params
	// Trace, when non-nil, records per-phase spans for this rank's run
	// (see package obs). Like pclouds.Config.Trace, enable it on every
	// rank of the group or none.
	Trace *obs.Recorder

	stats  RunStats
	leaves map[string][]byte
}

// taskFile names the store file holding a task's local records.
func taskFile(id string) string { return "task-" + id }

// Run executes problem p over the distributed data already staged in each
// rank's store under taskFile(rootID). Every rank must call Run with the
// same arguments.
func (e *Engine) Run(p Problem, rootID string, strategy Strategy) (*Result, error) {
	e.stats = RunStats{}
	e.leaves = make(map[string][]byte)
	e.Trace.SetClock(e.C.Clock())
	e.Trace.SetComm(e.C.Stats)
	e.Trace.AddIO("store", e.Store.Stats)
	rspan := e.Trace.StartID("dnc-run", strategy.String())
	defer rspan.End()
	localN, err := e.Store.Count(taskFile(rootID))
	if err != nil {
		return nil, err
	}
	total, err := comm.AllReduceInt64(e.C, []int64{localN}, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	root := Task{ID: rootID, Depth: 0, N: total[0]}

	switch strategy {
	case DataParallel:
		err = e.runDataParallel(p, []Task{root})
	case Concatenated:
		err = e.runConcatenated(p, root)
	case TaskParallel:
		err = e.runTaskParallel(p, root, e.C)
	case Mixed:
		err = e.runMixed(p, root)
	case TaskParallelCI:
		err = e.runTaskParallelCI(p, root)
	default:
		err = fmt.Errorf("dnc: unknown strategy %d", strategy)
	}
	if err != nil {
		return nil, err
	}

	// Collect every rank's leaf results at rank 0 so its map is complete
	// regardless of strategy (task-parallel phases record leaves only at
	// the solving rank).
	fspan := e.Trace.Start("dnc-finalize")
	defer fspan.End()
	gathered, err := comm.Gather(e.C, 0, encodeLeafMap(e.leaves))
	if err != nil {
		return nil, err
	}
	if e.C.Rank() == 0 {
		for _, raw := range gathered {
			m, err := decodeLeafMap(raw)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				e.leaves[k] = v
			}
		}
	}

	// Globally sum the work counters so every rank reports the same run.
	vec := []int64{e.stats.Tasks, e.stats.LeafTasks, e.stats.RecordReads, e.stats.Redistributed, e.stats.Collectives}
	sum, err := comm.AllReduceInt64(e.C, vec, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	res := &Result{
		Leaves: e.leaves,
		Stats: RunStats{
			// Task counts are incremented once per task on rank 0 only, so
			// the sum is the true count; record reads sum over ranks.
			Tasks: sum[0], LeafTasks: sum[1], RecordReads: sum[2],
			Redistributed: sum[3], Collectives: sum[4],
		},
		SimTime: e.C.Clock().Time(),
	}
	return res, nil
}

// countTask bumps the task counters on rank 0 only, so the global sum is a
// plain count.
func (e *Engine) countTask(c comm.Communicator, leaf bool) {
	if c.Rank() == 0 {
		e.stats.Tasks++
		if leaf {
			e.stats.LeafTasks++
		}
	}
}

// summarize streams a task's local file into a fresh summary vector.
func (e *Engine) summarize(p Problem, t Task) ([]int64, error) {
	span := e.Trace.StartID("dnc-summarize", t.ID)
	defer span.End()
	sum := make([]int64, p.SummaryLen(t))
	n, err := e.streamTask(t, func(rec *record.Record) error {
		p.Accumulate(t, sum, rec)
		return nil
	})
	e.stats.RecordReads += n
	return sum, err
}

// streamTask scans a task's local file, returning the record count.
func (e *Engine) streamTask(t Task, fn func(*record.Record) error) (int64, error) {
	r, err := e.Store.OpenReader(taskFile(t.ID))
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var rec record.Record
	var n int64
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
		if err := fn(&rec); err != nil {
			return n, err
		}
	}
}

// partitionTask streams a task file into its two child files, returning the
// local child record counts. The parent file is removed.
func (e *Engine) partitionTask(p Problem, t Task, payload []byte) ([2]int64, error) {
	span := e.Trace.StartID("dnc-partition", t.ID)
	defer span.End()
	var counts [2]int64
	lw, err := e.Store.CreateWriter(taskFile(t.ID + "L"))
	if err != nil {
		return counts, err
	}
	rw, err := e.Store.CreateWriter(taskFile(t.ID + "R"))
	if err != nil {
		lw.Close()
		return counts, err
	}
	n, err := e.streamTask(t, func(rec *record.Record) error {
		if p.Route(t, payload, rec) == 0 {
			counts[0]++
			return lw.Write(*rec)
		}
		counts[1]++
		return rw.Write(*rec)
	})
	e.stats.RecordReads += n
	if err2 := lw.Close(); err == nil {
		err = err2
	}
	if err2 := rw.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return counts, err
	}
	return counts, e.Store.Remove(taskFile(t.ID))
}

// encodeLeafMap frames a leaf-result map for transport: per entry a u32 key
// length, the key, a u64 value length, and the value.
func encodeLeafMap(m map[string][]byte) []byte {
	var out []byte
	var hdr [12]byte
	for k, v := range m {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(v)))
		out = append(out, hdr[:]...)
		out = append(out, k...)
		out = append(out, v...)
	}
	return out
}

func decodeLeafMap(src []byte) (map[string][]byte, error) {
	m := make(map[string][]byte)
	for len(src) > 0 {
		if len(src) < 12 {
			return nil, fmt.Errorf("dnc: corrupt leaf map frame")
		}
		kl := int(binary.LittleEndian.Uint32(src[0:]))
		vl := int(binary.LittleEndian.Uint64(src[4:]))
		src = src[12:]
		if kl < 0 || vl < 0 || kl+vl > len(src) {
			return nil, fmt.Errorf("dnc: corrupt leaf map lengths %d/%d", kl, vl)
		}
		k := string(src[:kl])
		v := append([]byte(nil), src[kl:kl+vl]...)
		m[k] = v
		src = src[kl+vl:]
	}
	return m, nil
}
