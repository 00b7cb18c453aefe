package pclouds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/dnc"
	"pclouds/internal/durable"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// smallNodePhase is the delayed task-parallel phase: every deferred small
// node is assigned to exactly one processor (cost-based,
// longest-processing-time first), the nodes' data is redistributed in one
// batched all-to-all (compute-dependent parallel I/O), each owner builds
// its subtrees in-memory with the direct method, and the finished subtrees
// are exchanged so every rank attaches identical results.
func (b *pbuilder) smallNodePhase(small []*nodeTask) error {
	if len(small) == 0 {
		return nil
	}
	// The small list is produced in identical BFS order on every rank; sort
	// by id anyway as a belt-and-braces determinism guarantee.
	sort.Slice(small, func(i, j int) bool { return small[i].id < small[j].id })
	b.stats.SmallTasks = len(small)

	rank := b.c.Rank()
	tasks := make([]dnc.Task, len(small))
	for i, t := range small {
		tasks[i] = dnc.Task{ID: t.id, Depth: t.depth, N: t.n}
	}
	owner := dnc.AssignTasks(tasks, b.c.Size())
	taskRecs, err := b.redistributeSmall(small, owner)
	if err != nil {
		return err
	}

	// Build owned subtrees locally; no further communication until the
	// exchange of results.
	bspan := b.rec.Start("small-solve")
	results := make([][]byte, len(small))
	for i, t := range small {
		if owner[i] != rank {
			continue
		}
		nd, st := clouds.BuildSubtree(b.cfg.Clouds, b.schema, clouds.Presort(b.schema, taskRecs[i]), t.sample, t.depth, b.nRoot)
		b.stats.Build.RecordReads += st.RecordReads
		b.chargeCPU(st.RecordReads)
		b.stats.Build.AlivePoints += st.AlivePoints
		b.stats.Build.BoundaryEvaluated += st.BoundaryEvaluated
		b.stats.Build.AliveIntervals += st.AliveIntervals
		b.stats.Build.SmallNodes += st.SmallNodes
		b.stats.Build.LargeNodes += st.LargeNodes
		results[i] = tree.Encode(&tree.Tree{Schema: b.schema, Root: nd})
	}
	bspan.End()
	return b.exchangeSubtrees(small, results)
}

// redistributeSmall ships every record of every small node to its owner,
// batched into one exchange, and returns the records of the tasks this rank
// owns (indexed like small). The rank's own share of its tasks goes from the
// scan straight into memory; it is never encoded. A resident task's rows
// are read from memory, and the ones this rank keeps reach BuildSubtree
// sharing the resident values, which are not copied.
func (b *pbuilder) redistributeSmall(small []*nodeTask, owner []int) ([][]record.Record, error) {
	defer b.rec.Start("small-redistribute").End()
	p, rank := b.c.Size(), b.c.Rank()
	rb := b.schema.RecordBytes()

	// The store knows each file's record count, and a resident task its
	// row count, which sizes every frame.
	counts := make([]int, len(small))
	sendBytes := make([]int, p)
	for i, t := range small {
		if t.data != nil {
			counts[i] = t.data.Len()
		} else if n, err := b.store.Count(t.file); err == nil {
			counts[i] = int(n)
		} // else the scan below reports what is wrong with the file
		if d := owner[i]; d != rank {
			sendBytes[d] += 8 + counts[i]*rb
		}
	}
	parts := make([][]byte, p)
	for d := range parts {
		if d != rank {
			parts[d] = make([]byte, 0, sendBytes[d])
		}
	}

	pass := &scanPass{b: b}
	arena := recordArena{schema: b.schema}
	own := make([][]record.Record, len(small))
	var rows []record.Record // a shipped resident task's rows
	for i, t := range small {
		d := owner[i]
		mine := d == rank
		if t.data != nil {
			pass.touch(int64(counts[i]))
			if mine {
				continue // assembled straight from t.data below
			}
			parts[d] = binary.LittleEndian.AppendUint32(parts[d], uint32(i))
			parts[d] = binary.LittleEndian.AppendUint32(parts[d], uint32(counts[i]))
			rows = t.data.AppendRecords(rows[:0])
			for k := range rows {
				parts[d] = rows[k].Encode(parts[d])
			}
			b.stats.RecordsShipped += int64(counts[i])
			continue
		}
		if mine {
			arena.reserve(counts[i])
			own[i] = make([]record.Record, 0, counts[i])
		} else {
			// Frame per task: [u32 taskIdx][u32 n][n records]; n is
			// patched in once the scan has counted the records.
			parts[d] = binary.LittleEndian.AppendUint32(parts[d], uint32(i))
			parts[d] = binary.LittleEndian.AppendUint32(parts[d], 0)
		}
		// A shipped page goes into the frame as it was read; only the
		// rows this rank keeps are decoded.
		var localN int
		ok := pass.pages(t.file, func(page []byte) error {
			localN += len(page) / rb
			if !mine {
				parts[d] = append(parts[d], page...)
				return nil
			}
			for off := 0; off < len(page); off += rb {
				rec, err := arena.decode(page[off : off+rb])
				if err != nil {
					return err
				}
				own[i] = append(own[i], rec)
			}
			return nil
		})
		if !ok {
			break
		}
		if !mine {
			binary.LittleEndian.PutUint32(parts[d][len(parts[d])-localN*rb-4:], uint32(localN))
			b.stats.RecordsShipped += int64(localN)
		}
	}
	if err := pass.finish(); err != nil {
		return nil, err
	}
	for _, t := range small {
		b.removeFile(t.file)
	}
	recv, err := comm.AllToAll(b.c, parts)
	if err != nil {
		return nil, err
	}

	// Owners assemble their tasks' records in rank order.
	taskRecs := make([][]record.Record, len(small))
	for i, t := range small {
		if owner[i] == rank {
			taskRecs[i] = make([]record.Record, 0, t.n)
		}
	}
	for src, raw := range recv {
		if src == rank {
			for i, t := range small {
				if owner[i] != rank {
					continue
				}
				if t.data != nil {
					taskRecs[i] = t.data.AppendRecords(taskRecs[i])
				} else {
					taskRecs[i] = append(taskRecs[i], own[i]...)
				}
			}
			continue
		}
		if err := decodeTaskRecords(b.schema, raw, taskRecs, &arena); err != nil {
			return nil, err
		}
	}
	return taskRecs, nil
}

// recordArena hands out records whose value slices are carved from shared
// backing arrays: one allocation per reserve call instead of two per
// record.
type recordArena struct {
	schema *record.Schema
	num    []float64
	cat    []int32
}

// reserve makes room for n more records.
func (a *recordArena) reserve(n int) {
	nn, nc := a.schema.NumNumeric(), a.schema.NumCategorical()
	if len(a.num) < n*nn {
		a.num = make([]float64, n*nn)
	}
	if len(a.cat) < n*nc {
		a.cat = make([]int32, n*nc)
	}
}

// next returns a zeroed record with its slices in the arena.
func (a *recordArena) next() record.Record {
	nn, nc := a.schema.NumNumeric(), a.schema.NumCategorical()
	if len(a.num) < nn || len(a.cat) < nc {
		a.reserve(256)
	}
	r := record.Record{Num: a.num[:nn:nn], Cat: a.cat[:nc:nc]}
	a.num, a.cat = a.num[nn:], a.cat[nc:]
	return r
}

// decode returns the record encoded in row, its slices in the arena.
func (a *recordArena) decode(row []byte) (record.Record, error) {
	rec := a.next()
	_, err := rec.Decode(a.schema, row)
	return rec, err
}

// errNotAssembled is every rank's error when some rank of a checkpointed
// build could not attach every finished subtree: no rank deletes its
// checkpoint levels, so the restarted group resumes from the last one.
var errNotAssembled = errors.New("pclouds: finished tree not assembled on every rank; checkpoints kept")

// exchangeSubtrees all-gathers the encoded subtrees (results[i] is non-nil
// on the rank that solved small[i]) and attaches every one of them on every
// rank, so all ranks finish with the same tree. A checkpointed build then
// votes (durable.Agree): the build deletes its checkpoint levels once it returns the tree,
// which a rank may do only when every rank holds that tree. A transport
// error returns at once, and the rank that saw it never votes, so its
// peers' vote fails too.
func (b *pbuilder) exchangeSubtrees(small []*nodeTask, results [][]byte) error {
	defer b.rec.Start("small-exchange").End()
	gathered, err := comm.AllGather(b.c, tree.EncodeSubtrees(results))
	if err != nil {
		return err
	}
	err = tree.AttachSubtrees(b.schema, gathered, len(small), func(i int, root *tree.Node) { small[i].attach(root) })
	if b.cfg.CheckpointDir == "" {
		return err
	}
	all, verr := durable.Agree(b.c, err == nil)
	switch {
	case verr != nil:
		return verr
	case err != nil:
		return fmt.Errorf("%w: %w", errNotAssembled, err)
	case !all:
		return errNotAssembled
	}
	return nil
}

// decodeTaskRecords appends the records of every [u32 taskIdx][u32 n]
// [n records] frame in src to into[taskIdx].
func decodeTaskRecords(schema *record.Schema, src []byte, into [][]record.Record, arena *recordArena) error {
	rb := schema.RecordBytes()
	r := &frameReader{buf: src}
	for r.more() {
		idx := int(r.u32())
		n := r.count(rb)
		if r.err != nil {
			return fmt.Errorf("pclouds: task records: %w", r.err)
		}
		if idx >= len(into) {
			return fmt.Errorf("pclouds: task record index %d out of range", idx)
		}
		arena.reserve(n)
		for k := 0; k < n; k++ {
			rec, err := arena.decode(r.take(rb))
			if err != nil {
				return err
			}
			into[idx] = append(into[idx], rec)
		}
	}
	return nil
}
