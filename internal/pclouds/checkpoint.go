package pclouds

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/durable"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Per-level checkpoint/restart. The level-order build has a natural
// synchronisation point after every completed tree level: each rank holds
// exactly one store file per frontier task, every rank agrees on the task
// list, and rank 0's partial tree contains every node built so far. At that
// point each rank persists a manifest of its frontier (and rank 0 the
// partial tree) atomically with durable.WriteFile, so a later run can
// resume from the last complete level instead of rebuilding from scratch.
// The resumed build re-derives frontier samples by routing the shared root
// sample through the partial tree's splitters and re-runs each frontier
// node's statistics pass (statsPass handles tasks without fused
// statistics), which reproduces the uninterrupted build's tree
// bit-identically.
//
// Checkpoints live in per-level directories (level-0001, level-0002, …)
// under Config.CheckpointDir. Levels are written independently by each
// rank; the all-or-nothing vote after every level (durable.Agree) tells all
// ranks whether the level is complete everywhere, and only a committed
// level prunes (durable.Prune, keepLevels). Because a crash can land
// between two ranks' checkpoint writes, ranks may legitimately disagree by
// one level; resume therefore agrees (durable.Resume) on the newest level
// complete and restorable on *every* rank and restores from that. To make
// the one-level fallback possible, a consumed frontier file is not deleted
// when the build partitions it: a file lives while a retained level's
// manifest names it (level 0, the fresh start, names the staged root file),
// so disk stays bounded by the retained levels.
//
// Degraded mode: a storage error during a checkpoint write is a warning,
// not a build failure — the rank votes the level uncommitted, nobody
// prunes, and the build carries on. Resume routes around the incomplete
// level.
//
// What is NOT checkpointed: progress inside a level or inside the deferred
// small-node phase. A crash there resumes from the preceding level
// boundary; if the crash corrupted the frontier's store files, the
// record-count verification below fails the resume with an explicit error
// rather than building from torn data.

// ckptVersion guards manifest compatibility. Version 2 moved checkpoints
// into per-level directories with deferred frontier-file removal.
const ckptVersion = 2

// keepLevels is the retained checkpoint window: committing level L (or
// resuming from it) prunes every other level but L-1. Two levels suffice —
// the vote after every level bounds inter-rank skew to one level, so the
// newest level complete on every rank is always L or L-1.
const keepLevels = 2

// ErrStopped is returned by Build when Config.StopAfterLevel ended the
// build early at a checkpoint boundary: the checkpoint is complete and the
// build is resumable, but no tree was produced. Chaos tests use it as a
// deterministic, rank-synchronised "kill".
var ErrStopped = errors.New("pclouds: build stopped after checkpointed level")

// ErrNoCheckpoint is returned by a strict resume (Config.Resume) when no
// checkpoint level is complete on every rank; without Resume the build
// starts fresh instead. The decision is the result of a collective, so all
// ranks take the same branch.
var ErrNoCheckpoint = errors.New("pclouds: no usable checkpoint")

// ckptTask is one frontier task in a manifest. Depth and the sample are
// derived from ID at resume; LocalCount pins this rank's share so a
// store/manifest mismatch is detected before any work happens.
type ckptTask struct {
	ID          string  `json:"id"`
	File        string  `json:"file"`
	N           int64   `json:"n"`
	ClassCounts []int64 `json:"class_counts"`
	LocalCount  int64   `json:"local_count"`
}

// ckptManifest is one rank's view of a completed level.
type ckptManifest struct {
	Version int   `json:"version"`
	Level   int   `json:"level"`
	Rank    int   `json:"rank"`
	Size    int   `json:"size"`
	NRoot   int64 `json:"n_root"`
	NextID  int   `json:"next_id"`
	// Split records the -split-method the build ran under. A resume under a
	// different method would re-derive the remaining splits with a different
	// protocol and silently produce a different tree, so it is rejected.
	// Empty (manifests from before the field existed) means "sse".
	Split string `json:"split,omitempty"`
	// DataCRC is the fingerprint of the dataset the build read (the v2
	// record-file header checksum, Config.DataChecksum). A resume whose
	// build reads a dataset with a different fingerprint is refused; zero
	// (either side) means unknown and skips the check.
	DataCRC uint32     `json:"data_crc,omitempty"`
	Pending []ckptTask `json:"pending"`
	Small   []ckptTask `json:"small"`
}

// decodeManifest parses one rank's level manifest and checks what restoring
// its tasks relies on: a task ID is the root marker 'n' followed by one 'L'
// or 'R' per level, a task's class counts have one non-negative entry per
// class and sum to its size n, and its local share lies in [0, n]. A
// manifest that fails is a per-level failure, so one flipped byte in one
// rank's file steps the resume down a level instead of restoring that
// rank's task under the other child.
func decodeManifest(data []byte, numClasses int) (ckptManifest, error) {
	var m ckptManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("corrupt manifest: %w", err)
	}
	for _, tasks := range [][]ckptTask{m.Pending, m.Small} {
		for _, ct := range tasks {
			if err := ct.check(numClasses); err != nil {
				return m, fmt.Errorf("corrupt manifest: task %q: %w", ct.ID, err)
			}
		}
	}
	return m, nil
}

// readManifest reads and decodes one rank's manifest of one level.
func readManifest(dir string, lvl, rank, numClasses int) (ckptManifest, error) {
	data, err := os.ReadFile(manifestPath(dir, lvl, rank))
	if err != nil {
		return ckptManifest{}, err
	}
	return decodeManifest(data, numClasses)
}

func (ct ckptTask) check(numClasses int) error {
	if len(ct.ID) < 2 || ct.ID[0] != 'n' || strings.Trim(ct.ID[1:], "LR") != "" {
		return errors.New("malformed id")
	}
	if len(ct.ClassCounts) != numClasses {
		return fmt.Errorf("%d class counts, want %d", len(ct.ClassCounts), numClasses)
	}
	var sum int64
	for _, k := range ct.ClassCounts {
		if k < 0 || k > math.MaxInt64-sum {
			return fmt.Errorf("class count %d out of range", k)
		}
		sum += k
	}
	if sum != ct.N {
		return fmt.Errorf("class counts sum to %d, n is %d", sum, ct.N)
	}
	if ct.LocalCount < 0 || ct.LocalCount > ct.N {
		return fmt.Errorf("local count %d outside [0, %d]", ct.LocalCount, ct.N)
	}
	return nil
}

func levelDir(dir string, level int) string {
	return filepath.Join(dir, fmt.Sprintf("level-%04d", level))
}

func manifestPath(dir string, level, rank int) string {
	return filepath.Join(levelDir(dir, level), fmt.Sprintf("rank%d.json", rank))
}

func treePath(dir string, level int) string {
	return filepath.Join(levelDir(dir, level), "tree.bin")
}

// listLevels returns, ascending, the checkpoint levels under dir that hold
// this rank's manifest (and, on rank 0, the partial tree) as regular files:
// anything else standing at those paths, a directory say, is not a level.
// Levels another rank wrote but this rank did not are this rank's holes —
// durable.Resume routes around them.
func listLevels(dir string, rank int) ([]int, error) {
	all, err := durable.Epochs(dir, "level-%d")
	if err != nil {
		return nil, err
	}
	var levels []int
	for _, lvl := range all {
		if !isRegular(manifestPath(dir, lvl, rank)) || (rank == 0 && !isRegular(treePath(dir, lvl))) {
			continue
		}
		levels = append(levels, lvl)
	}
	return levels, nil
}

// isRegular reports whether path names a regular file.
func isRegular(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

func taskManifest(b *pbuilder, tasks []*nodeTask) ([]ckptTask, error) {
	out := make([]ckptTask, 0, len(tasks))
	for _, t := range tasks {
		// The frontier file must be durable before the manifest that
		// references it: sync first, then record the count the resumed
		// build will verify.
		if err := b.store.Sync(t.file); err != nil {
			return nil, fmt.Errorf("pclouds: checkpoint sync %q: %w", t.file, err)
		}
		n, err := b.store.Count(t.file)
		if err != nil {
			return nil, fmt.Errorf("pclouds: checkpoint count %q: %w", t.file, err)
		}
		out = append(out, ckptTask{
			ID: t.id, File: t.file, N: t.n,
			ClassCounts: append([]int64(nil), t.classCounts...),
			LocalCount:  n,
		})
	}
	return out, nil
}

// writeCheckpoint persists one completed level into its level directory:
// this rank's manifest, and on rank 0 the partial tree. Every rank writes
// independently; completeness is established by the vote in
// checkpointLevel.
func (b *pbuilder) writeCheckpoint(dir string, level int, root *tree.Node, pending, small []*nodeTask) error {
	if err := os.MkdirAll(levelDir(dir, level), 0o755); err != nil {
		return fmt.Errorf("pclouds: checkpoint dir: %w", err)
	}
	m := ckptManifest{
		Version: ckptVersion, Level: level,
		Rank: b.c.Rank(), Size: b.c.Size(),
		NRoot: b.nRoot, NextID: b.nextID,
		Split:   b.cfg.Clouds.Split.String(),
		DataCRC: b.cfg.DataChecksum,
	}
	var err error
	if m.Pending, err = taskManifest(b, pending); err != nil {
		return err
	}
	if m.Small, err = taskManifest(b, small); err != nil {
		return err
	}
	if b.c.Rank() == 0 {
		// The checksum footer lets a resume reject a bit-flipped partial
		// tree instead of decoding garbage (tree.StripChecksum verifies it).
		blob := tree.AppendChecksum(tree.EncodePartial(&tree.Tree{Schema: b.schema, Root: root}))
		if err := durable.WriteFile(treePath(dir, level), blob); err != nil {
			return fmt.Errorf("pclouds: checkpoint tree: %w", err)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := durable.WriteFile(manifestPath(dir, level, m.Rank), data); err != nil {
		return fmt.Errorf("pclouds: checkpoint manifest: %w", err)
	}
	b.stats.Checkpoints++
	b.rec.Count("checkpoints", 1)
	return nil
}

// checkpointLevel writes this rank's checkpoint for the just-completed
// level, then commits it with the all-or-nothing vote (durable.Agree). Only
// a level complete on every rank prunes; a rank whose write failed logs the
// failure and the build continues without that level (degraded mode). The
// only fatal errors here are communication failures.
func (b *pbuilder) checkpointLevel(level int, root *tree.Node, pending, small []*nodeTask) error {
	werr := b.writeCheckpoint(b.cfg.CheckpointDir, level, root, pending, small)
	if werr != nil {
		b.stats.CheckpointFailures++
		b.rec.Count("checkpoint-failures", 1)
		b.warnf("pclouds: rank %d: checkpoint level %d failed, continuing without it: %v", b.c.Rank(), level, werr)
	}
	committed, err := durable.Agree(b.c, werr == nil)
	if err != nil || !committed {
		// An uncommitted level prunes nothing, so the newest level complete
		// on every rank — and every file its restore needs — survives for
		// the next resume.
		return err
	}
	b.pruneLevels(level, keepLevels)
	return nil
}

// pruneLevels applies the retention policy (durable.Prune) to this rank's
// checkpoint levels once the group agreed on level newest, then deletes the
// store files no retained level needs: the files this build consumed
// (removeFile) and the files a pruned level's manifest named, unless a kept
// level's manifest names them too. Level 0 names the staged root file, so
// the root outlives the first commit. GC errors are warnings — leaking a
// stale level never corrupts a build.
func (b *pbuilder) pruneLevels(newest, keep int) {
	dir, rank := b.cfg.CheckpointDir, b.c.Rank()
	levels, err := listLevels(dir, rank)
	if err != nil {
		b.warnf("pclouds: rank %d: checkpoint GC: %v", rank, err)
		return
	}
	kept := durable.Prune(levels, newest, keep, func(lvl int) {
		for _, f := range b.levelFiles(lvl) {
			b.consumed[f] = true
		}
		os.Remove(manifestPath(dir, lvl, rank))
		if rank == 0 {
			os.Remove(treePath(dir, lvl))
		}
		// Succeeds only for the last rank out; earlier ranks' attempts fail
		// with ENOTEMPTY, which is fine.
		os.Remove(levelDir(dir, lvl))
	})
	pruned := len(levels) - len(kept)
	b.stats.CheckpointsPruned += pruned
	b.rec.Count("checkpoints-pruned", int64(pruned))
	b.stats.CheckpointsKept = len(kept)

	live := map[string]bool{}
	if newest-keep < 0 {
		live[b.rootFile] = true
	}
	for _, lvl := range kept {
		for _, f := range b.levelFiles(lvl) {
			live[f] = true
		}
	}
	for f := range b.consumed {
		if !live[f] {
			b.store.Remove(f)
			delete(b.consumed, f)
		}
	}
}

// levelFiles lists the store files this rank's manifest of a level names;
// an unreadable manifest names none.
func (b *pbuilder) levelFiles(lvl int) []string {
	m, err := readManifest(b.cfg.CheckpointDir, lvl, b.c.Rank(), b.schema.NumClasses)
	if err != nil {
		return nil
	}
	var files []string
	for _, ct := range append(m.Pending, m.Small...) {
		files = append(files, ct.File)
	}
	return files
}

// resumeState is a loaded checkpoint, ready to re-enter the level loop.
type resumeState struct {
	level  int
	root   *tree.Node
	queue  []*nodeTask
	small  []*nodeTask
	nRoot  int64
	nextID int
}

// loadCheckpoint resumes from the newest checkpoint level every rank can
// restore (durable.Resume): it reads this rank's manifest for the level,
// rebuilds the partial tree from rank 0's blob, reconstitutes the frontier
// tasks — samples re-derived from the shared root sample, attach closures
// re-pointed into the decoded tree — and finally prunes around the agreed
// level (pruneLevels): older levels beyond keepLevels and every newer
// orphan, which the resumed build rewrites. A level whose restore fails
// anywhere (a quarantined or missing frontier file, a checksum-failing
// partial tree, an unreadable manifest) is stepped past collectively; with
// no level left the error is ErrNoCheckpoint wrapping the cause.
func loadCheckpoint(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record) (*resumeState, error) {
	dir := cfg.CheckpointDir
	levels, err := listLevels(dir, c.Rank())
	if err != nil {
		// An unreadable directory holds no level this rank can restore. Like
		// a failed checkpoint write it is a warning: returning here alone
		// would leave the other ranks blocked in the agreement below.
		b.warnf("pclouds: rank %d: resume: %v", c.Rank(), err)
	}
	var st *resumeState
	lvl, err := durable.Resume(c, levels, func(lvl int) error {
		var err error
		st, err = restoreLevel(cfg, c, b, rootSample, dir, lvl)
		return err
	})
	if errors.Is(err, durable.ErrNoEpoch) {
		return nil, fmt.Errorf("%w: %w", ErrNoCheckpoint, err)
	}
	if err != nil {
		return nil, err
	}
	b.pruneLevels(lvl, keepLevels)
	return st, nil
}

// restoreLevel attempts to reconstitute one candidate checkpoint level.
// Communication failures and configuration mismatches (identical on every
// rank by construction) are durable.Fatal; any other error is a per-level
// failure durable.Resume steps past. Every rank reaches the Broadcast no
// matter where its local restore failed, so a partially-corrupt level can
// never deadlock the group.
func restoreLevel(cfg Config, c comm.Communicator, b *pbuilder, rootSample []record.Record, dir string, lvl int) (*resumeState, error) {
	m, localErr := readManifest(dir, lvl, c.Rank(), b.schema.NumClasses)
	if localErr != nil {
		localErr = fmt.Errorf("pclouds: resume: %w", localErr)
	} else {
		// A configuration mismatch cannot be fixed by stepping down a level.
		// It is usually symmetric, but a flipped manifest field makes it one
		// rank's alone, so this rank still joins the Broadcast below and
		// durable.Resume's vote, which ends the resume on every rank.
		ckptSplit := m.Split
		if ckptSplit == "" {
			ckptSplit = clouds.SplitSSE.String()
		}
		switch got := cfg.Clouds.Split.String(); {
		case m.Version != ckptVersion:
			localErr = durable.Fatal(fmt.Errorf("pclouds: resume: manifest version %d, want %d", m.Version, ckptVersion))
		case m.Rank != c.Rank() || m.Size != c.Size():
			localErr = durable.Fatal(fmt.Errorf("pclouds: resume: manifest is for rank %d of %d, this group is rank %d of %d",
				m.Rank, m.Size, c.Rank(), c.Size()))
		case ckptSplit != got:
			localErr = durable.Fatal(fmt.Errorf("pclouds: resume: checkpoint was written with -split-method %s, this build uses %s",
				ckptSplit, got))
		case m.DataCRC != 0 && cfg.DataChecksum != 0 && m.DataCRC != cfg.DataChecksum:
			localErr = durable.Fatal(fmt.Errorf("pclouds: resume: checkpoint was written against dataset fingerprint %08x, this build reads %08x — refusing to resume on different data",
				m.DataCRC, cfg.DataChecksum))
		}
	}

	// Rank 0 owns the partial tree; everyone decodes the same bytes. A
	// read or checksum failure on rank 0 broadcasts an empty blob, which
	// every rank turns into the same per-level failure.
	var blob []byte
	if c.Rank() == 0 && localErr == nil {
		tb, terr := os.ReadFile(treePath(dir, lvl))
		if terr == nil {
			tb, _, terr = tree.StripChecksum(tb)
		}
		if terr != nil {
			localErr = fmt.Errorf("pclouds: resume: partial tree: %w", terr)
		} else {
			blob = tb
		}
	}
	blob, err := comm.Broadcast(c, 0, blob)
	if err != nil {
		return nil, durable.Fatal(err)
	}
	st := &resumeState{level: m.Level, nRoot: m.NRoot, nextID: m.NextID}
	if localErr == nil {
		if len(blob) == 0 {
			localErr = fmt.Errorf("pclouds: resume: rank 0 could not provide the partial tree")
		} else if pt, perr := tree.DecodePartial(b.schema, blob); perr != nil {
			localErr = fmt.Errorf("pclouds: resume: partial tree: %w", perr)
		} else if pt.Root == nil {
			localErr = fmt.Errorf("pclouds: resume: checkpoint has no built nodes")
		} else {
			st.root = pt.Root
		}
	}
	if localErr == nil {
		if st.queue, localErr = restoreTasks(b, st.root, rootSample, m.Pending); localErr == nil {
			st.small, localErr = restoreTasks(b, st.root, rootSample, m.Small)
		}
	}
	if localErr != nil {
		b.warnf("pclouds: rank %d: resume from checkpoint level %d failed: %v", c.Rank(), lvl, localErr)
		return nil, localErr
	}
	return st, nil
}

// restoreTasks rebuilds the frontier tasks of a manifest list, in order.
func restoreTasks(b *pbuilder, root *tree.Node, rootSample []record.Record, ck []ckptTask) ([]*nodeTask, error) {
	samples := taskSamples(b.schema, root, rootSample, ck)
	out := make([]*nodeTask, 0, len(ck))
	for _, ct := range ck {
		t, err := restoreTask(b, root, samples[ct.ID], ct)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// taskSamples re-derives the samples of the given tasks. The uninterrupted
// build presorted the shared root sample once and split it at every node;
// one walk down the partial tree replays those splits, descending only
// towards a task, and yields identical samples. A task whose path is broken
// gets none; restoreTask reports it.
func taskSamples(schema *record.Schema, root *tree.Node, rootSample []record.Record, ck []ckptTask) map[string]*clouds.Presorted {
	isTask := make(map[string]bool)
	for _, ct := range ck {
		for i := 1; i < len(ct.ID); i++ {
			if _, ok := isTask[ct.ID[:i]]; !ok {
				isTask[ct.ID[:i]] = false
			}
		}
		isTask[ct.ID] = true
	}
	out := make(map[string]*clouds.Presorted, len(ck))
	var walk func(id string, nd *tree.Node, sample *clouds.Presorted)
	walk = func(id string, nd *tree.Node, sample *clouds.Presorted) {
		task, onPath := isTask[id]
		switch {
		case task:
			out[id] = sample
		case onPath && nd != nil && nd.Splitter != nil:
			l, r := sample.Split(schema, nd.Splitter)
			walk(id+"L", nd.Left, l)
			walk(id+"R", nd.Right, r)
		}
	}
	walk("n", root, clouds.Presort(schema, rootSample))
	return out
}

// restoreTask rebuilds one frontier task from its manifest entry: verify
// the store still holds exactly the records the checkpoint recorded, check
// that its tree path leads to a pending slot in the partial tree, and point
// its attach closure at that slot. sample is the task's re-derived sample.
func restoreTask(b *pbuilder, root *tree.Node, sample *clouds.Presorted, ct ckptTask) (*nodeTask, error) {
	n, err := b.store.Count(ct.File)
	if err != nil {
		return nil, fmt.Errorf("pclouds: resume: task %s: %w", ct.ID, err)
	}
	if n != ct.LocalCount {
		return nil, fmt.Errorf("pclouds: resume: task %s: store %q holds %d records, manifest says %d",
			ct.ID, ct.File, n, ct.LocalCount)
	}
	path := ct.ID[1:] // 'L'/'R' steps from the root (decodeManifest checked)
	cur := root
	for i := 0; i < len(path)-1; i++ {
		if cur == nil || cur.Splitter == nil {
			return nil, fmt.Errorf("pclouds: resume: task %s: tree path broken at step %d", ct.ID, i)
		}
		if path[i] == 'L' {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	parent := cur
	if parent == nil || parent.Splitter == nil {
		return nil, fmt.Errorf("pclouds: resume: task %s: parent node missing from partial tree", ct.ID)
	}
	var attach func(*tree.Node)
	if path[len(path)-1] == 'L' {
		attach = func(nd *tree.Node) { parent.Left = nd }
	} else {
		attach = func(nd *tree.Node) { parent.Right = nd }
	}
	return &nodeTask{
		id: ct.ID, file: ct.File, sample: sample, depth: len(path),
		n: ct.N, classCounts: append([]int64(nil), ct.ClassCounts...),
		attach: attach,
		// localStats stays nil: statsPass runs a statistics pass for
		// tasks without fused statistics, producing the identical split.
	}, nil
}
