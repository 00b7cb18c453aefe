package pclouds

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// buildWithStores runs a p-rank channel-transport build over caller-owned
// stores (so a later call can resume against the same data) and returns the
// per-rank trees and errors without asserting success.
func buildWithStores(cfg Config, comms []*comm.ChannelComm, stores []*ooc.Store, sample []record.Record) ([]*tree.Tree, []*Stats, []error) {
	p := len(comms)
	trees := make([]*tree.Tree, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	done := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			trees[r], stats[r], errs[r] = Build(cfg, comms[r], stores[r], "root", sample)
			done <- r
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	return trees, stats, errs
}

// TestCheckpointResumeBitIdentical is the core recovery guarantee: a build
// stopped at a level boundary and resumed from its checkpoint produces
// exactly the tree of an uninterrupted build.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)

	// Reference: uninterrupted parallel build.
	ref, _ := buildParallel(t, cfg, data, sample, p)

	for _, stopAt := range []int{1, 2, 3} {
		ckptDir := t.TempDir()

		// Phase 1: build with checkpointing, stopping after `stopAt` levels.
		cfgStop := cfg
		cfgStop.CheckpointDir = ckptDir
		cfgStop.StopAfterLevel = stopAt
		comms := comm.NewGroup(p, costmodel.Zero())
		stores := distribute(t, data, p, costmodel.Zero(), comms)
		_, _, errs := buildWithStores(cfgStop, comms, stores, sample)
		for r, err := range errs {
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("stop-at-%d: rank %d: want ErrStopped, got %v", stopAt, r, err)
			}
		}

		// Phase 2: resume against the same stores; fresh comm group.
		cfgRes := cfg
		cfgRes.CheckpointDir = ckptDir
		cfgRes.Resume = true
		comms2 := comm.NewGroup(p, costmodel.Zero())
		trees, stats, errs2 := buildWithStores(cfgRes, comms2, stores, sample)
		for r, err := range errs2 {
			if err != nil {
				t.Fatalf("stop-at-%d: resume rank %d: %v", stopAt, r, err)
			}
		}
		for r := 0; r < p; r++ {
			if stats[r].ResumedLevel != stopAt {
				t.Fatalf("stop-at-%d: rank %d resumed from level %d", stopAt, r, stats[r].ResumedLevel)
			}
			if !tree.Equal(ref, trees[r]) {
				t.Fatalf("stop-at-%d: rank %d's resumed tree differs from the uninterrupted build", stopAt, r)
			}
		}
	}
}

// TestCheckpointingDoesNotChangeTree: a build that checkpoints every level
// but is never interrupted produces the identical tree (checkpointing is
// observation, not perturbation).
func TestCheckpointingDoesNotChangeTree(t *testing.T) {
	const p = 3
	data := makeData(t, 3000, 1, 7)
	cfg := testConfig(clouds.SS)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	cfgCk := cfg
	cfgCk.CheckpointDir = t.TempDir()
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	trees, stats, errs := buildWithStores(cfgCk, comms, stores, sample)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d: checkpointing changed the tree", r)
		}
		if stats[r].Checkpoints == 0 {
			t.Fatalf("rank %d wrote no checkpoints", r)
		}
	}
}

// TestResumeDetectsMissingStoreFile: a frontier file that vanished between
// checkpoint and resume fails the resume with an explicit error instead of
// silently rebuilding from torn data.
func TestResumeDetectsMissingStoreFile(t *testing.T) {
	const p = 2
	data := makeData(t, 2000, 2, 9)
	cfg := testConfig(clouds.SSE)
	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 1
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Sabotage rank 1: delete one of the frontier files its checkpoint
	// references. (The staged root file still exists — removals are
	// deferred while checkpointing — so picking an arbitrary store file is
	// not enough.)
	raw, err := os.ReadFile(manifestPath(cfg.CheckpointDir, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var m ckptManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	victims := append(m.Pending, m.Small...)
	if len(victims) == 0 {
		t.Fatal("level-1 checkpoint has no frontier tasks")
	}
	stores[1].Remove(victims[0].File)

	cfg.StopAfterLevel = 0
	cfg.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	_, _, errs2 := buildWithStores(cfg, comms2, stores, sample)
	if errs2[1] == nil {
		t.Fatal("rank 1 resumed over a missing frontier file")
	}
}

// TestResumePicksNewestCommonLevel: a crash between two ranks' checkpoint
// writes leaves them one level apart; the resume agrees on the newest level
// complete on every rank — the older one — and still produces the
// reference tree bit-identically.
func TestResumePicksNewestCommonLevel(t *testing.T) {
	const p = 2
	data := makeData(t, 2000, 2, 9)
	cfg := testConfig(clouds.SSE)
	ref, _ := buildParallel(t, cfg, data, cfg.Clouds.SampleFor(data), p)

	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 2
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Simulate rank 1 dying before its level-2 checkpoint landed.
	if err := os.Remove(manifestPath(cfg.CheckpointDir, 2, 1)); err != nil {
		t.Fatal(err)
	}

	cfg.StopAfterLevel = 0
	cfg.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	trees, stats, errs2 := buildWithStores(cfg, comms2, stores, sample)
	for r, err := range errs2 {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if stats[r].ResumedLevel != 1 {
			t.Fatalf("rank %d resumed from level %d, want the newest common level 1", r, stats[r].ResumedLevel)
		}
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d's fallback-resumed tree differs from the uninterrupted build", r)
		}
	}
}

// TestResumeRejectsFlippedTaskID: one flipped letter in a task ID of rank
// 1's newest manifest ('L' to 'M') would restore that task under the right
// child on rank 1 alone while its peers restore it under the left. The
// manifest decoder rejects the level instead, so the resume steps down to
// the previous one and still builds the reference tree.
func TestResumeRejectsFlippedTaskID(t *testing.T) {
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 2
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	path := manifestPath(cfg.CheckpointDir, 2, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for rest := raw; !flipped; {
		const key = `"id": "n`
		at := bytes.Index(rest, []byte(key))
		if at < 0 {
			t.Fatal("rank 1's level-2 manifest has no task ID with an 'L'")
		}
		rest = rest[at+len(key):]
		id := rest[:bytes.IndexByte(rest, '"')]
		if l := bytes.IndexByte(id, 'L'); l >= 0 {
			id[l] = 'M' // rest aliases raw
			flipped = true
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.StopAfterLevel = 0
	cfg.Resume = true
	var trees []*tree.Tree
	var stats []*Stats
	watchdog(t, "resume", func() {
		trees, stats, errs = buildWithStores(cfg, comm.NewGroup(p, costmodel.Zero()), stores, sample)
	})
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if stats[r].ResumedLevel != 1 {
			t.Fatalf("rank %d resumed from level %d, want 1 below the corrupt manifest", r, stats[r].ResumedLevel)
		}
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d's resumed tree differs from the uninterrupted build", r)
		}
	}
}

// TestStrictResumeFailsWithoutCommonLevel: when no checkpoint level is
// complete on every rank, the strict Resume surfaces ErrNoCheckpoint on
// all of them instead of restoring from torn state.
func TestStrictResumeFailsWithoutCommonLevel(t *testing.T) {
	const p = 2
	data := makeData(t, 2000, 2, 9)
	cfg := testConfig(clouds.SSE)
	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 1
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Rank 1 never managed to write any checkpoint.
	if err := os.Remove(manifestPath(cfg.CheckpointDir, 1, 1)); err != nil {
		t.Fatal(err)
	}

	cfg.StopAfterLevel = 0
	cfg.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	_, _, errs2 := buildWithStores(cfg, comms2, stores, sample)
	for r, err := range errs2 {
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("rank %d: want ErrNoCheckpoint, got %v", r, err)
		}
	}
}

// TestPartialTreeRoundTrip: the checkpoint encoding preserves frontier
// holes exactly.
func TestPartialTreeRoundTrip(t *testing.T) {
	data := makeData(t, 500, 1, 3)
	root := &tree.Node{
		Splitter:    &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: 30},
		N:           500,
		ClassCounts: []int64{300, 200},
		Left:        &tree.Node{N: 300, ClassCounts: []int64{300, 0}, Class: 0},
		// Right child pending.
	}
	blob := tree.EncodePartial(&tree.Tree{Schema: data.Schema, Root: root})
	got, err := tree.DecodePartial(data.Schema, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root == nil || got.Root.Left == nil || got.Root.Right != nil {
		t.Fatalf("partial shape not preserved: %+v", got.Root)
	}
	if got.Root.Splitter == nil || got.Root.Splitter.Threshold != 30 {
		t.Fatal("splitter lost in partial roundtrip")
	}
	// A complete decoder must reject the pending marker.
	if _, err := tree.Decode(data.Schema, blob); err == nil {
		t.Fatal("Decode accepted a partial encoding")
	}
}

// TestCheckpointGCPrunesOldLevels: committing level L prunes levels
// <= L-keepLevels and, one commit later, the frontier files only those
// pruned manifests referenced — the checkpoint directory stays bounded
// instead of accumulating one level per tree depth.
func TestCheckpointGCPrunesOldLevels(t *testing.T) {
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 3
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if _, err := os.Stat(levelDir(cfg.CheckpointDir, 1)); !os.IsNotExist(err) {
		t.Fatalf("level 1 survived GC after level 3 committed (stat: %v)", err)
	}
	for _, lvl := range []int{2, 3} {
		for r := 0; r < p; r++ {
			if _, err := os.Stat(manifestPath(cfg.CheckpointDir, lvl, r)); err != nil {
				t.Fatalf("retained level %d rank %d manifest missing: %v", lvl, r, err)
			}
		}
	}

	// The pruned level's exclusive frontier files are gone too, but the
	// retained levels' frontiers must still verify — prove it by resuming.
	cfg.StopAfterLevel = 0
	cfg.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	trees, stats, errs2 := buildWithStores(cfg, comms2, stores, sample)
	for r, err := range errs2 {
		if err != nil {
			t.Fatalf("resume rank %d: %v", r, err)
		}
	}
	ref, _ := buildParallel(t, testConfig(clouds.SSE), data, sample, p)
	for r := 0; r < p; r++ {
		if stats[r].ResumedLevel != 3 {
			t.Fatalf("rank %d resumed from level %d, want 3", r, stats[r].ResumedLevel)
		}
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d resumed tree differs after GC", r)
		}
	}
}

// TestCheckpointGCCounters: the build stats expose kept/pruned counts.
func TestCheckpointGCCounters(t *testing.T) {
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	cfg.CheckpointDir = t.TempDir()
	cfg.StopAfterLevel = 3
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, stats, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if stats[r] != nil {
			t.Fatalf("rank %d returned stats despite ErrStopped", r)
		}
	}

	// Finish the build: after success every remaining level is cleaned up,
	// so pruned counts cover all checkpoints ever written and none are kept.
	cfg.StopAfterLevel = 0
	cfg.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	_, stats2, errs2 := buildWithStores(cfg, comms2, stores, sample)
	for r, err := range errs2 {
		if err != nil {
			t.Fatalf("resume rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if stats2[r].CheckpointsPruned == 0 {
			t.Fatalf("rank %d pruned no checkpoint levels", r)
		}
		if stats2[r].CheckpointsKept != 0 {
			t.Fatalf("rank %d still keeps %d levels after a successful build", r, stats2[r].CheckpointsKept)
		}
	}
	ents, err := os.ReadDir(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("checkpoint dir not empty after successful build: %v", ents)
	}
}

// TestDegradedCheckpointingContinues: a checkpoint directory that cannot be
// written (here: a path under a regular file) must not fail the build —
// every level's checkpoint degrades to a warning and the tree still comes
// out identical to the reference.
func TestDegradedCheckpointingContinues(t *testing.T) {
	const p = 2
	data := makeData(t, 2000, 2, 9)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnMu sync.Mutex
	var warns []string
	cfg.CheckpointDir = filepath.Join(blocker, "ck")
	cfg.Warnf = func(format string, args ...any) {
		warnMu.Lock()
		warns = append(warns, fmt.Sprintf(format, args...))
		warnMu.Unlock()
	}
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	trees, stats, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: degraded checkpointing failed the build: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d: degraded-mode tree differs from reference", r)
		}
		if stats[r].CheckpointFailures == 0 {
			t.Fatalf("rank %d recorded no checkpoint failures", r)
		}
		if stats[r].Checkpoints != 0 {
			t.Fatalf("rank %d claims %d successful checkpoints into an unwritable dir", r, stats[r].Checkpoints)
		}
	}
	warnMu.Lock()
	defer warnMu.Unlock()
	if len(warns) == 0 {
		t.Fatal("degraded mode produced no warnings")
	}
	for _, w := range warns {
		if strings.Contains(w, "checkpoint level") {
			return
		}
	}
	t.Fatalf("no warning names the failed checkpoint level: %v", warns)
}

// blockManifests makes rank's manifest of every level in [from, to]
// unwritable: a non-empty directory stands where its rename would land.
func blockManifests(t *testing.T, dir string, rank, from, to int) {
	t.Helper()
	for lvl := from; lvl <= to; lvl++ {
		if err := os.MkdirAll(filepath.Join(manifestPath(dir, lvl, rank), "blocker"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDegradedRankResumesFromLastCommonLevel: rank 1 cannot write any
// level from 2 on, so no level after 1 commits and nobody prunes level 1.
// A stopped build restarted over the same directory resumes every rank
// from level 1, builds the reference tree, and leaves no store file behind.
func TestDegradedRankResumesFromLastCommonLevel(t *testing.T) {
	const p = 2
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	cfg.CheckpointDir = t.TempDir()
	cfg.Warnf = func(string, ...any) {}
	blockManifests(t, cfg.CheckpointDir, 1, 2, 64)
	cfg.StopAfterLevel = 3
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfg, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	cfg.StopAfterLevel = 0
	trees, stats, errs := buildWithStores(cfg, comm.NewGroup(p, costmodel.Zero()), stores, sample)
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if stats[r].ResumedLevel != 1 {
			t.Fatalf("rank %d resumed from level %d, want the last committed level 1", r, stats[r].ResumedLevel)
		}
		if !bytes.Equal(tree.Encode(trees[r]), tree.Encode(ref)) {
			t.Fatalf("rank %d: tree bytes differ from the uninterrupted build", r)
		}
		if names, err := stores[r].List(); err != nil || len(names) != 0 {
			t.Fatalf("rank %d: store files left after the build: %v (%v)", r, names, err)
		}
	}
}

// TestTracedCheckpointCountersMatchStats: every checkpoint lifecycle event
// is counted once, so a traced checkpointed build's recorder counters equal
// its Stats. Rank 1 cannot write level 2, so failures are counted too.
func TestTracedCheckpointCountersMatchStats(t *testing.T) {
	const p = 2
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	cfg.CheckpointDir = t.TempDir()
	cfg.Warnf = func(string, ...any) {}
	blockManifests(t, cfg.CheckpointDir, 1, 2, 2)
	sample := cfg.Clouds.SampleFor(data)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	recs := make([]*obs.Recorder, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		recs[r] = obs.New(r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Trace = recs[r]
			_, stats[r], errs[r] = Build(rcfg, comms[r], stores[r], "root", sample)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		got := recs[r].Counters()
		st := stats[r]
		want := map[string]int{
			"checkpoints":         st.Checkpoints,
			"checkpoints-pruned":  st.CheckpointsPruned,
			"checkpoints-kept":    st.CheckpointsKept,
			"checkpoint-failures": st.CheckpointFailures,
		}
		for name, n := range want {
			if got[name] != int64(n) {
				t.Errorf("rank %d: counter %s = %d, Stats says %d", r, name, got[name], n)
			}
		}
		if st.Checkpoints == 0 || st.CheckpointsPruned == 0 {
			t.Errorf("rank %d: %d checkpoints, %d pruned; the build should write and prune levels", r, st.Checkpoints, st.CheckpointsPruned)
		}
	}
	if stats[1].CheckpointFailures != 1 {
		t.Errorf("rank 1 counted %d checkpoint failures, want 1", stats[1].CheckpointFailures)
	}
}

// TestResumePolicy pins the one resume policy of a checkpointed build: with
// only CheckpointDir set, every rank restores from the newest level every
// rank holds, or starts fresh together when there is none; the strict
// Resume instead fails with ErrNoCheckpoint on every rank. Each case checks
// every rank's resumed level and tree bytes.
func TestResumePolicy(t *testing.T) {
	data := makeData(t, 2000, 2, 9)
	cases := []struct {
		name   string
		stopAt int // 0: no earlier run; else a run stopped after this level
		hole   int // the last rank never wrote this level's manifest (0: none)
		strict bool
		want   int // resumed level; -1: ErrNoCheckpoint
	}{
		{name: "empty dir builds fresh", want: 0},
		{name: "stopped run resumes from its last level", stopAt: 2, want: 2},
		{name: "hole resumes from the newest common level", stopAt: 2, hole: 2, want: 1},
		{name: "no common level builds fresh", stopAt: 1, hole: 1, want: 0},
		{name: "strict resume without a level fails", strict: true, want: -1},
	}
	for _, p := range []int{1, 3} {
		cfg := testConfig(clouds.SSE)
		sample := cfg.Clouds.SampleFor(data)
		ref, _ := buildParallel(t, cfg, data, sample, p)
		refBytes := tree.Encode(ref)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("p=%d/%s", p, tc.name), func(t *testing.T) {
				cfg := cfg
				cfg.CheckpointDir = t.TempDir()
				comms := comm.NewGroup(p, costmodel.Zero())
				stores := distribute(t, data, p, costmodel.Zero(), comms)
				if tc.stopAt > 0 {
					scfg := cfg
					scfg.StopAfterLevel = tc.stopAt
					_, _, errs := buildWithStores(scfg, comms, stores, sample)
					for r, err := range errs {
						if !errors.Is(err, ErrStopped) {
							t.Fatalf("stopped run rank %d: %v", r, err)
						}
					}
					comms = comm.NewGroup(p, costmodel.Zero())
				}
				if tc.hole > 0 {
					if err := os.Remove(manifestPath(cfg.CheckpointDir, tc.hole, p-1)); err != nil {
						t.Fatal(err)
					}
				}
				cfg.Resume = tc.strict
				trees, stats, errs := buildWithStores(cfg, comms, stores, sample)
				for r := 0; r < p; r++ {
					if tc.want < 0 {
						if !errors.Is(errs[r], ErrNoCheckpoint) {
							t.Errorf("rank %d: want ErrNoCheckpoint, got %v", r, errs[r])
						}
						continue
					}
					if errs[r] != nil {
						t.Errorf("rank %d: %v", r, errs[r])
						continue
					}
					if stats[r].ResumedLevel != tc.want {
						t.Errorf("rank %d resumed from level %d, want %d", r, stats[r].ResumedLevel, tc.want)
					}
					if !bytes.Equal(tree.Encode(trees[r]), refBytes) {
						t.Errorf("rank %d: tree bytes differ from the uninterrupted build", r)
					}
				}
			})
		}
	}
}

// TestDirectoryAtManifestIsNotALevel: a directory standing where a level's
// manifest (or rank 0's partial tree) belongs does not make that level a
// held one. It is never listed, never resumed into and never counted as
// pruned: a build over a directory holding such a level keeps every
// checkpoint counter of the same build over a clean directory.
func TestDirectoryAtManifestIsNotALevel(t *testing.T) {
	const p, planted = 2, 40
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	// run stops a checkpointed build after level 2, resumes it, and
	// returns the resumed ranks' stats.
	run := func(dir string) []*Stats {
		c := cfg
		c.CheckpointDir = dir
		c.StopAfterLevel = 2
		comms := comm.NewGroup(p, costmodel.Zero())
		stores := distribute(t, data, p, costmodel.Zero(), comms)
		_, _, errs := buildWithStores(c, comms, stores, sample)
		for r, err := range errs {
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		c.StopAfterLevel = 0
		trees, stats, errs := buildWithStores(c, comm.NewGroup(p, costmodel.Zero()), stores, sample)
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			if stats[r].ResumedLevel != 2 {
				t.Fatalf("rank %d resumed from level %d, want 2", r, stats[r].ResumedLevel)
			}
			if !bytes.Equal(tree.Encode(trees[r]), tree.Encode(ref)) {
				t.Fatalf("rank %d: tree bytes differ from the uninterrupted build", r)
			}
		}
		return stats
	}

	dir := t.TempDir()
	for r := 0; r < p; r++ {
		if err := os.MkdirAll(filepath.Join(manifestPath(dir, planted, r), "x"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(treePath(dir, planted), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if levels, err := listLevels(dir, r); err != nil || len(levels) != 0 {
			t.Fatalf("rank %d lists levels %v (%v) in a directory holding only directories", r, levels, err)
		}
	}
	got, want := run(dir), run(t.TempDir())
	for r := 0; r < p; r++ {
		if got[r].CheckpointsPruned != want[r].CheckpointsPruned || got[r].CheckpointsKept != want[r].CheckpointsKept {
			t.Fatalf("rank %d: pruned %d, kept %d beside a planted directory; %d, %d in a clean one",
				r, got[r].CheckpointsPruned, got[r].CheckpointsKept, want[r].CheckpointsPruned, want[r].CheckpointsKept)
		}
	}
	if _, err := os.Stat(manifestPath(dir, planted, 0)); err != nil {
		t.Fatalf("the planted directory was removed: %v", err)
	}
}
