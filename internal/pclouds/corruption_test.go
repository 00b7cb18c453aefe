package pclouds

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/durable"
	"pclouds/internal/fault"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Data-plane corruption chaos tests (ISSUE 10): a seeded bit flip in a
// rank's out-of-core store mid-build must be detected (never a silently
// wrong tree), collectively attributed to its file and offset, and — when
// checkpointing is on — recovered from the newest clean checkpoint to the
// bit-identical tree, with the corrupt artifact quarantined for post-mortem.

// stageIntegrityStore is stageFileStore with the verifying backend enabled
// before any byte is written, so the staged root is checksum-framed.
func stageIntegrityStore(dir string, rank, p int, data *record.Dataset) (*ooc.Store, error) {
	store, err := ooc.NewFileStore(data.Schema, dir, costmodel.Zero(), nil)
	if err != nil {
		return nil, err
	}
	store.EnableIntegrity(ooc.IntegrityOptions{})
	w, err := store.CreateWriter("root")
	if err != nil {
		return nil, err
	}
	for i := rank; i < data.Len(); i += p {
		if err := w.Write(data.Records[i]); err != nil {
			w.Close()
			return nil, err
		}
	}
	return store, w.Close()
}

// TestChaosCorruptionRecovered is the headline scenario: a 4-rank
// file-backed checkpointed build has one bit of rank 1's level-2 frontier
// flipped on disk right after the level-2 checkpoint commits. The next scan
// of that file must fail its CRC, every rank must agree on the corruption,
// rank 1 must quarantine the file, and the collective resume ladder must
// step back to level 1 (level 2 references the quarantined file) and
// rebuild — producing the bit-identical tree of an undisturbed build.
func TestChaosCorruptionRecovered(t *testing.T) {
	poisonPages(t)
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	ckptDir := t.TempDir()
	storeRoot := t.TempDir()
	stores := make([]*ooc.Store, p)
	for r := 0; r < p; r++ {
		st, err := stageIntegrityStore(filepath.Join(storeRoot, fmt.Sprintf("rank%d", r)), r, p, data)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}

	// flipFrontierBit corrupts one byte of the first pending frontier file
	// named by rank 1's just-committed level-2 manifest — the exact artifact
	// the next level's scans will read.
	var hookOnce sync.Once
	var hookErr error
	flipFrontierBit := func() {
		data, err := os.ReadFile(filepath.Join(ckptDir, "level-0002", "rank1.json"))
		if err != nil {
			hookErr = err
			return
		}
		var m ckptManifest
		if err := json.Unmarshal(data, &m); err != nil {
			hookErr = err
			return
		}
		tasks := m.Pending
		if len(tasks) == 0 {
			tasks = m.Small
		}
		if len(tasks) == 0 {
			hookErr = errors.New("level-2 manifest has no frontier tasks to corrupt")
			return
		}
		path := filepath.Join(storeRoot, "rank1", tasks[0].File)
		raw, err := os.ReadFile(path)
		if err != nil {
			hookErr = err
			return
		}
		idx := ooc.FrameHeaderSize + 84 // well inside the first frame's payload
		if idx >= len(raw) {
			idx = len(raw) - 1
		}
		raw[idx] ^= 0x40
		hookErr = os.WriteFile(path, raw, 0o644)
	}

	watchdog(t, "corruption recovery", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		trees := make([]*tree.Tree, p)
		stats := make([]*Stats, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				kcfg := cfg
				kcfg.CheckpointDir = ckptDir
				kcfg.Integrity = true
				kcfg.Warnf = func(string, ...any) {} // expected noise
				if r == 1 {
					kcfg.LevelHook = func(level int) {
						if level == 2 {
							hookOnce.Do(flipFrontierBit)
						}
					}
				}
				trees[r], stats[r], errs[r] = Build(kcfg, c, stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		if hookErr != nil {
			t.Fatalf("corruption hook: %v", hookErr)
		}
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}
		if t.Failed() {
			return
		}
		for r := 0; r < p; r++ {
			if !tree.Equal(ref, trees[r]) {
				t.Errorf("rank %d: recovered tree differs from undisturbed build", r)
			}
			if stats[r].Recoveries != 1 {
				t.Errorf("rank %d: Recoveries = %d, want 1", r, stats[r].Recoveries)
			}
		}
		if stats[1].Quarantines != 1 {
			t.Errorf("rank 1: Quarantines = %d, want 1", stats[1].Quarantines)
		}
		if stats[1].Integrity.Corruptions == 0 {
			t.Error("rank 1: verifying backend counted no corruptions")
		}
		q, err := filepath.Glob(filepath.Join(storeRoot, "rank1", durable.QuarantineName("*")))
		if err != nil || len(q) != 1 {
			t.Errorf("quarantined files in rank 1's store: %v (err %v), want exactly one", q, err)
		}
	})
}

// TestCorruptionDetectedAttributed is the no-checkpoint half of the
// acceptance criterion: without a checkpoint to fall back to, a persistent
// bit flip (injected into rank 2's store medium beneath the verifier) must
// surface on every rank as the same attributed DataCorruptError — never as
// a silently wrong tree, and never as a hang.
func TestCorruptionDetectedAttributed(t *testing.T) {
	poisonPages(t)
	const p = 4
	data := makeData(t, 2000, 1, 7)
	cfg := testConfig(clouds.SS)
	cfg.Integrity = true
	sample := cfg.Clouds.SampleFor(data)

	// One bit of rank 2's first written page is flipped on the medium, below
	// the verifying wrapper — exactly what a decaying disk does.
	inj := fault.NewInjector(31,
		fault.Rule{Rank: 2, Op: fault.OpWrite, Class: fault.AnyClass, Action: fault.Corrupt, Count: 1})

	watchdog(t, "attributed corruption", func() {
		comms := comm.NewGroup(p, costmodel.Zero())
		errs := make([]error, p)
		trees := make([]*tree.Tree, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				store := ooc.NewMemStore(data.Schema, costmodel.Zero(), comms[r].Clock())
				store.WrapBackend(fault.WrapBackend(inj, r))
				store.EnableIntegrity(ooc.IntegrityOptions{})
				w, err := store.CreateWriter("root")
				if err != nil {
					errs[r] = err
					return
				}
				for i := r; i < data.Len(); i += p {
					if err := w.Write(data.Records[i]); err != nil {
						errs[r] = err
						w.Close()
						return
					}
				}
				if err := w.Close(); err != nil {
					errs[r] = err
					return
				}
				trees[r], _, errs[r] = Build(cfg, comms[r], store, "root", sample)
			}(r)
		}
		wg.Wait()
		if got := inj.Stats().Corruptions; got != 1 {
			t.Fatalf("injected %d corruptions, want 1", got)
		}
		var want *CorruptionReport
		for r, err := range errs {
			if trees[r] != nil {
				t.Errorf("rank %d: produced a tree from corrupt data", r)
			}
			if !errors.Is(err, ErrDataCorrupt) {
				t.Errorf("rank %d: want ErrDataCorrupt, got %v", r, err)
				continue
			}
			var dce *DataCorruptError
			if !errors.As(err, &dce) {
				t.Errorf("rank %d: error carries no report: %v", r, err)
				continue
			}
			if dce.Report.Rank != 2 || dce.Report.File != "root" {
				t.Errorf("rank %d: report attributes rank %d file %q, want rank 2 file \"root\"", r, dce.Report.Rank, dce.Report.File)
			}
			if want == nil {
				want = &dce.Report
			} else if *want != dce.Report {
				t.Errorf("rank %d: report %+v differs from rank-agreed %+v", r, dce.Report, *want)
			}
		}
	})
}
