package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// testConfig is the shared streaming configuration: small windows, a short
// refresh period and a low growth threshold so a few thousand records
// exercise every path (bootstrap refresh, growth, periodic refresh).
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Schema: datagen.Schema(),
		Clouds: clouds.Config{
			Split:       clouds.SplitHist,
			HistBins:    8,
			MaxDepth:    6,
			MinNodeSize: 2,
			Seed:        1,
		},
		WindowRecords:  200,
		SampleEvery:    2,
		ReservoirCap:   600,
		RefreshEvery:   3,
		GrowMinRecords: 20,
	}
}

func synthetic(t *testing.T, limit int64) func(rank int) Source {
	t.Helper()
	return func(int) Source {
		src, err := NewSynthetic(datagen.Config{Function: 2, Seed: 42}, limit)
		if err != nil {
			t.Error(err)
			return nil
		}
		return src
	}
}

// runRanks drives p engine instances over the in-process channel transport.
func runRanks(t *testing.T, p int, cfg Config, newSrc func(rank int) Source) []*Result {
	t.Helper()
	results := make([]*Result, p)
	err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src := newSrc(c.Rank())
		if src == nil {
			return fmt.Errorf("rank %d: no source", c.Rank())
		}
		defer src.Close()
		res, err := Run(cfg, c, src)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// publishedModels reads every published model file, name -> bytes.
func publishedModels(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = blob
	}
	return out
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSketchMergeBytes pins, exactly, the sketch all-reduce traffic of a
// fixed 4-rank stream: six 512-record windows of the seed-42 function-2
// generator, summed over ranks. The bytes are a deterministic function of
// the frontier the windows grow and of the sketch encoding, so a change to
// either shows here at 0% tolerance.
func TestSketchMergeBytes(t *testing.T) {
	for _, row := range []struct {
		procs, windows int
		want           int64
	}{
		{4, 6, 540128},
	} {
		cfg := Config{
			Schema: datagen.Schema(),
			Clouds: clouds.Config{
				Split:       clouds.SplitHist,
				HistBins:    8,
				MaxDepth:    8,
				MinNodeSize: 2,
				Seed:        1,
			},
			WindowRecords:  512,
			SampleEvery:    4,
			ReservoirCap:   2048,
			RefreshEvery:   3,
			GrowMinRecords: 32,
			MaxWindows:     row.windows,
			PublishDir:     t.TempDir(),
		}
		var got int64
		for _, res := range runRanks(t, row.procs, cfg, synthetic(t, 0)) {
			got += res.Stats.SketchBytes
		}
		if got != row.want {
			t.Errorf("p=%d, %d windows: sketch bytes %d, want %d", row.procs, row.windows, got, row.want)
		}
	}
}

// TestPublishedSequenceDeterministicAcrossRankCounts is the tentpole
// acceptance test: the same seed and window configuration must publish a
// bit-identical model sequence at 1 and 4 ranks, with every model valid.
func TestPublishedSequenceDeterministicAcrossRankCounts(t *testing.T) {
	const windows = 6
	seqs := map[int]map[string][]byte{}
	for _, p := range []int{1, 4} {
		dir := t.TempDir()
		cfg := testConfig(t)
		cfg.PublishDir = dir
		cfg.MaxWindows = windows
		results := runRanks(t, p, cfg, synthetic(t, 0))
		for r := 1; r < p; r++ {
			if !tree.Equal(results[0].Tree, results[r].Tree) {
				t.Fatalf("p=%d: rank %d final tree differs from rank 0", p, r)
			}
		}
		if got := results[0].Stats.Windows; got != windows {
			t.Fatalf("p=%d: committed %d windows, want %d", p, got, windows)
		}
		seqs[p] = publishedModels(t, dir)
	}

	names1, names4 := sortedNames(seqs[1]), sortedNames(seqs[4])
	if len(names1) != windows {
		t.Fatalf("published %d models, want %d: %v", len(names1), windows, names1)
	}
	if fmt.Sprint(names1) != fmt.Sprint(names4) {
		t.Fatalf("published names differ: p=1 %v, p=4 %v", names1, names4)
	}
	distinct := 0
	for i, name := range names1 {
		if !bytes.Equal(seqs[1][name], seqs[4][name]) {
			t.Errorf("model %s differs between 1 and 4 ranks", name)
		}
		if i > 0 && !bytes.Equal(seqs[1][name], seqs[1][names1[i-1]]) {
			distinct++
		}
	}
	if distinct == 0 {
		t.Error("model never changed across windows; the stream is not learning")
	}
}

// TestPublishedModelsValidateAndServe loads every published model through
// the serving loader path (LoadFile validates) and checks the window
// numbering is dense from w000001.
func TestPublishedModelsValidate(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir = dir
	cfg.MaxWindows = 5
	runRanks(t, 2, cfg, synthetic(t, 0))

	models := publishedModels(t, dir)
	for w := 1; w <= 5; w++ {
		name := fmt.Sprintf("model-w%06d.tree", w)
		if _, ok := models[name]; !ok {
			t.Fatalf("window %d model missing; have %v", w, sortedNames(models))
		}
		tr, err := tree.LoadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestStreamEndPartialWindow: a bounded stream whose length is not a
// multiple of the window size commits the final partial window and stops.
func TestStreamEndPartialWindow(t *testing.T) {
	cfg := testConfig(t)
	cfg.PublishDir = t.TempDir()
	// 200-record windows over a 500-record stream: two full windows plus a
	// 100-record partial third.
	results := runRanks(t, 2, cfg, synthetic(t, 500))
	if got := results[0].Stats.Windows; got != 3 {
		t.Fatalf("committed %d windows, want 3", got)
	}
	if results[0].Stats.Scanned != 500 {
		t.Fatalf("scanned %d records, want 500", results[0].Stats.Scanned)
	}
	if n := len(publishedModels(t, cfg.PublishDir)); n != 3 {
		t.Fatalf("published %d models, want 3", n)
	}
}

// TestResumeContinuesSequence: an interrupted run resumed from its window
// checkpoints must publish the same remaining sequence as an uninterrupted
// run — recovery never forks the model history.
func TestResumeContinuesSequence(t *testing.T) {
	const p, total = 2, 7

	refDir := t.TempDir()
	ref := testConfig(t)
	ref.PublishDir = refDir
	ref.MaxWindows = total
	runRanks(t, p, ref, synthetic(t, 0))
	want := publishedModels(t, refDir)

	// Interrupted run: stop after 4 windows, then resume to the full total
	// with a fresh engine (fresh source — the engine replays the stream to
	// the checkpoint high-water mark).
	dir, ckpt := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir, cfg.CheckpointDir = dir, ckpt
	cfg.MaxWindows = 4
	r1 := runRanks(t, p, cfg, synthetic(t, 0))
	if r1[0].Stats.Windows != 4 {
		t.Fatalf("first run committed %d windows, want 4", r1[0].Stats.Windows)
	}
	cfg.MaxWindows = total
	r2 := runRanks(t, p, cfg, synthetic(t, 0))
	if r2[0].Stats.ResumedAt != 4 {
		t.Fatalf("resumed at window %d, want 4", r2[0].Stats.ResumedAt)
	}
	if r2[0].Stats.Windows != total {
		t.Fatalf("second run ended at %d windows, want %d", r2[0].Stats.Windows, total)
	}

	got := publishedModels(t, dir)
	if fmt.Sprint(sortedNames(got)) != fmt.Sprint(sortedNames(want)) {
		t.Fatalf("published names differ: got %v, want %v", sortedNames(got), sortedNames(want))
	}
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Errorf("model %s differs from uninterrupted run", name)
		}
	}
}

// TestResumeAcrossCheckpointHole: ranks missing different windows (a
// degraded-mode write failure on each) must agree on the newest window
// every rank holds, not fail on one rank and leave the other blocked in the
// next collective, and the resumed run must still publish the
// uninterrupted run's sequence byte for byte.
func TestResumeAcrossCheckpointHole(t *testing.T) {
	const p, total = 2, 6

	refDir := t.TempDir()
	ref := testConfig(t)
	ref.PublishDir = refDir
	ref.MaxWindows = total
	runRanks(t, p, ref, synthetic(t, 0))
	want := publishedModels(t, refDir)

	dir, ckpt := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir, cfg.CheckpointDir = dir, ckpt
	cfg.MaxWindows = 4
	runRanks(t, p, cfg, synthetic(t, 0))
	for _, hole := range []struct{ rank, window int }{{0, 3}, {1, 4}} {
		if err := os.Remove(ckptPath(ckpt, hole.rank, hole.window)); err != nil {
			t.Fatal(err)
		}
	}

	cfg.MaxWindows = total
	done := make(chan []*Result, 1)
	errc := make(chan error, 1)
	go func() {
		results := make([]*Result, p)
		err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
			src := synthetic(t, 0)(c.Rank())
			if src == nil {
				return fmt.Errorf("rank %d: no source", c.Rank())
			}
			defer src.Close()
			res, err := Run(cfg, c, src)
			if err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			results[c.Rank()] = res
			return nil
		})
		if err != nil {
			errc <- err
			return
		}
		done <- results
	}()
	var res []*Result
	select {
	case res = <-done:
	case err := <-errc:
		t.Fatalf("resume across the hole failed: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("resume across the hole hung")
	}
	for r, rr := range res {
		if rr.Stats.ResumedAt != 2 {
			t.Fatalf("rank %d resumed at window %d, want the newest common window 2", r, rr.Stats.ResumedAt)
		}
	}
	got := publishedModels(t, dir)
	if fmt.Sprint(sortedNames(got)) != fmt.Sprint(sortedNames(want)) {
		t.Fatalf("published names differ: got %v, want %v", sortedNames(got), sortedNames(want))
	}
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Errorf("model %s differs from uninterrupted run", name)
		}
	}
}

// TestDegradedRankKeepsCommonWindow: a rank whose checkpoint writes fail
// votes every window uncommitted, so no rank prunes and the last window all
// ranks wrote survives everywhere. Rank 1 cannot write windows 2–6 (a
// non-empty directory stands on each path); the restart must resume both
// ranks from window 1 and still publish the uninterrupted run's sequence
// byte for byte. Pruning right after each local write would have removed
// rank 0's window 1 and forced a replay from the start.
func TestDegradedRankKeepsCommonWindow(t *testing.T) {
	const p, total = 2, 8

	refDir := t.TempDir()
	ref := testConfig(t)
	ref.PublishDir = refDir
	ref.MaxWindows = total
	runRanks(t, p, ref, synthetic(t, 0))
	want := publishedModels(t, refDir)

	dir, ckpt := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir, cfg.CheckpointDir = dir, ckpt
	cfg.MaxWindows = 1
	runRanks(t, p, cfg, synthetic(t, 0))
	for w := 2; w <= 6; w++ {
		if err := os.MkdirAll(filepath.Join(ckptPath(ckpt, 1, w), "blocker"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cfg.MaxWindows = 6
	runRanks(t, p, cfg, synthetic(t, 0))

	cfg.MaxWindows = total
	res := runRanks(t, p, cfg, synthetic(t, 0))
	for r, rr := range res {
		if rr.Stats.ResumedAt != 1 {
			t.Fatalf("rank %d resumed at window %d, want the last window every rank wrote, 1", r, rr.Stats.ResumedAt)
		}
	}
	got := publishedModels(t, dir)
	if fmt.Sprint(sortedNames(got)) != fmt.Sprint(sortedNames(want)) {
		t.Fatalf("published names differ: got %v, want %v", sortedNames(got), sortedNames(want))
	}
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Errorf("model %s differs from uninterrupted run", name)
		}
	}
}

// TestTimeWindowsAgreeAcrossRanks: time-based windows close where the
// ranks agree, not where each rank's clock ran out. Rank 1 ingests at a
// quarter of rank 0's pace, so their local deadlines fall at different
// stream positions; both ranks must still commit the same windows over the
// same records and return identical trees.
func TestTimeWindowsAgreeAcrossRanks(t *testing.T) {
	const p, windows = 2, 3
	results := make([]*Result, p)
	err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		cfg := testConfig(t)
		cfg.WindowDuration = 30 * time.Millisecond
		cfg.MaxWindows = windows
		pace := time.Duration(1+3*c.Rank()) * time.Millisecond
		cfg.RecordHook = func(_ int, idx int64) {
			if idx%16 == 0 {
				time.Sleep(pace)
			}
		}
		src := synthetic(t, 0)(c.Rank())
		if src == nil {
			return fmt.Errorf("rank %d: no source", c.Rank())
		}
		defer src.Close()
		res, err := Run(cfg, c, src)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := results[0], results[1]
	if r0.Stats.Windows != windows || r1.Stats.Windows != windows {
		t.Fatalf("committed windows: rank 0 %d, rank 1 %d, want %d", r0.Stats.Windows, r1.Stats.Windows, windows)
	}
	if r0.Stats.Scanned == 0 || r0.Stats.Scanned != r1.Stats.Scanned {
		t.Fatalf("scanned records: rank 0 %d, rank 1 %d", r0.Stats.Scanned, r1.Stats.Scanned)
	}
	if r0.Tree == nil || !bytes.Equal(tree.Encode(r0.Tree), tree.Encode(r1.Tree)) {
		t.Fatal("ranks returned different trees")
	}
}

// TestConfigFingerprintRefusesResume: a checkpoint written under one window
// configuration must not be resumable under another.
func TestConfigFingerprintRefusesResume(t *testing.T) {
	ckpt := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = ckpt
	cfg.MaxWindows = 2
	runRanks(t, 1, cfg, synthetic(t, 0))

	// Same directory, different window size: the fingerprint differs, the
	// checkpoint is skipped, and the run collectively starts fresh (which
	// also wipes the stale checkpoints).
	cfg2 := cfg
	cfg2.WindowRecords = 100
	cfg2.MaxWindows = 1
	res := runRanks(t, 1, cfg2, synthetic(t, 0))
	if res[0].Stats.ResumedAt != 0 {
		t.Fatalf("resumed at %d under a changed configuration, want fresh start", res[0].Stats.ResumedAt)
	}
}

// TestCheckpointRoundTrip exercises the codec directly, including the tree
// and reservoir payloads.
func TestCheckpointRoundTrip(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Generate(300)
	tr, _, err := clouds.BuildInCore(clouds.Config{Seed: 1, MaxDepth: 4}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &ckptState{window: 9, nextIdx: 12345, tree: tr, reservoir: data.Records[:50]}
	blob := encodeCkpt(0xdeadbeef, 0x5ca1ab1e, st)
	got, err := decodeCkpt(data.Schema, 0xdeadbeef, 0x5ca1ab1e, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.window != 9 || got.nextIdx != 12345 || len(got.reservoir) != 50 {
		t.Fatalf("round trip: window %d idx %d reservoir %d", got.window, got.nextIdx, len(got.reservoir))
	}
	if !tree.Equal(tr, got.tree) {
		t.Error("round trip: tree differs")
	}
	for i, r := range got.reservoir {
		if r.Class != st.reservoir[i].Class {
			t.Fatalf("reservoir record %d class differs", i)
		}
	}
	if _, err := decodeCkpt(data.Schema, 0xfeedface, 0x5ca1ab1e, blob); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	if _, err := decodeCkpt(data.Schema, 0xdeadbeef, 0x5ca1ab1e, blob[:20]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// TestTailSourceFollowsAppends: the tail source must deliver appended
// records in order, never surface a torn record, and end cleanly on Stop.
func TestTailSourceFollowsAppends(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := g.Schema()
	path := filepath.Join(t.TempDir(), "train.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := make([]record.Record, 6)
	for i := range want {
		want[i] = g.Next()
	}

	stop := make(chan struct{})
	src, err := TailFile(schema, path, TailOptions{Poll: time.Millisecond, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// First two records appear before the tail starts reading; the third is
	// appended torn — header half first — and must not surface early.
	var buf []byte
	for _, r := range want[:2] {
		buf = r.Encode(buf[:0])
		f.Write(buf)
	}
	buf = want[2].Encode(buf[:0])
	half := len(buf) / 2
	f.Write(buf[:half])

	var got record.Record
	for i := 0; i < 2; i++ {
		ok, err := src.Next(&got)
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Class != want[i].Class {
			t.Fatalf("record %d: class %d, want %d", i, got.Class, want[i].Class)
		}
	}

	// Complete the torn record and append the rest from another goroutine
	// while Next is polling.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		f.Write(buf[half:])
		var b []byte
		for _, r := range want[3:] {
			b = r.Encode(b[:0])
			f.Write(b)
		}
	}()
	for i := 2; i < len(want); i++ {
		ok, err := src.Next(&got)
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Class != want[i].Class {
			t.Fatalf("record %d: class %d, want %d", i, got.Class, want[i].Class)
		}
	}
	<-done

	close(stop)
	if ok, err := src.Next(&got); ok || err != nil {
		t.Fatalf("after stop: ok=%v err=%v, want clean end", ok, err)
	}
}

// TestTailMatchesSynthetic: tailing a file written by the generator yields
// the same stream the synthetic source generates — so file-fed and
// generator-fed deployments build identical models.
func TestTailMatchesSynthetic(t *testing.T) {
	const n = 500
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Generate(n).WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := testConfig(t)
	cfg.PublishDir = dirA
	runRanks(t, 2, cfg, synthetic(t, n))
	cfg.PublishDir = dirB
	runRanks(t, 2, cfg, func(int) Source {
		src, err := TailFile(datagen.Schema(), path, TailOptions{Poll: time.Millisecond, Limit: n})
		if err != nil {
			t.Error(err)
			return nil
		}
		return src
	})

	a, b := publishedModels(t, dirA), publishedModels(t, dirB)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("published %d vs %d models", len(a), len(b))
	}
	for name, blob := range a {
		if !bytes.Equal(b[name], blob) {
			t.Errorf("model %s differs between synthetic and tailed stream", name)
		}
	}
}
