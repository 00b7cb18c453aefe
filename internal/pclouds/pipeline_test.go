package pclouds

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// poisonPages switches ooc page poisoning on for the rest of the test, so
// a page the build uses after giving it back garbles records or frames,
// and checks at the end that every page the test took went back.
func poisonPages(t *testing.T) {
	t.Helper()
	prev := ooc.SetPagePoison(true)
	before := ooc.PagesInUse()
	t.Cleanup(func() {
		ooc.SetPagePoison(prev)
		if after := ooc.PagesInUse(); after != before {
			t.Errorf("%d ooc pages taken and not given back", after-before)
		}
	})
}

// buildFileBacked runs a p-rank build over file-backed stores, optionally
// with the async I/O pipeline, under the memory budget memLimit
// (Config.MemLimit), and returns rank 0's tree, all ranks' stats and the
// rank-0 merged phase report. Pages are poisoned (poisonPages).
func buildFileBacked(t *testing.T, data *record.Dataset, sample []record.Record, p int, pipe ooc.Pipeline, memLimit int64) (*tree.Tree, []*Stats, string) {
	t.Helper()
	poisonPages(t)
	dir := t.TempDir()
	comms := comm.NewGroup(p, costmodel.Default())
	stores := make([]*ooc.Store, p)
	for r := 0; r < p; r++ {
		st, err := ooc.NewFileStore(data.Schema, filepath.Join(dir, "rank", string(rune('0'+r))), costmodel.Default(), comms[r].Clock())
		if err != nil {
			t.Fatal(err)
		}
		st.SetPipeline(pipe)
		stores[r] = st
		w, err := st.CreateWriter("root")
		if err != nil {
			t.Fatal(err)
		}
		for i := r; i < data.Len(); i += p {
			if err := w.Write(data.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		comms[r].Clock().Reset()
	}

	trees := make([]*tree.Tree, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	recs := make([]*obs.Recorder, p)
	done := make(chan struct{}, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			recs[r] = obs.New(r)
			cfg := Config{
				Clouds:   clouds.Config{Method: clouds.SSE, QRoot: 40, SmallNodeQ: 10, MinNodeSize: 2, Seed: 1},
				Trace:    recs[r],
				MemLimit: memLimit,
			}
			trees[r], stats[r], errs[r] = Build(cfg, comms[r], stores[r], "root", sample)
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if !tree.Equal(trees[0], trees[r]) {
			t.Fatalf("rank %d built a different tree than rank 0", r)
		}
	}
	return trees[0], stats, stats[0].PhaseReport
}

// TestPipelineParityFileBackend is the PR's acceptance check: a 4-rank
// build over the SLIQ generator (function 2) on the file backend with the
// async pipeline enabled (depth 4) produces a byte-identical tree and
// identical IOStats page counts to the synchronous path, and the merged
// phase report attributes nonzero io-wait.
func TestPipelineParityFileBackend(t *testing.T) {
	const p = 4
	data := makeData(t, 6000, 2, 3)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 40, SmallNodeQ: 10, MinNodeSize: 2, Seed: 1}
	sample := cfg.WithDefaults().SampleFor(data)

	// Every large node streams, so the frontier files go through the
	// pipeline too.
	syncTree, syncStats, _ := buildFileBacked(t, data, sample, p, ooc.Pipeline{}, -1)
	asyncTree, asyncStats, report := buildFileBacked(t, data, sample, p, ooc.Pipeline{Enabled: true, Depth: 4}, -1)

	if !bytes.Equal(tree.Encode(syncTree), tree.Encode(asyncTree)) {
		t.Fatal("pipelined build produced a different tree than the synchronous build")
	}
	var totalWait float64
	for r := 0; r < p; r++ {
		a, b := syncStats[r].IO, asyncStats[r].IO
		if a.ReadOps != b.ReadOps || a.ReadBytes != b.ReadBytes ||
			a.WriteOps != b.WriteOps || a.WriteBytes != b.WriteBytes {
			t.Fatalf("rank %d IOStats diverge: sync %v async %v", r, a, b)
		}
		if syncStats[r].SimTime != asyncStats[r].SimTime {
			t.Fatalf("rank %d simulated time diverges: %v vs %v", r, syncStats[r].SimTime, asyncStats[r].SimTime)
		}
		if syncStats[r].IO.WaitSec != 0 {
			t.Fatalf("rank %d synchronous build reports io-wait %v", r, syncStats[r].IO.WaitSec)
		}
		totalWait += asyncStats[r].IO.WaitSec
	}
	if totalWait <= 0 {
		t.Fatal("pipelined build attributed no io-wait anywhere")
	}
	if !strings.Contains(report, "io-wait") {
		t.Fatalf("merged phase report lacks the io-wait column:\n%s", report)
	}
}

// TestFileCreatesCounted pins the file creates of a fixed 2-rank build.
// Streaming (no memory budget), each rank creates two child files for
// every large node it splits — 4 here — and none for leaves or small
// tasks. Resident (the default budget), a rank creates no file at all and
// writes nothing. The staged root file is counted before the build starts,
// and so are its bytes.
func TestFileCreatesCounted(t *testing.T) {
	data := makeData(t, 6000, 2, 3)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 40, SmallNodeQ: 10, MinNodeSize: 2, Seed: 1}
	for _, c := range []struct {
		name     string
		memLimit int64
		creates  int64
	}{
		{"streamed", -1, 1 + 2*4},
		{"resident", 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, stats, _ := buildFileBacked(t, data, cfg.WithDefaults().SampleFor(data), 2, ooc.Pipeline{Enabled: true}, c.memLimit)
			for r, st := range stats {
				if got := st.IO.Creates; got != c.creates || st.LargeNodes != 4 {
					t.Errorf("rank %d: %d creates over %d large nodes, want %d over 4", r, got, st.LargeNodes, c.creates)
				}
				if st.IO.CreateSec <= 0 {
					t.Errorf("rank %d: create time %v not measured", r, st.IO.CreateSec)
				}
				if !strings.Contains(st.IO.String(), "create ") {
					t.Errorf("rank %d: IOStats %q does not print the creates", r, st.IO)
				}
				// The staging write is the rank's whole share of the records.
				staged := int64(data.Len()/2) * int64(data.Schema.RecordBytes())
				if c.memLimit == 0 && st.IO.WriteBytes != staged {
					t.Errorf("rank %d: %d bytes written, want the %d-byte staging write alone", r, st.IO.WriteBytes, staged)
				}
			}
		})
	}
}
