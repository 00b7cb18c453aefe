package pclouds

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/tree"
)

// TestTracedBuild runs a 4-rank build with tracing enabled and checks the
// acceptance properties of the observability layer: the root build span's
// communication and I/O deltas equal the build's final Stats counters, the
// rank-0 merged report covers the driver phases, the Chrome trace is valid
// JSON with one timeline row per rank, and tracing does not perturb the
// tree.
func TestTracedBuild(t *testing.T) {
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)

	// Reference build without tracing.
	refTree, _ := buildParallel(t, cfg, data, sample, p)

	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	// Staging the root partition writes to the stores before the build
	// starts; the build span's I/O delta excludes it, Stats.IO includes it.
	staged := make([]ooc.IOStats, p)
	for r := range stores {
		staged[r] = stores[r].Stats()
	}
	recs := make([]*obs.Recorder, p)
	trees := make([]*tree.Tree, p)
	stats := make([]*Stats, p)
	errs := make([]error, p)
	done := make(chan struct{}, p)
	for r := 0; r < p; r++ {
		recs[r] = obs.New(r)
		go func(r int) {
			rcfg := cfg
			rcfg.Trace = recs[r]
			trees[r], stats[r], errs[r] = Build(rcfg, comms[r], stores[r], "root", sample)
			done <- struct{}{}
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
	if !tree.Equal(refTree, trees[0]) {
		t.Fatal("tracing changed the built tree")
	}

	for r := 0; r < p; r++ {
		spans := recs[r].Spans()
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", r)
		}
		var build *obs.Span
		for _, s := range spans {
			if s.Name == "build" {
				build = s
				break
			}
		}
		if build == nil {
			t.Fatalf("rank %d has no build span", r)
		}
		if build.Depth != 0 || build.ID != "root" {
			t.Errorf("rank %d build span depth %d id %q", r, build.Depth, build.ID)
		}
		// The build span closes immediately before Stats.Comm/IO are
		// captured, so its inclusive deltas must equal the final counters.
		if build.Comm != stats[r].Comm {
			t.Errorf("rank %d build span comm %+v != stats %+v", r, build.Comm, stats[r].Comm)
		}
		wantIO := stats[r].IO.Sub(staged[r])
		if build.IO != wantIO {
			t.Errorf("rank %d build span IO %+v != stats minus staging %+v", r, build.IO, wantIO)
		}
		// Exclusive phase values must sum back to the rank totals.
		var sumComm comm.Stats
		for _, pt := range recs[r].Summary() {
			sumComm.Add(pt.Comm)
		}
		// The merged-report gather runs after the build span closed; its
		// traffic appears in no span, so the summary total must equal the
		// build-span total (not the post-report communicator counters).
		if sumComm.BytesSent != build.Comm.BytesSent || sumComm.MsgsSent != build.Comm.MsgsSent {
			t.Errorf("rank %d phase comm sum (%d B/%d msgs) != build span (%d B/%d msgs)",
				r, sumComm.BytesSent, sumComm.MsgsSent, build.Comm.BytesSent, build.Comm.MsgsSent)
		}
	}

	rep := stats[0].PhaseReport
	if rep == "" {
		t.Fatal("rank 0 merged report is empty")
	}
	for _, phase := range []string{"build", "preprocess", "large-node", "partition", "small-phase"} {
		if !strings.Contains(rep, phase) {
			t.Errorf("merged report missing phase %q:\n%s", phase, rep)
		}
	}
	for r := 1; r < p; r++ {
		if stats[r].PhaseReport != "" {
			t.Errorf("rank %d has a non-empty merged report", r)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	tids := map[int]bool{}
	for _, e := range tr.TraceEvents {
		tids[e.Tid] = true
	}
	if len(tids) != p {
		t.Errorf("trace covers tids %v, want %d ranks", tids, p)
	}
}
