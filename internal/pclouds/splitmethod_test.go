package pclouds

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/metrics"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func splitConfig(sm clouds.SplitMethod) Config {
	cfg := testConfig(clouds.SSE)
	cfg.Clouds.Split = sm
	return cfg
}

// TestHistParallelMatchesSequential: the hist protocol is p-independent —
// bins come from the shared node sample and the merged histogram is the sum
// of the local ones — so any rank count builds exactly the sequential hist
// tree.
func TestHistParallelMatchesSequential(t *testing.T) {
	data := makeData(t, 4000, 2, 42)
	cfg := splitConfig(clouds.SplitHist)
	sample := cfg.Clouds.SampleFor(data)
	seq, _, err := clouds.BuildInCore(cfg.Clouds, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumNodes() < 5 {
		t.Fatalf("degenerate sequential hist tree (%d nodes)", seq.NumNodes())
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		par, stats := buildParallel(t, cfg, data, sample, p)
		if !tree.Equal(seq, par) {
			t.Fatalf("p=%d: parallel hist tree differs from sequential", p)
		}
		if p > 1 && stats[0].SplitComm.BytesSent == 0 {
			t.Fatalf("p=%d: no split-derivation traffic accounted", p)
		}
	}
}

// TestVoteParallelDeterministicAndAccurate: every rank returns the same
// vote tree (asserted inside buildParallel), a single rank's vote equals
// hist, and the multi-rank tree still classifies well — the vote protocol
// is an approximation, so cross-p equality is not guaranteed, but quality
// must hold.
func TestVoteParallelDeterministicAndAccurate(t *testing.T) {
	data := makeData(t, 6000, 2, 42)
	test := makeData(t, 2000, 2, 43)
	cfg := splitConfig(clouds.SplitVote)
	sample := cfg.Clouds.SampleFor(data)

	histSeq, _, err := clouds.BuildInCore(splitConfig(clouds.SplitHist).Clouds, data, sample)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := buildParallel(t, cfg, data, sample, 1)
	if !tree.Equal(histSeq, single) {
		t.Fatal("single-rank vote differs from hist")
	}
	// Vote trades a little split quality for its byte savings: elections can
	// exclude the globally best attribute at some nodes, so the bar is a
	// couple of points below the exact methods' 0.95.
	for _, p := range []int{2, 4, 8} {
		tr, _ := buildParallel(t, cfg, data, sample, p)
		if acc := metrics.Accuracy(tr, test); acc < 0.88 {
			t.Errorf("p=%d: vote accuracy %.3f < 0.88", p, acc)
		}
	}
}

// TestHistVoteReduceSplitComm: on a benchmark-like workload, both
// communication-efficient protocols must move fewer split-derivation bytes
// than the exact SSE protocol at the same rank count.
func TestHistVoteReduceSplitComm(t *testing.T) {
	data := makeData(t, 10000, 2, 17)
	base := testConfig(clouds.SSE)
	base.Clouds.QRoot = 100
	base.Clouds.SmallNodeQ = 10
	sample := base.Clouds.SampleFor(data)
	const p = 8
	bytesFor := func(sm clouds.SplitMethod) int64 {
		cfg := base
		cfg.Clouds.Split = sm
		_, stats := buildParallel(t, cfg, data, sample, p)
		var total int64
		for _, st := range stats {
			total += st.SplitComm.BytesSent
			if st.SplitComm.BytesSent > st.Comm.BytesSent {
				t.Fatalf("%v: split traffic exceeds total traffic", sm)
			}
		}
		return total
	}
	sse := bytesFor(clouds.SplitSSE)
	hist := bytesFor(clouds.SplitHist)
	vote := bytesFor(clouds.SplitVote)
	t.Logf("split-derivation bytes at p=%d: sse=%d hist=%d vote=%d", p, sse, hist, vote)
	if hist >= sse {
		t.Errorf("hist moved %d bytes, not less than sse's %d", hist, sse)
	}
	if vote >= sse {
		t.Errorf("vote moved %d bytes, not less than sse's %d", vote, sse)
	}
	if vote >= hist {
		t.Errorf("vote moved %d bytes, not less than hist's %d", vote, hist)
	}
}

// TestCheckpointResumeHist: the checkpoint/resume guarantee holds under the
// hist protocol (resumed frontier tasks re-derive their fixed-bin
// statistics), and a resume under a different -split-method is rejected.
func TestCheckpointResumeHist(t *testing.T) {
	const p = 3
	data := makeData(t, 4000, 2, 42)
	cfg := splitConfig(clouds.SplitHist)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	ckptDir := t.TempDir()
	cfgStop := cfg
	cfgStop.CheckpointDir = ckptDir
	cfgStop.StopAfterLevel = 2
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := distribute(t, data, p, costmodel.Zero(), comms)
	_, _, errs := buildWithStores(cfgStop, comms, stores, sample)
	for r, err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("rank %d: want ErrStopped, got %v", r, err)
		}
	}

	// Resuming under sse must fail with an explicit mismatch error.
	cfgWrong := splitConfig(clouds.SplitSSE)
	cfgWrong.CheckpointDir = ckptDir
	cfgWrong.Resume = true
	comms2 := comm.NewGroup(p, costmodel.Zero())
	_, _, errs2 := buildWithStores(cfgWrong, comms2, stores, sample)
	for r, err := range errs2 {
		if err == nil || !strings.Contains(err.Error(), "split-method") {
			t.Fatalf("rank %d: want split-method mismatch error, got %v", r, err)
		}
	}

	// Resuming under hist completes bit-identically.
	cfgRes := cfg
	cfgRes.CheckpointDir = ckptDir
	cfgRes.Resume = true
	comms3 := comm.NewGroup(p, costmodel.Zero())
	trees, _, errs3 := buildWithStores(cfgRes, comms3, stores, sample)
	for r, err := range errs3 {
		if err != nil {
			t.Fatalf("resume rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if !tree.Equal(ref, trees[r]) {
			t.Fatalf("rank %d: resumed hist tree differs from uninterrupted build", r)
		}
	}
}

func TestElectAttrs(t *testing.T) {
	// Attr 3: 3 votes; attrs 1, 5: 2 votes; attr 7: 1 vote. Elect 3.
	ballots := [][]int{{3, 1}, {3, 5}, {3, 5, 1, 7}}
	got := electAttrs(ballots, 3)
	want := []int{1, 3, 5} // sorted ascending after the election
	if len(got) != len(want) {
		t.Fatalf("elected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elected %v, want %v", got, want)
		}
	}
	// Vote ties break toward the lower attribute id: 1 and 5 tie at 2 votes
	// with room for one — 1 wins.
	got = electAttrs(ballots, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("elected %v, want [1 3]", got)
	}
	if got := electAttrs(nil, 4); len(got) != 0 {
		t.Fatalf("empty ballots elected %v", got)
	}
	if got := electAttrs([][]int{{}, {}}, 4); len(got) != 0 {
		t.Fatalf("empty nominations elected %v", got)
	}
}

func TestVoteCodecRoundTrip(t *testing.T) {
	ballots := [][]int{{}, {0}, {2, 5, 8}}
	got, err := decodeVotes(encodeVotes(ballots), len(ballots))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ballots) {
		t.Fatalf("round trip of %v: %v", ballots, got)
	}
	if _, err := decodeVotes(encodeVotes(ballots), 2); err == nil {
		t.Fatal("ballots for another node count must error")
	}
	if _, err := decodeVotes([]byte{1}, 1); err == nil {
		t.Fatal("truncated vote must error")
	}
	if _, err := decodeVotes([]byte{1, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0}, 1); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := decodeVotes(append(encodeVotes(ballots), 0), len(ballots)); err == nil {
		t.Fatal("trailing bytes must error")
	}
}

// TestDistributedBoundaryValueGoesLeft: a record with value exactly equal
// to a cut lands left of the candidate splitter in the distributed
// protocols too — same scenario as the sequential TestBoundaryValueGoesLeft
// in package clouds.
func TestDistributedBoundaryValueGoesLeft(t *testing.T) {
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	d := record.NewDataset(schema)
	for _, v := range []float64{1, 2, 2} {
		d.Append(record.Record{Num: []float64{v}, Class: 0})
	}
	for _, v := range []float64{3, 4, 5} {
		d.Append(record.Record{Num: []float64{v}, Class: 1})
	}
	for _, sm := range []clouds.SplitMethod{clouds.SplitSSE, clouds.SplitHist, clouds.SplitVote} {
		cfg := Config{Clouds: clouds.Config{
			Split: sm, QRoot: 3, QMin: 3, SmallNodeQ: 1, MinNodeSize: 1,
			HistBins: 3, SampleSize: 6,
		}}
		tr, _ := buildParallel(t, cfg, d, d.Records, 2)
		root := tr.Root
		if root.IsLeaf() || root.Splitter.Threshold != 2 {
			t.Fatalf("%v: root %+v, want split at x<=2", sm, root.Splitter)
		}
		if root.Left.N != 3 || root.Right.N != 3 {
			t.Fatalf("%v: partition %d/%d, want 3/3 (v==cut must go left)", sm, root.Left.N, root.Right.N)
		}
	}
}
