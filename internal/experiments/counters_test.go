package experiments

import (
	"fmt"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/ooc"
)

// counters are the exact cost-model readings of one simulated build: the
// makespan under costmodel.Default and what crossed the wire.
type counters struct {
	SimTime        float64 // seconds, slowest rank's clock
	BytesSent      int64   // comm bytes, all ranks
	SplitBytesSent int64   // the part spent deriving splitting points
	MsgsSent       int64   // messages, all ranks
	RecordsShipped int64   // records moved by the small-node phase
	Collectives    int64   // collective rounds over every level, rank 0
}

// TestCostModelCounters pins the simulated machine's counters for the
// fixed-seed 20,000-record build under each split-finding protocol at 4, 16
// and 64 ranks, exactly. Every value is a deterministic function of the
// collectives the build issues and of the cost model, so a change to what
// crosses the wire, how many messages carry it, how many collective rounds
// the levels take or which records move shows up here at 0% tolerance. A change that means to move them updates the row
// and says why; the 64-rank rows are the only place rank counts far above
// the host's cores are measured.
func TestCostModelCounters(t *testing.T) {
	h := DefaultHarness()
	h.Seed = 1
	h.Pipeline = ooc.Pipeline{Enabled: true}
	data, sample, err := h.Generate(20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		split clouds.SplitMethod
		procs int
		want  counters
	}{
		{clouds.SplitSSE, 4, counters{2.521836742857146, 957233, 571280, 290, 42850, 30}},
		{clouds.SplitHist, 4, counters{1.8020760000000005, 570090, 154320, 138, 6414, 7}},
		{clouds.SplitVote, 4, counters{1.8018505142857135, 465546, 49776, 194, 6414, 14}},
		{clouds.SplitSSE, 16, counters{1.3073509428571466, 1696397, 1207992, 3958, 53150, 30}},
		{clouds.SplitHist, 16, counters{0.8416296285714296, 1311106, 771600, 1230, 7984, 7}},
		{clouds.SplitVote, 16, counters{0.842711114285715, 906706, 367200, 1678, 7984, 14}},
		{clouds.SplitSSE, 64, counters{1.0724689142857267, 4221013, 3627824, 56742, 55916, 30}},
		{clouds.SplitHist, 64, counters{0.6162686571428589, 3935266, 3240720, 9918, 8413, 7}},
		{clouds.SplitVote, 64, counters{0.6190735714285724, 3250834, 2556288, 12606, 8413, 14}},
	} {
		t.Run(fmt.Sprintf("%s/p%d", row.split, row.procs), func(t *testing.T) {
			hm := h
			hm.Split = row.split
			res, err := hm.Run(data, sample, row.procs)
			if err != nil {
				t.Fatal(err)
			}
			got := counters{
				SimTime:        res.SimTime,
				BytesSent:      res.TotalComm.BytesSent,
				SplitBytesSent: res.TotalSplitComm.BytesSent,
				MsgsSent:       res.TotalComm.MsgsSent,
			}
			for _, s := range res.Stats {
				got.RecordsShipped += s.RecordsShipped
			}
			for _, lp := range res.Stats[0].Levels {
				got.Collectives += lp.Collectives
			}
			if got != row.want {
				t.Errorf("counters moved\n got %+v\nwant %+v", got, row.want)
			}
		})
	}
}
