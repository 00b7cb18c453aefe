package pclouds

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// A resident rank (Config.MemLimit) builds its large nodes from presorted
// columns instead of frontier files; nothing it sends may differ. These
// tests build the same data three ways — every rank streaming, every rank
// resident, and a budget that fits exactly the smallest rank's share so
// resident and streaming ranks meet in one build — and require the same
// tree bytes, the same traffic and the same counts.

// awkwardPalette holds the values a value order must get right.
var awkwardPalette = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2, 3}

// awkwardData draws rows whose numeric values mix palette values (NaN,
// ±Inf, ±0, integer ties) into class-dependent noise, so trees grow deep
// and alive intervals hold every kind of tie.
func awkwardData(rng *rand.Rand, rows, nNum, nCat, classes int) *record.Dataset {
	var attrs []record.Attribute
	for j := 0; j < nNum; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("x%d", j), Kind: record.Numeric})
	}
	for j := 0; j < nCat; j++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("c%d", j), Kind: record.Categorical, Cardinality: 3 + j})
	}
	d := record.NewDataset(record.MustSchema(attrs, classes))
	for i := 0; i < rows; i++ {
		class := rng.Intn(classes)
		r := record.Record{Num: make([]float64, nNum), Cat: make([]int32, nCat), Class: int32(class)}
		for j := range r.Num {
			switch k := rng.Intn(10); {
			case k == 0:
				r.Num[j] = awkwardPalette[rng.Intn(len(awkwardPalette))]
			case k < 4:
				r.Num[j] = float64(rng.Intn(6) + class)
			default:
				r.Num[j] = float64(class)*0.7 + rng.NormFloat64()
			}
		}
		for j := range r.Cat {
			if rng.Intn(3) == 0 {
				r.Cat[j] = int32(class % (3 + j))
			} else {
				r.Cat[j] = int32(rng.Intn(3 + j))
			}
		}
		d.Append(r)
	}
	return d
}

// unevenShares deals data to p ranks so the last rank holds two shares and
// every other rank one: rank r takes the records i with i mod (p+1) = r,
// the last rank also those with i mod (p+1) = p.
func unevenShares(data *record.Dataset, p int) [][]record.Record {
	shares := make([][]record.Record, p)
	for i, r := range data.Records {
		rank := min(i%(p+1), p-1)
		shares[rank] = append(shares[rank], r)
	}
	return shares
}

// residentRun is one build of the differential: every rank's tree bytes
// and stats.
type residentRun struct {
	trees [][]byte
	stats []*Stats
}

// buildShares runs a p-rank build over the given per-rank shares on memory
// stores.
func buildShares(tb testing.TB, cfg Config, schema *record.Schema, shares [][]record.Record, sample []record.Record) residentRun {
	tb.Helper()
	p := len(shares)
	comms := comm.NewGroup(p, costmodel.Zero())
	stores := make([]*ooc.Store, p)
	for r := range shares {
		stores[r] = ooc.NewMemStore(schema, costmodel.Zero(), comms[r].Clock())
		w, err := stores[r].CreateWriter("root")
		if err != nil {
			tb.Fatal(err)
		}
		for _, rec := range shares[r] {
			if err := w.Write(rec); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	run := residentRun{trees: make([][]byte, p), stats: make([]*Stats, p)}
	errs := make([]error, p)
	done := make(chan struct{}, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			t, st, err := Build(cfg, comms[r], stores[r], "root", sample)
			if err == nil {
				run.trees[r], run.stats[r] = tree.Encode(t), st
			}
			errs[r] = err
		}(r)
	}
	for range p {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
	return run
}

// checkResidentMatchesStreamed builds data at p ranks streamed, resident
// and mixed, and compares the three builds with each other and, where the
// protocol is rank-count independent, with the sequential in-core tree.
func checkResidentMatchesStreamed(tb testing.TB, cfg Config, data *record.Dataset, sample []record.Record, p int) {
	tb.Helper()
	shares := unevenShares(data, p)
	rowBytes := ooc.ResidentRowBytes(data.Schema)
	budgets := []struct {
		name  string
		limit int64
	}{
		{"streamed", -1},
		{"resident", 0},
		{"mixed", int64(len(shares[0])) * rowBytes},
	}
	runs := make([]residentRun, len(budgets))
	for i, bg := range budgets {
		c := cfg
		c.MemLimit = bg.limit
		runs[i] = buildShares(tb, c, data.Schema, shares, sample)
		for r, st := range runs[i].stats {
			share := int64(len(shares[r])) * rowBytes
			budget := bg.limit
			if budget == 0 {
				budget = ooc.DefaultMemLimit
			}
			want := share
			if budget < 0 || share > budget {
				want = 0
			}
			if st.ResidentBytes != want {
				tb.Fatalf("%s: rank %d holds %d resident bytes, want %d", bg.name, r, st.ResidentBytes, want)
			}
		}
	}
	if len(shares[p-1]) > len(shares[0]) && runs[2].stats[p-1].ResidentBytes != 0 {
		tb.Fatalf("mixed: rank %d is resident; the build mixes nothing", p-1)
	}
	if cfg.Clouds.Split != clouds.SplitVote || p == 1 {
		seq, _, err := clouds.BuildInCore(cfg.Clouds, data, sample)
		if err != nil {
			tb.Fatal(err)
		}
		if want := tree.Encode(seq); !bytes.Equal(runs[0].trees[0], want) {
			tb.Fatal("streamed: tree differs from the sequential in-core tree")
		}
	}
	ref := runs[0]
	for i, run := range runs[1:] {
		name := budgets[i+1].name
		for r := 0; r < p; r++ {
			if !bytes.Equal(run.trees[r], ref.trees[r]) {
				tb.Fatalf("%s: rank %d tree differs from the streamed build's", name, r)
			}
			got, want := run.stats[r], ref.stats[r]
			if got.Comm.BytesSent != want.Comm.BytesSent || got.Comm.MsgsSent != want.Comm.MsgsSent {
				tb.Fatalf("%s: rank %d sent %d bytes in %d messages, streamed %d in %d", name, r,
					got.Comm.BytesSent, got.Comm.MsgsSent, want.Comm.BytesSent, want.Comm.MsgsSent)
			}
			if got.RecordsShipped != want.RecordsShipped {
				tb.Fatalf("%s: rank %d shipped %d records, streamed %d", name, r, got.RecordsShipped, want.RecordsShipped)
			}
			gb, wb := got.Build, want.Build
			if gb.Nodes != wb.Nodes || gb.Leaves != wb.Leaves || gb.MaxDepth != wb.MaxDepth ||
				got.LargeNodes != want.LargeNodes || got.SmallTasks != want.SmallTasks {
				tb.Fatalf("%s: rank %d counts %d nodes/%d leaves/depth %d/%d large/%d small, streamed %d/%d/%d/%d/%d", name, r,
					gb.Nodes, gb.Leaves, gb.MaxDepth, got.LargeNodes, got.SmallTasks,
					wb.Nodes, wb.Leaves, wb.MaxDepth, want.LargeNodes, want.SmallTasks)
			}
		}
	}
}

// residentConfig keeps nodes large far down a tree of a thousand or two
// rows, so most levels exercise the resident statistics, alive and
// partition paths.
func residentConfig(sm clouds.SplitMethod, bm BoundaryMethod) Config {
	return Config{
		Clouds: clouds.Config{
			Method: clouds.SSE, Split: sm, QRoot: 300, QMin: 6, SmallNodeQ: 4,
			SampleSize: 600, MinNodeSize: 2, MaxDepth: 10, Seed: 3,
		},
		Boundary: bm,
	}
}

// TestResidentMatchesStreamed is the differential of the resident path:
// at p ∈ {1, 2, 3}, under sse with every boundary scheme and under hist
// and vote, over data with NaN, ±Inf, ±0, integer ties and 2–5 classes on
// mixed, numeric-only and categorical-only schemas, a build whose ranks
// hold their shares in memory — all of them, or some — encodes the tree
// the streamed build encodes and sends the same bytes, messages and
// records.
func TestResidentMatchesStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	shapes := []struct{ num, cat, classes int }{{4, 2, 2}, {3, 0, 5}, {0, 3, 3}}
	for _, sh := range shapes {
		data := awkwardData(rng, 1500, sh.num, sh.cat, sh.classes)
		for _, sm := range []clouds.SplitMethod{clouds.SplitSSE, clouds.SplitHist, clouds.SplitVote} {
			bms := []BoundaryMethod{AttributeBased}
			if sm == clouds.SplitSSE {
				bms = append(bms, FullReplication, IntervalBased, Hybrid)
			}
			for _, bm := range bms {
				cfg := residentConfig(sm, bm)
				sample := cfg.Clouds.SampleFor(data)
				for _, p := range []int{1, 2, 3} {
					name := fmt.Sprintf("num%d-cat%d-k%d/%v/%v/p%d", sh.num, sh.cat, sh.classes, sm, bm, p)
					t.Run(name, func(t *testing.T) {
						checkResidentMatchesStreamed(t, cfg, data, sample, p)
					})
				}
			}
		}
	}
}

// FuzzResidentFrontier runs the resident differential on byte-chosen
// data: each row takes two numeric values from the awkward palette or a
// small integer, one categorical value and a class; the last bytes choose
// the rank count and the split protocol.
func FuzzResidentFrontier(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(2), uint8(0))
	f.Add(bytes.Repeat([]byte{4, 3, 2, 1, 9, 7, 5, 3}, 60), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 0, 1, 17, 11, 2, 0, 6, 5, 1, 2}, 50), uint8(1), uint8(1))
	schema := record.MustSchema([]record.Attribute{
		{Name: "x", Kind: record.Numeric},
		{Name: "c", Kind: record.Categorical, Cardinality: 3},
		{Name: "y", Kind: record.Numeric},
	}, 3)
	value := func(b byte) float64 {
		if int(b) < len(awkwardPalette) {
			return awkwardPalette[b]
		}
		return float64(b % 13)
	}
	f.Fuzz(func(t *testing.T, raw []byte, procs, split uint8) {
		data := record.NewDataset(schema)
		for i := 0; i+4 <= len(raw) && data.Len() < 1500; i += 4 {
			data.Append(record.Record{
				Num:   []float64{value(raw[i]), value(raw[i+1])},
				Cat:   []int32{int32(raw[i+2]) % 3},
				Class: int32(raw[i+3]) % 3,
			})
		}
		p := 1 + int(procs)%3
		if data.Len() < 2*p {
			return
		}
		cfg := residentConfig(clouds.SplitMethod(int(split)%3), AttributeBased)
		cfg.Clouds.QRoot = 60
		checkResidentMatchesStreamed(t, cfg, data, cfg.Clouds.SampleFor(data), p)
	})
}

// TestResidentBytesCharged: a resident rank charges rows ×
// ooc.ResidentRowBytes, within its budget; a checkpointed build holds
// nothing in memory whatever its budget.
func TestResidentBytesCharged(t *testing.T) {
	data := makeData(t, 3000, 2, 5)
	const p = 2
	rows := int64(data.Len() / p)
	if got := ooc.ResidentRowBytes(data.Schema); got != 217 {
		t.Fatalf("Agrawal schema footprint %d B per row, want 217", got)
	}
	for _, c := range []struct {
		name  string
		limit int64
		ckpt  bool
		want  int64
	}{
		{"default", 0, false, rows * 217},
		{"exact", rows * 217, false, rows * 217},
		{"one row short", rows*217 - 1, false, 0},
		{"none", -1, false, 0},
		{"checkpointed", 0, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(clouds.SSE)
			cfg.MemLimit = c.limit
			if c.ckpt {
				cfg.CheckpointDir = t.TempDir()
			}
			_, stats := buildParallel(t, cfg, data, cfg.Clouds.SampleFor(data), p)
			for r, st := range stats {
				if st.ResidentBytes != c.want {
					t.Errorf("rank %d: %d resident bytes, want %d", r, st.ResidentBytes, c.want)
				}
				budget := c.limit
				if budget == 0 {
					budget = ooc.DefaultMemLimit
				}
				if budget > 0 && st.ResidentBytes > budget {
					t.Errorf("rank %d: %d resident bytes over the %d-byte budget", r, st.ResidentBytes, budget)
				}
			}
		})
	}
}
