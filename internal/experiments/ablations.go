package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/dnc"
	"pclouds/internal/metrics"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
)

// StrategyRow is one divide-and-conquer strategy's measurements on the
// generic engine (Ablation A, the Section 3 comparison).
type StrategyRow struct {
	Strategy      dnc.Strategy
	Procs         int
	SimTime       float64
	RecordReads   int64
	Redistributed int64
	Collectives   int64
}

// StrategiesAblation runs the generic D&C engine under all five strategies
// on a median-split problem over n records and p ranks.
func (h Harness) StrategiesAblation(n, p int, switchN int64) ([]StrategyRow, error) {
	schema := record.MustSchema([]record.Attribute{{Name: "k", Kind: record.Numeric}}, 2)
	recs := make([]record.Record, n)
	rng := rand.New(rand.NewSource(h.Seed))
	for i := range recs {
		recs[i] = record.Record{Num: []float64{rng.Float64()}, Class: 0}
	}
	var rows []StrategyRow
	for _, s := range []dnc.Strategy{dnc.DataParallel, dnc.Concatenated, dnc.TaskParallel, dnc.TaskParallelCI, dnc.Mixed} {
		comms := comm.NewGroup(p, h.Params)
		results := make([]*dnc.Result, p)
		errs := make([]error, p)
		done := make(chan struct{}, p)
		for r := 0; r < p; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				store := ooc.NewMemStore(schema, h.Params, comms[r].Clock())
				store.SetPipeline(h.Pipeline)
				var local []record.Record
				for i := r; i < len(recs); i += p {
					local = append(local, recs[i])
				}
				if err := store.WriteAll("task-r", local); err != nil {
					errs[r] = err
					return
				}
				comms[r].Clock().Reset()
				e := &dnc.Engine{
					C: comms[r], Store: store,
					Mem:     ooc.NewMemLimit(1 << 20),
					SwitchN: switchN,
					Params:  h.Params,
				}
				results[r], errs[r] = e.Run(&medianSplit{leafN: 64, bins: 128}, "r", s)
			}(r)
		}
		for i := 0; i < p; i++ {
			<-done
		}
		for r, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("strategy %v rank %d: %w", s, r, err)
			}
		}
		row := StrategyRow{Strategy: s, Procs: p, SimTime: comm.MaxClock(comms)}
		row.RecordReads = results[0].Stats.RecordReads
		row.Redistributed = results[0].Stats.Redistributed
		row.Collectives = results[0].Stats.Collectives
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintStrategies renders Ablation A.
func PrintStrategies(w io.Writer, rows []StrategyRow) {
	writeHeader(w, "Ablation A: parallel out-of-core D&C strategies (Section 3)")
	fmt.Fprintf(w, "%-16s %-6s %-12s %-14s %-14s %-12s\n",
		"strategy", "p", "sim time(s)", "record reads", "redistributed", "collectives")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-6d %-12.4f %-14d %-14d %-12d\n",
			r.Strategy, r.Procs, r.SimTime, r.RecordReads, r.Redistributed, r.Collectives)
	}
	fmt.Fprintln(w, "(task-parallel and mixed move records, the other three never do; which")
	fmt.Fprintln(w, " strategy wins depends on the key count and the cost model)")
}

// medianSplit is the strategies ablation's problem: histogram summaries,
// median-bin decisions.
type medianSplit struct {
	leafN int64
	bins  int
}

func (m *medianSplit) SummaryLen(dnc.Task) int { return m.bins }

func (m *medianSplit) Accumulate(t dnc.Task, sum []int64, rec *record.Record) {
	b := int(rec.Num[0] * float64(m.bins))
	if b < 0 {
		b = 0
	}
	if b >= m.bins {
		b = m.bins - 1
	}
	sum[b]++
}

func (m *medianSplit) Decide(t dnc.Task, global []int64) (dnc.Decision, error) {
	var n int64
	lo, hi := -1, -1
	for b, c := range global {
		n += c
		if c > 0 {
			if lo < 0 {
				lo = b
			}
			hi = b
		}
	}
	result := make([]byte, 8)
	binary.LittleEndian.PutUint64(result, uint64(n))
	if n <= m.leafN || lo == hi {
		return dnc.Decision{Leaf: true, Result: result}, nil
	}
	var cum int64
	for b := lo; b < hi; b++ {
		cum += global[b]
		if cum >= (n+1)/2 || b == hi-1 {
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint64(payload, uint64(b))
			return dnc.Decision{Payload: payload}, nil
		}
	}
	return dnc.Decision{}, fmt.Errorf("median bin not found")
}

func (m *medianSplit) Route(t dnc.Task, payload []byte, rec *record.Record) int {
	b := int(binary.LittleEndian.Uint64(payload))
	if int(rec.Num[0]*float64(m.bins)) <= b {
		return 0
	}
	return 1
}

// SplitMethodRow compares SS, SSE and the direct method (Ablation B): split
// quality, I/O passes, and the SSE survival ratio.
type SplitMethodRow struct {
	Method        string
	Accuracy      float64
	TreeNodes     int
	RecordReads   int64
	SurvivalRatio float64
}

// SplitMethodsAblation builds trees with SS, SSE and the direct method on
// the same data and reports quality and cost.
func (h Harness) SplitMethodsAblation(nTrain, nTest int) ([]SplitMethodRow, error) {
	train, sample, err := h.Generate(nTrain)
	if err != nil {
		return nil, err
	}
	testH := h
	testH.Seed = h.Seed + 1000
	test, _, err := testH.Generate(nTest)
	if err != nil {
		return nil, err
	}
	var rows []SplitMethodRow
	for _, m := range []clouds.Method{clouds.SS, clouds.SSE} {
		cfg := h.cloudsConfig()
		cfg.Method = m
		tr, st, err := clouds.BuildInCore(cfg, train, sample)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SplitMethodRow{
			Method:        m.String(),
			Accuracy:      metrics.Accuracy(tr, test),
			TreeNodes:     tr.NumNodes(),
			RecordReads:   st.RecordReads,
			SurvivalRatio: st.SurvivalRatio(),
		})
	}
	// Direct method: force every node small so DirectSplit drives the tree.
	cfg := h.cloudsConfig()
	cfg.SmallNodeQ = cfg.QRoot + 1
	tr, st, err := clouds.BuildInCore(cfg, train, sample)
	if err != nil {
		return nil, err
	}
	rows = append(rows, SplitMethodRow{
		Method:      "direct",
		Accuracy:    metrics.Accuracy(tr, test),
		TreeNodes:   tr.NumNodes(),
		RecordReads: st.RecordReads,
	})
	return rows, nil
}

// PrintSplitMethods renders Ablation B.
func PrintSplitMethods(w io.Writer, rows []SplitMethodRow) {
	writeHeader(w, "Ablation B: SS vs SSE vs direct (CLOUDS splitting methods)")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-14s %-14s\n", "method", "accuracy", "nodes", "record reads", "survival")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10.4f %-10d %-14d %-14.4f\n",
			r.Method, r.Accuracy, r.TreeNodes, r.RecordReads, r.SurvivalRatio)
	}
	fmt.Fprintln(w, "(SSE should match direct's accuracy at far fewer record reads;")
	fmt.Fprintln(w, " the survival ratio is the fraction of points in alive intervals)")
}

// BoundaryRow compares the attribute-based and fully replicated boundary
// statistics schemes (Ablation C).
type BoundaryRow struct {
	Method    pclouds.BoundaryMethod
	Procs     int
	QRoot     int
	CommBytes int64
	CommMsgs  int64
	SimTime   float64
}

// BoundaryAblation runs pCLOUDS under both boundary schemes, reporting the
// communication volumes.
func (h Harness) BoundaryAblation(n int, procs []int, qroots []int) ([]BoundaryRow, error) {
	var rows []BoundaryRow
	for _, q := range qroots {
		hq := h
		hq.QRoot = q
		data, sample, err := hq.Generate(n)
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			for _, bm := range []pclouds.BoundaryMethod{pclouds.AttributeBased, pclouds.FullReplication, pclouds.IntervalBased, pclouds.Hybrid} {
				hb := hq
				hb.Boundary = bm
				r, err := hb.Run(data, sample, p)
				if err != nil {
					return nil, fmt.Errorf("q=%d p=%d %v: %w", q, p, bm, err)
				}
				rows = append(rows, BoundaryRow{
					Method: bm, Procs: p, QRoot: q,
					CommBytes: r.TotalComm.BytesSent,
					CommMsgs:  r.TotalComm.MsgsSent,
					SimTime:   r.SimTime,
				})
			}
		}
	}
	return rows, nil
}

// PrintBoundary renders Ablation C.
func PrintBoundary(w io.Writer, rows []BoundaryRow) {
	writeHeader(w, "Ablation C: boundary statistics — attribute-based vs full replication")
	fmt.Fprintf(w, "%-18s %-6s %-8s %-14s %-10s %-12s\n", "method", "p", "q", "comm bytes", "msgs", "sim time(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-6d %-8d %-14d %-10d %-12.4f\n",
			r.Method, r.Procs, r.QRoot, r.CommBytes, r.CommMsgs, r.SimTime)
	}
	fmt.Fprintln(w, "(the attribute-based scheme avoids replicating every q·c vector to all ranks)")
}
