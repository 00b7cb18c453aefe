// Command pclouds trains a decision tree classifier over a binary dataset
// (as written by cmd/datagen) with sequential CLOUDS or simulated-parallel
// pCLOUDS, optionally prunes it with MDL, evaluates it on a test set, and
// prints the tree and build statistics.
//
// Usage:
//
//	pclouds -train train.bin [-test test.bin] [-procs 4] [-method sse]
//	        [-qroot 200] [-small 10] [-prune] [-print-tree]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pclouds/internal/cli"
	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/mdl"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func main() {
	var (
		build     cli.Build
		trace     cli.Trace
		profile   cli.Profile
		ioPipe    cli.IOPipeline
		trainPath = flag.String("train", "", "binary training file (datagen schema)")
		testPath  = flag.String("test", "", "optional binary test file")
		procs     = flag.Int("procs", 1, "simulated processor count (1 = sequential CLOUDS)")
		method    = flag.String("method", "sse", "splitting method: ss or sse")
		sampleSz  = flag.Int("sample", 0, "pre-drawn sample size (0 = 10*qroot)")
		prune     = flag.Bool("prune", false, "apply MDL pruning")
		printTree = flag.Bool("print-tree", false, "dump the finished tree")
		boundary  = flag.String("boundary", "attribute", "boundary scheme: attribute, replicate, interval, or hybrid")
		saveModel = flag.String("save-model", "", "write the finished model to this path")
		loadModel = flag.String("load-model", "", "skip training: load a saved model and evaluate/classify")
		dotPath   = flag.String("dot", "", "write the finished tree as Graphviz dot to this path")
		inFormat  = flag.String("in", "binary", "training/test file format: binary, csv, or csv-auto (schema inferred; string categories allowed)")
		holdout   = flag.Float64("holdout", 0.2, "held-out fraction for csv-auto evaluation")
		showStats = flag.Bool("stats", false, "print the merged per-phase report and per-rank comm/I/O tables")
	)
	build.Register(flag.CommandLine)
	trace.Register(flag.CommandLine)
	profile.Register(flag.CommandLine)
	ioPipe.Register(flag.CommandLine)
	flag.Parse()

	stopProfile, err := profile.Start("pclouds")
	if err != nil {
		fatal(err)
	}
	defer stopProfile()

	if *loadModel != "" {
		if err := classifyOnly(*loadModel, *testPath, *printTree); err != nil {
			fatal(err)
		}
		return
	}
	if *trainPath == "" {
		fatal(fmt.Errorf("-train is required (or use -load-model)"))
	}
	if *inFormat == "csv-auto" {
		if err := trainInferred(*trainPath, *holdout, build.Clouds, *prune, *printTree, *saveModel, *dotPath); err != nil {
			fatal(err)
		}
		return
	}

	schema := datagen.Schema()
	train, err := loadData(schema, *trainPath, *inFormat)
	if err != nil {
		fatal(err)
	}
	cfg, err := build.Config()
	if err != nil {
		fatal(err)
	}
	cfg.SampleSize = *sampleSz
	switch *method {
	case "ss":
		cfg.Method = clouds.SS
	case "sse":
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	var t *tree.Tree
	if *procs <= 1 {
		var st *clouds.BuildStats
		t, st, err = clouds.BuildInCore(cfg, train, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential CLOUDS (%s): %d records -> %s\n", cfg.Method, train.Len(), metrics.Summarize(t))
		fmt.Printf("  record reads: %d, survival ratio: %.4f, large/small nodes: %d/%d\n",
			st.RecordReads, st.SurvivalRatio(), st.LargeNodes, st.SmallNodes)
	} else {
		t, err = runParallel(cfg, *boundary, train, *procs, trace, *showStats, ioPipe.Pipeline())
		if err != nil {
			fatal(err)
		}
	}

	if *prune {
		pruned, st := mdl.Prune(t)
		fmt.Printf("MDL pruning: %d -> %d nodes (%d collapsed), cost %.1f -> %.1f bits\n",
			st.NodesBefore, st.NodesAfter, st.Pruned, st.CostBefore, st.CostAfter)
		t = pruned
	}

	fmt.Printf("training accuracy: %.4f\n", metrics.Accuracy(t, train))
	if *testPath != "" {
		test, err := loadData(schema, *testPath, *inFormat)
		if err != nil {
			fatal(err)
		}
		conf := metrics.Evaluate(t, test)
		fmt.Printf("test accuracy: %.4f over %d records\n", conf.Accuracy(), conf.Total())
		fmt.Print(conf)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fatal(err)
		}
		if err := t.WriteDot(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("Graphviz written to %s\n", *dotPath)
	}
	if *saveModel != "" {
		if err := tree.SaveFile(t, *saveModel); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}
	if *printTree {
		t.Dump(os.Stdout)
	}
}

// classifyOnly loads a saved model and evaluates it.
func classifyOnly(modelPath, testPath string, printTree bool) error {
	t, err := tree.LoadFile(modelPath)
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("%s: %w", modelPath, err)
	}
	fmt.Printf("loaded model: %s\n", metrics.Summarize(t))
	if testPath != "" {
		test, err := record.LoadFile(t.Schema, testPath)
		if err != nil {
			return err
		}
		conf := metrics.Evaluate(t, test)
		fmt.Printf("test accuracy: %.4f over %d records\n", conf.Accuracy(), conf.Total())
		fmt.Print(conf)
	}
	if printTree {
		t.Dump(os.Stdout)
	}
	return nil
}

func runParallel(cfg clouds.Config, boundary string, train *record.Dataset, p int, trace cli.Trace, showStats bool, pipe ooc.Pipeline) (*tree.Tree, error) {
	pcfg := pclouds.Config{Clouds: cfg}
	switch boundary {
	case "attribute":
		pcfg.Boundary = pclouds.AttributeBased
	case "replicate":
		pcfg.Boundary = pclouds.FullReplication
	case "interval":
		pcfg.Boundary = pclouds.IntervalBased
	case "hybrid":
		pcfg.Boundary = pclouds.Hybrid
	default:
		return nil, fmt.Errorf("unknown boundary scheme %q", boundary)
	}
	sample := cfg.SampleFor(train)
	params := costmodel.Default()
	pcfg.CPUPerRecord = params.CPURecord * float64(1+len(train.Schema.Attrs))
	comms := comm.NewGroup(p, params)
	trees := make([]*tree.Tree, p)
	stats := make([]*pclouds.Stats, p)
	var recs []*obs.Recorder
	if trace.Out != "" || showStats {
		recs = make([]*obs.Recorder, p)
		for r := range recs {
			recs[r] = obs.New(r)
		}
	}
	// One progress writer is shared by every simulated rank: ProgressWriter
	// serialises lines, so the stream interleaves ranks but never tears.
	var prog *obs.ProgressWriter
	if trace.Progress != "" {
		var err error
		prog, err = obs.CreateProgressFile(trace.Progress)
		if err != nil {
			return nil, fmt.Errorf("progress output: %w", err)
		}
	}
	errs := make([]error, p)
	done := make(chan struct{}, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			store := ooc.NewMemStore(train.Schema, params, comms[r].Clock())
			store.SetPipeline(pipe)
			w, err := store.CreateWriter("root")
			if err != nil {
				errs[r] = err
				return
			}
			for i := r; i < train.Len(); i += p {
				if err := w.Write(train.Records[i]); err != nil {
					errs[r] = err
					return
				}
			}
			if err := w.Close(); err != nil {
				errs[r] = err
				return
			}
			comms[r].Clock().Reset()
			rcfg := pcfg
			if recs != nil {
				rcfg.Trace = recs[r]
			}
			rcfg.Progress = prog.Emit()
			trees[r], stats[r], errs[r] = pclouds.Build(rcfg, comms[r], store, "root", sample)
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			prog.Close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if err := prog.Close(); err != nil {
		return nil, fmt.Errorf("progress output: %w", err)
	}
	if trace.Progress != "" {
		fmt.Printf("per-level progress written to %s\n", trace.Progress)
	}
	if trace.Out != "" {
		if err := obs.WriteChromeTraceFile(trace.Out, recs); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("Chrome trace written to %s\n", trace.Out)
	}
	for r := 1; r < p; r++ {
		if !tree.Equal(trees[0], trees[r]) {
			return nil, fmt.Errorf("rank %d produced a different tree", r)
		}
	}
	fmt.Printf("pCLOUDS (%s, split=%s, %s, p=%d): %d records -> %s\n",
		cfg.Method, cfg.Split, pcfg.Boundary, p, train.Len(), metrics.Summarize(trees[0]))
	fmt.Printf("  simulated time: %.4fs, large nodes: %d, small tasks: %d\n",
		comm.MaxClock(comms), stats[0].LargeNodes, stats[0].SmallTasks)
	var shipped int64
	var cs comm.Stats
	for _, s := range stats {
		shipped += s.RecordsShipped
		cs.Add(s.Comm)
	}
	fmt.Printf("  records shipped: %d, traffic: %s\n", shipped, cs)
	if showStats {
		if rep := stats[0].PhaseReport; rep != "" {
			fmt.Println("per-phase report (across ranks):")
			fmt.Print(rep)
		}
		fmt.Println("per-collective traffic (all ranks summed):")
		fmt.Print(cs.Table())
		for r, s := range stats {
			fmt.Printf("rank %d I/O: %s; resident %d B\n", r, s.IO, s.ResidentBytes)
		}
	}
	return trees[0], nil
}

// trainInferred handles csv-auto mode: infer the schema (string categories
// allowed), hold out a fraction for evaluation, train, prune, report.
func trainInferred(path string, holdout float64, base clouds.Config, prune, printTree bool, saveModel, dotPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	inf, err := record.ReadCSVInferred(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Print(inf.Summarize())
	data := inf.Data
	data.Shuffle(rand.New(rand.NewSource(base.Seed)))
	test, train := data.Split(holdout)
	if train.Len() == 0 || test.Len() == 0 {
		train, test = data, data
	}
	cfg := clouds.Config{
		Method: clouds.SSE, QRoot: base.QRoot, SmallNodeQ: base.SmallNodeQ,
		MaxDepth: base.MaxDepth, MinNodeSize: 2, Seed: base.Seed,
	}
	t, st, err := clouds.BuildInCore(cfg, train, nil)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d records: %s (%.1f passes)\n",
		train.Len(), metrics.Summarize(t), float64(st.RecordReads)/float64(train.Len()))
	if prune {
		pruned, pst := mdl.Prune(t)
		fmt.Printf("MDL pruning: %d -> %d nodes\n", pst.NodesBefore, pst.NodesAfter)
		t = pruned
	}
	conf := metrics.Evaluate(t, test)
	fmt.Printf("held-out accuracy: %.4f over %d records\n", conf.Accuracy(), conf.Total())
	for c := range inf.Classes {
		fmt.Printf("  %s: recall %.3f precision %.3f\n", inf.ClassOf(int32(c)), conf.Recall(c), conf.Precision(c))
	}
	if saveModel != "" {
		if err := tree.SaveFile(t, saveModel); err != nil {
			return err
		}
		fmt.Printf("model saved to %s\n", saveModel)
	}
	if dotPath != "" {
		df, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := t.WriteDot(df); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
		fmt.Printf("Graphviz written to %s\n", dotPath)
	}
	if printTree {
		t.Dump(os.Stdout)
	}
	return nil
}

// loadData reads a dataset in the requested format.
func loadData(schema *record.Schema, path, format string) (*record.Dataset, error) {
	switch format {
	case "binary":
		return record.LoadFile(schema, path)
	case "csv":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return record.ReadCSV(schema, f)
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pclouds:", err)
	os.Exit(1)
}
