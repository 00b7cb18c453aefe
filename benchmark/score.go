package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/metrics"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// servedModel trains the model the serve and score workloads use: a deep
// tree (depth 16, about 1,700 nodes) over noisy records. Its generator seed
// is fixed for the reason given at buildParams: -seed drives the rows that
// are scored, not the shape of the tree they walk.
func servedModel(r *run) (*tree.Tree, error) {
	data, err := generate(r.pick(40_000, 4_000), 3, 0.05)
	if err != nil {
		return nil, err
	}
	cfg := clouds.Config{
		Method: clouds.SSE, Split: clouds.SplitSSE,
		QRoot: 400, QMin: 20, SmallNodeQ: 10, SampleSize: 4000,
		MaxDepth: 16, MinNodeSize: 2, Seed: 1,
	}
	t, _, err := clouds.BuildInCore(cfg, data, cfg.SampleFor(data))
	return t, err
}

// writeV2File writes data as a checksummed v2 record file, the format
// datagen produces.
func writeV2File(path string, data *record.Dataset, fileID uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := data.WriteBinaryV2(bw, fileID); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type scoreEnv struct {
	dir       string
	model     *tree.Tree
	data      *record.Dataset
	modelPath string
	dataPath  string
}

func setupScore(r *run, dir string) (*scoreEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &scoreEnv{dir: dir, modelPath: filepath.Join(dir, "model.pcm"), dataPath: filepath.Join(dir, "test.bin")}
	var err error
	if e.model, err = servedModel(r); err != nil {
		return nil, err
	}
	if err := tree.SaveFile(e.model, e.modelPath); err != nil {
		return nil, err
	}
	if e.data, err = generate(r.pick(500_000, 40_000), r.seed, 0.05); err != nil {
		return nil, err
	}
	return e, writeV2File(e.dataPath, e.data, uint64(r.seed))
}

// score is the `pclouds -load-model M -test T` path as library calls.
func (e *scoreEnv) score() (correct int64, err error) {
	t, err := tree.LoadFile(e.modelPath)
	if err != nil {
		return 0, err
	}
	data, err := record.LoadFile(datagen.Schema(), e.dataPath)
	if err != nil {
		return 0, err
	}
	return metrics.Evaluate(t, data).Correct(), nil
}

func runScore(r *run) error {
	n := 0
	env, setupTimes, err := repeatSetup(r.setups(), func() (*scoreEnv, error) {
		n++
		return setupScore(r, filepath.Join(r.dir, fmt.Sprintf("setup%d", n)))
	}, func(e *scoreEnv) { os.RemoveAll(e.dir) })
	if err != nil {
		return err
	}
	if _, err := env.score(); err != nil { // warm-up
		return err
	}
	var counts []int64
	var slices []slice
	log := startStealLog()
	_, err = repsFor(r.seconds, 3, func() (float64, error) {
		id := r.tr.begin(0, "score", -1)
		t0 := time.Now()
		c, err := env.score()
		d := time.Since(t0).Seconds()
		r.tr.end(id, 0)
		counts, slices = append(counts, c), append(slices, repSlice(env.data.Len(), d))
		return d, err
	})
	log.close()
	if err != nil {
		return err
	}
	// The reference count comes from the in-memory model and rows, which
	// never went through the file codecs.
	var want int64
	for _, rec := range env.data.Records {
		if env.model.Classify(rec) == rec.Class {
			want++
		}
	}
	for i, c := range counts {
		r.op(c == want, "scoring repetition %d counted %d correct rows, reference %d", i, c, want)
	}
	if r.traced() {
		return nil
	}
	r.emitEndToEnd(setupTimes, log, slices, slices)
	return nil
}
