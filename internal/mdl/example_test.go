package mdl_test

import (
	"fmt"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/mdl"
	"pclouds/internal/metrics"
)

// ExamplePrune is the library's end-to-end tour: train a CLOUDS tree on
// noisy synthetic data, prune it with MDL, and classify held-out records.
func ExamplePrune() {
	// Agrawal function 2 (class depends on age bands and salary ranges),
	// with 5% label noise in the training set.
	gen, err := datagen.New(datagen.Config{Function: 2, Seed: 42, Noise: 0.05})
	if err != nil {
		panic(err)
	}
	train := gen.Generate(5000)
	testGen, _ := datagen.New(datagen.Config{Function: 2, Seed: 43})
	test := testGen.Generate(2000)

	// SSE: sampled splitting points plus alive-interval estimation, one to
	// two passes over the data per node; the exact direct method below
	// SmallNodeQ intervals.
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 100, SmallNodeQ: 10, Seed: 1}
	tree, _, err := clouds.BuildInCore(cfg, train, nil)
	if err != nil {
		panic(err)
	}

	// The raw tree overfits the noise; MDL collapses the subtrees that cost
	// more bits than the exceptions they explain.
	pruned, st := mdl.Prune(tree)
	fmt.Printf("nodes: raw %d, pruned %d\n", st.NodesBefore, st.NodesAfter)
	fmt.Printf("test accuracy: raw %.3f, pruned %.3f\n",
		metrics.Accuracy(tree, test), metrics.Accuracy(pruned, test))

	rec := test.Records[0]
	fmt.Printf("record 0: class %d, predicted %d\n", rec.Class, pruned.Classify(rec))
	// Output:
	// nodes: raw 797, pruned 51
	// test accuracy: raw 0.921, pruned 0.965
	// record 0: class 0, predicted 0
}
