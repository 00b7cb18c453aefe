package serve

import (
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// leafSchema: one numeric attribute, two classes.
func leafSchema(t *testing.T) *record.Schema {
	t.Helper()
	return record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
}

// leafModel builds a validated single-leaf model that always predicts
// class; version-sensitive tests use one model per class.
func leafModel(t *testing.T, version string, class int32) *Model {
	t.Helper()
	counts := make([]int64, 2)
	counts[class] = 5
	tr := &tree.Tree{
		Schema: leafSchema(t),
		Root:   &tree.Node{ClassCounts: counts, N: 5, Class: class},
	}
	m, err := NewModel(tr, version)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func leafRec() record.Record { return record.Record{Num: []float64{1}} }

// trainedModel trains a real (small) CLOUDS tree on datagen records.
func trainedModel(t testing.TB, n int, version string) (*Model, *record.Dataset) {
	t.Helper()
	gen, err := datagen.New(datagen.Config{Function: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.Generate(n)
	tr, _, err := clouds.BuildInCore(clouds.Config{
		Method: clouds.SSE, QRoot: 50, SmallNodeQ: 10,
		MaxDepth: 8, MinNodeSize: 2, Seed: 7,
	}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(tr, version)
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}
