package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/metrics"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// TestClassifyOnly drives the -load-model path: a saved model scored on a
// v2 test file prints the accuracy and total metrics.Evaluate gives, and a
// test file holding a class outside the schema is refused at load with the
// row it names, not by a panic while scoring.
func TestClassifyOnly(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 7, Noise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.Generate(5_000), g.Generate(20_000)
	cfg := clouds.Config{Method: clouds.SSE, QRoot: 200, SmallNodeQ: 10, MaxDepth: 12, MinNodeSize: 2, Seed: 1}
	model, _, err := clouds.BuildInCore(cfg, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, testPath, badPath := filepath.Join(dir, "model.pcm"), filepath.Join(dir, "test.bin"), filepath.Join(dir, "bad.bin")
	if err := tree.SaveFile(model, modelPath); err != nil {
		t.Fatal(err)
	}
	if err := writeV2(test, testPath); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := classifyOnly(&out, modelPath, testPath, false); err != nil {
		t.Fatal(err)
	}
	conf := metrics.Evaluate(model, test)
	if want := fmt.Sprintf("test accuracy: %.4f over %d records\n", conf.Accuracy(), conf.Total()); !strings.Contains(out.String(), want) {
		t.Fatalf("classifyOnly printed\n%s\nwant a line %q", out.String(), want)
	}

	bad := &record.Dataset{Schema: test.Schema, Records: test.Records[:100]}
	bad.Records[50].Class = 5
	if err := writeV2(bad, badPath); err != nil {
		t.Fatal(err)
	}
	err = classifyOnly(&bytes.Buffer{}, modelPath, badPath, false)
	if err == nil || !strings.Contains(err.Error(), "row 50") || !strings.Contains(err.Error(), "class 5 out of range") {
		t.Fatalf("classifyOnly on a class outside the schema returned %v, want the load error naming row 50", err)
	}
}

func writeV2(d *record.Dataset, path string) error {
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 1); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
