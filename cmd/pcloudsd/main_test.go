package main

import (
	"path/filepath"
	"slices"
	"testing"

	"pclouds/internal/cli"
)

// TestChildArgs: the supervisor hands every child the flags it was given,
// minus its own identity and the debug address, plus the child's rank and
// generation, each exactly once; the trace and progress outputs and the
// workdir become rank-private.
func TestChildArgs(t *testing.T) {
	got, err := new(cli.Pcloudsd).Command(run).ChildArgs([]string{
		"-supervise",
		"-debug-addr=127.0.0.1:6060",
		"-rank=5",
		"-generation=3",
		"-addrs=127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073",
		"-train=train.bin",
		"-split-method=vote",
		"-checkpoint-dir=ckpt",
		"-integrity=true",
		"-max-restarts=2",
		"-restart-backoff=250ms",
		"-trace-out=" + filepath.Join("out", "trace.json"),
		"-progress-out=" + filepath.Join("out", "progress.jsonl"),
		"-workdir=work",
	}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"-addrs=127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073",
		"-checkpoint-dir=ckpt",
		"-integrity=true",
		"-max-restarts=2",
		"-progress-out=" + filepath.Join("out", "progress.rank2.jsonl"),
		"-restart-backoff=250ms",
		"-split-method=vote",
		"-trace-out=" + filepath.Join("out", "trace.rank2.json"),
		"-train=train.bin",
		"-workdir=" + filepath.Join("work", "rank2"),
		"-rank=2",
		"-generation=7",
	}
	if !slices.Equal(got, want) {
		t.Errorf("child args\n got %q\nwant %q", got, want)
	}
}
