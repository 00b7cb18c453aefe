package main

import (
	"slices"
	"testing"

	"pclouds/internal/cli"
)

// TestChildArgs: the supervisor hands every child the flags it was given,
// minus its own identity and the debug address, plus the child's rank and
// generation, each exactly once.
func TestChildArgs(t *testing.T) {
	got, err := new(cli.Pcloudsstream).Command(run).ChildArgs([]string{
		"-supervise",
		"-debug-addr=127.0.0.1:6060",
		"-rank=5",
		"-generation=3",
		"-addrs=127.0.0.1:7071,127.0.0.1:7072",
		"-source=tail",
		"-tail=train.bin",
		"-window=400",
		"-holdout-every=4",
		"-gate-tolerance=-1",
		"-publish-dir=models",
		"-checkpoint-dir=ckpt",
		"-max-restarts=2",
		"-restart-backoff=250ms",
	}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"-addrs=127.0.0.1:7071,127.0.0.1:7072",
		"-checkpoint-dir=ckpt",
		"-gate-tolerance=-1",
		"-holdout-every=4",
		"-max-restarts=2",
		"-publish-dir=models",
		"-restart-backoff=250ms",
		"-source=tail",
		"-tail=train.bin",
		"-window=400",
		"-rank=1",
		"-generation=7",
	}
	if !slices.Equal(got, want) {
		t.Errorf("child args\n got %q\nwant %q", got, want)
	}
}
