package main

import (
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestChildArgs: the supervisor hands every child the flags it was given,
// minus its own identity and the debug address, plus the child's rank and
// generation, each exactly once; the trace and progress outputs and the
// workdir become rank-private.
func TestChildArgs(t *testing.T) {
	for name, v := range map[string]string{
		"supervise":       "true",
		"debug-addr":      "127.0.0.1:6060",
		"rank":            "5",
		"generation":      "3",
		"addrs":           "127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073",
		"train":           "train.bin",
		"split-method":    "vote",
		"checkpoint-dir":  "ckpt",
		"integrity":       "true",
		"max-restarts":    "2",
		"restart-backoff": "250ms",
		"trace-out":       filepath.Join("out", "trace.json"),
		"progress-out":    filepath.Join("out", "progress.jsonl"),
		"workdir":         "work",
	} {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, a := range childArgs(2, 7) {
		if !strings.HasPrefix(a, "-test.") { // the test binary's own flags
			got = append(got, a)
		}
	}
	want := []string{
		"-addrs=127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073",
		"-checkpoint-dir=ckpt",
		"-generation=7",
		"-integrity=true",
		"-max-restarts=2",
		"-progress-out=" + filepath.Join("out", "progress.rank2.jsonl"),
		"-rank=2",
		"-restart-backoff=250ms",
		"-split-method=vote",
		"-trace-out=" + filepath.Join("out", "trace.rank2.json"),
		"-train=train.bin",
		"-workdir=" + filepath.Join("work", "rank2"),
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("child args\n got %q\nwant %q", got, want)
	}
}
