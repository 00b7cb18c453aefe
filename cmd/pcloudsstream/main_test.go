package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestChildArgs: the supervisor hands every child the flags it was given,
// minus its own identity and the debug address, plus the child's rank and
// generation, each exactly once.
func TestChildArgs(t *testing.T) {
	for name, v := range map[string]string{
		"supervise":       "true",
		"debug-addr":      "127.0.0.1:6060",
		"rank":            "5",
		"generation":      "3",
		"addrs":           "127.0.0.1:7071,127.0.0.1:7072",
		"source":          "tail",
		"tail":            "train.bin",
		"window":          "400",
		"holdout-every":   "4",
		"gate-tolerance":  "-1",
		"publish-dir":     "models",
		"checkpoint-dir":  "ckpt",
		"max-restarts":    "2",
		"restart-backoff": "250ms",
	} {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, a := range childArgs(1, 7) {
		if !strings.HasPrefix(a, "-test.") { // the test binary's own flags
			got = append(got, a)
		}
	}
	want := []string{
		"-addrs=127.0.0.1:7071,127.0.0.1:7072",
		"-checkpoint-dir=ckpt",
		"-gate-tolerance=-1",
		"-generation=7",
		"-holdout-every=4",
		"-max-restarts=2",
		"-publish-dir=models",
		"-rank=1",
		"-restart-backoff=250ms",
		"-source=tail",
		"-tail=train.bin",
		"-window=400",
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("child args\n got %q\nwant %q", got, want)
	}
}
