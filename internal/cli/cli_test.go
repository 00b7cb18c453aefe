package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pclouds/internal/clouds"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/driver"
)

// cmdline is one command's definition plus the build configuration its
// flags produce.
type cmdline struct {
	cmd    *Command
	clouds func() clouds.Config
}

func pcloudsd(run func(*Rank) error) cmdline {
	d := &Pcloudsd{}
	return cmdline{d.Command(func(_ *Pcloudsd, r *Rank) error { return run(r) }), func() clouds.Config {
		c, _ := d.Build.Config()
		return c
	}}
}

func pcloudsstream(run func(*Rank) error) cmdline {
	s := &Pcloudsstream{}
	return cmdline{s.Command(func(_ *Pcloudsstream, r *Rank) error { return run(r) }), func() clouds.Config { return s.Stream.Clouds }}
}

// parse parses args as c's flags.
func parse(t *testing.T, c *Command, args ...string) *flag.FlagSet {
	t.Helper()
	fs, err := c.parse(args)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestChildArgs: the supervisor hands every child the flags it was given,
// minus its own identity and the debug address, plus the child's rank and
// generation, each exactly once, with the command's per-process paths made
// rank-private; and each command's default flags describe the same build
// and rendezvous loop as before the flags were shared.
func TestChildArgs(t *testing.T) {
	defaultLoop := driver.LoopConfig{
		Rank:        -1,
		Addrs:       []string{""},
		Generation:  1,
		MaxRestarts: 5,
		Backoff:     500 * time.Millisecond,
		Comm: tcpcomm.Config{
			Params:            costmodel.Zero(),
			DialTimeout:       30 * time.Second,
			HeartbeatInterval: 500 * time.Millisecond,
			PeerTimeout:       10 * time.Second,
		},
	}
	for _, tc := range []struct {
		name       string
		cmdline    func(func(*Rank) error) cmdline
		args       []string
		rank       int
		want       []string
		wantClouds clouds.Config
	}{{
		name:    "pcloudsd",
		cmdline: pcloudsd,
		args: []string{
			"-supervise", "-debug-addr=127.0.0.1:6060", "-rank=5", "-generation=3",
			"-addrs=127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073", "-train=train.bin",
			"-split-method=vote", "-checkpoint-dir=ckpt", "-integrity", "-max-restarts=2",
			"-restart-backoff=250ms", "-trace-out=" + filepath.Join("out", "trace.json"),
			"-progress-out=" + filepath.Join("out", "progress.jsonl"), "-workdir=work",
		},
		rank: 2,
		want: []string{
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
		},
		wantClouds: clouds.Config{Method: clouds.SSE, Split: clouds.SplitSSE, QRoot: 200, SmallNodeQ: 10, MinNodeSize: 2, Seed: 1},
	}, {
		name:    "pcloudsstream",
		cmdline: pcloudsstream,
		args: []string{
			"-supervise", "-debug-addr=127.0.0.1:6060", "-rank=5", "-generation=3",
			"-addrs=127.0.0.1:7071,127.0.0.1:7072", "-source=tail", "-tail=train.bin",
			"-window=400", "-holdout-every=4", "-gate-tolerance=-1", "-publish-dir=models",
			"-checkpoint-dir=ckpt", "-max-restarts=2", "-restart-backoff=250ms",
		},
		rank: 1,
		want: []string{
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
		},
		wantClouds: clouds.Config{Split: clouds.SplitHist, MinNodeSize: 2, Seed: 1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := tc.cmdline(nil)
			fs := parse(t, cl.cmd, tc.args...)
			if got := cl.cmd.childArgs(fs, tc.rank, 7); !slices.Equal(got, tc.want) {
				t.Errorf("child args\n got %q\nwant %q", got, tc.want)
			}

			def := tc.cmdline(nil)
			parse(t, def.cmd)
			if got := def.clouds(); !reflect.DeepEqual(got, tc.wantClouds) {
				t.Errorf("default build\n got %+v\nwant %+v", got, tc.wantClouds)
			}
			if got := def.cmd.Mesh.loopConfig(); !reflect.DeepEqual(got, defaultLoop) {
				t.Errorf("default loop\n got %+v\nwant %+v", got, defaultLoop)
			}
		})
	}
}

// TestMainUsageErrorsStartNothing: a flag-level mistake is a usageError
// from Main itself, in the supervisor before any child starts as in a
// rank before any mesh connects, and it takes no time. The last case is
// the control: valid flags reach one Command per rank.
func TestMainUsageErrorsStartNothing(t *testing.T) {
	var commands, runs int
	defer func(orig func(driver.SupervisorConfig) error) { supervise = orig }(supervise)
	supervise = func(cfg driver.SupervisorConfig) error {
		for r := 0; r < cfg.Ranks; r++ {
			cfg.Command(r, cfg.Generation)
			commands++
		}
		return nil
	}
	run := func(*Rank) error { runs++; return nil }
	sup := []string{"-supervise", "-addrs=127.0.0.1:7071,127.0.0.1:7072"}
	for _, tc := range []struct {
		name    string
		cmdline func(func(*Rank) error) cmdline
		args    []string
		ok      bool
	}{
		{"resume without checkpoint dir", pcloudsd, append(sup, "-train=t.bin", "-resume"), false},
		{"unknown split method", pcloudsd, append(sup, "-train=t.bin", "-split-method=bogus"), false},
		{"no training file", pcloudsd, sup, false},
		{"rank under supervise", pcloudsd, append(sup, "-train=t.bin", "-rank=0"), false},
		{"one-rank supervise", pcloudsd, []string{"-supervise", "-addrs=127.0.0.1:7071", "-train=t.bin"}, false},
		{"rank out of range", pcloudsd, []string{"-rank=2", "-addrs=127.0.0.1:7071,127.0.0.1:7072", "-train=t.bin"}, false},
		{"undefined flag", pcloudsd, append(sup, "-train=t.bin", "-io-depth=8"), false},
		{"tail without file", pcloudsstream, append(sup, "-source=tail"), false},
		{"unknown source", pcloudsstream, append(sup, "-source=kafka"), false},
		{"valid supervise", pcloudsd, append(sup, "-train=t.bin"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			commands, runs = 0, 0
			cl := tc.cmdline(run)
			cl.cmd.Flags = silence(cl.cmd.Flags)
			start := time.Now()
			err := Main(cl.cmd, tc.args)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("Main took %v", elapsed)
			}
			if tc.ok {
				if err != nil || commands != 2 {
					t.Fatalf("err %v, %d Command calls; want nil, 2", err, commands)
				}
				return
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("err %v, want a usageError", err)
			}
			if commands != 0 || runs != 0 {
				t.Fatalf("%d Command calls, %d rank runs; want none", commands, runs)
			}
		})
	}
}

// silence keeps the flag package's parse-error report out of the test log.
func silence(flags func(*flag.FlagSet)) func(*flag.FlagSet) {
	return func(fs *flag.FlagSet) {
		fs.SetOutput(io.Discard)
		flags(fs)
	}
}

// TestFirstSignalStops: the first SIGINT closes stop instead of killing
// the process, and release detaches the handler.
func TestFirstSignalStops(t *testing.T) {
	var phase atomic.Value
	phase.Store("build")
	stop, release := watchSignals("cli-test", &phase)
	defer release()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stop:
	case <-time.After(5 * time.Second):
		t.Fatal("stop not closed after SIGINT")
	}
}
