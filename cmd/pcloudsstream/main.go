// Command pcloudsstream runs one rank of a streaming pCLOUDS build: an
// unbounded record stream is partitioned into tumbling windows, each window
// grows or refreshes the model, and every committed window's model is
// published atomically into a registry directory that pcloudsserve hot-swaps
// from — the pipeline trains while it serves.
//
// Every rank ingests the same global stream (a synthetic generator or a
// tailed fixed-width binary file) and owns the records whose global index is
// congruent to its rank. Example (two ranks over a tailed file, serving the
// freshest model on :8080):
//
//	datagen -stream -rate 500 -o /tmp/train.bin &
//	pcloudsstream -rank 0 -addrs :7070,:7071 -source tail -tail /tmp/train.bin \
//	    -publish-dir /tmp/models &
//	pcloudsstream -rank 1 -addrs :7070,:7071 -source tail -tail /tmp/train.bin \
//	    -publish-dir /tmp/models &
//	pcloudsserve -model /tmp/models -listen :8080 -watch 1s
//
// Or let pcloudsstream supervise itself, one child per rank:
//
//	pcloudsstream -supervise -addrs :7070,:7071 -max-windows 10 \
//	    -publish-dir /tmp/models -checkpoint-dir /tmp/ckpt
//
// With -holdout-every N, every Nth global record is held out of training
// and scores each window's candidate model. The holdout error feeds a
// Page-Hinkley drift detector (an alarm forces a refresh on the next
// window, with -refresh-every as the ceiling) and a publish gate: a
// candidate that regresses more than -gate-tolerance against the
// last-published model is committed but not published. Both decisions ride
// the window commit collective, so every rank agrees on them and the
// published model sequence stays bit-identical at any rank count.
//
// Fault tolerance follows pcloudsd: a dead rank is respawned at a bumped
// generation, survivors rendezvous with it, and with -checkpoint-dir the
// group agrees on the newest window checkpoint every rank still has and
// resumes from it — the published model sequence continues bit-identically
// from the recovery window onward.
//
// Data integrity: tailing a checksummed v2 file (what datagen writes by
// default) verifies every record block's CRC as it streams — a torn
// trailing block is a writer mid-append and is polled, a corrupt interior
// block stops the build with its file offset. Window checkpoints are
// whole-file checksummed and bound to the tailed file's header checksum, so
// a damaged checkpoint degrades resume to the previous window and a resume
// against a swapped dataset is refused outright. pcloudsscrub verifies all
// of it offline.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/driver"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/stream"
)

var (
	rank      = flag.Int("rank", -1, "this process's rank")
	addrsFlag = flag.String("addrs", "", "comma-separated host:port per rank")

	sourceKind = flag.String("source", "synthetic", "record source: synthetic (Agrawal generator) or tail (follow a binary file)")
	tailPath   = flag.String("tail", "", "fixed-width binary record file to tail (-source tail)")
	tailPoll   = flag.Duration("tail-poll", 50*time.Millisecond, "poll interval when the tail has caught up")
	function   = flag.Int("function", 2, "generator classification function (-source synthetic)")
	dataSeed   = flag.Int64("data-seed", 1, "generator seed (-source synthetic; must match across ranks)")
	noise      = flag.Float64("noise", 0, "generator label noise probability (-source synthetic)")
	driftAfter = flag.Int64("drift-after", 0, "flip the generator concept to -drift-to after this many records (-source synthetic; 0 disables)")
	driftTo    = flag.Int("drift-to", 5, "post-drift classification function (with -drift-after)")
	limit      = flag.Int64("limit", 0, "end the stream after this many records (0 = unbounded)")

	windowRecs = flag.Int("window", 1024, "tumbling window size in global records")
	windowDur  = flag.Duration("window-duration", 0, "time-based windows instead of -window (non-deterministic boundaries)")
	maxWindows = flag.Int("max-windows", 0, "stop after this many committed windows (0 = until the stream ends)")
	sampleEv   = flag.Int("sample-every", 8, "reservoir sampling period (1 retains every record)")
	reservoir  = flag.Int("reservoir", 4096, "sample reservoir capacity (oldest evicted)")
	refreshEv  = flag.Int("refresh-every", 4, "full rebuild period in windows (windows in between grow the frontier; a ceiling when drift detection is on)")
	growMin    = flag.Int64("grow-min", 64, "minimum merged window records before a frontier leaf may split")
	holdoutEv  = flag.Int("holdout-every", 0, "hold every Nth global record out of training and score window candidates on it (0 disables drift detection and gating)")
	driftDelta = flag.Float64("drift-delta", 0, "Page-Hinkley tolerated per-window error deviation (0 = 0.005; with -holdout-every)")
	driftLam   = flag.Float64("drift-lambda", 0, "Page-Hinkley alarm threshold; an alarm schedules an adaptive refresh (0 = 0.25; with -holdout-every)")
	gateTol    = flag.Float64("gate-tolerance", 0, "publish gate: max holdout-error regression vs the last-published model (0 = 0.05, negative = exactly zero; with -holdout-every)")
	histBins   = flag.Int("hist-bins", 0, "fixed bin count for frontier sketches and refresh builds (0 = 16)")
	maxDepth   = flag.Int("maxdepth", 0, "depth cap (0 = unlimited)")
	seed       = flag.Int64("seed", 1, "build sampling seed (must match across ranks)")

	publishDir = flag.String("publish-dir", "", "registry directory to publish one model per committed window into (rank 0)")
	ckptDir    = flag.String("checkpoint-dir", "", "persist per-window checkpoints for crash recovery")
	debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")

	timeout    = flag.Duration("dial-timeout", 30*time.Second, "mesh connection timeout")
	heartbeat  = flag.Duration("heartbeat", 500*time.Millisecond, "liveness frame interval (negative disables)")
	peerTO     = flag.Duration("peer-timeout", 10*time.Second, "declare a peer dead after this much silence (negative disables)")
	recvTO     = flag.Duration("recv-timeout", 0, "bound any single blocked receive (0 disables)")
	supervise  = flag.Bool("supervise", false, "launch and monitor one child process per rank, respawning dead ranks")
	maxRestart = flag.Int("max-restarts", 5, "recovery attempts after a rank failure before giving up (negative disables)")
	backoff    = flag.Duration("restart-backoff", 500*time.Millisecond, "initial delay before a recovery attempt (doubles, capped at 30s)")
	generation = flag.Uint("generation", 1, "starting build generation (set by the supervisor on respawned ranks)")
)

func main() {
	flag.Parse()

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "pcloudsstream: %v: shutting down (send again to force exit)\n", s)
		close(stop)
		<-sigc
		fmt.Fprintln(os.Stderr, "pcloudsstream: second signal, exiting immediately")
		os.Exit(130)
	}()

	var err error
	if *supervise {
		err = runSupervisor(stop)
	} else {
		err = run(stop)
	}
	if err != nil && !errors.Is(err, stream.ErrStopped) {
		fmt.Fprintln(os.Stderr, "pcloudsstream:", err)
		os.Exit(1)
	}
}

func runSupervisor(stop <-chan struct{}) error {
	addrs := strings.Split(*addrsFlag, ",")
	if len(addrs) < 2 {
		return fmt.Errorf("usage: -supervise needs -addrs with at least 2 ranks")
	}
	if *rank >= 0 {
		return fmt.Errorf("usage: -rank and -supervise are mutually exclusive")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("supervise: locate own binary: %w", err)
	}
	err = driver.Supervise(driver.SupervisorConfig{
		Ranks:       len(addrs),
		Generation:  uint32(*generation),
		MaxRestarts: *maxRestart,
		Backoff:     *backoff,
		Stop:        stop,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Command: func(rank int, gen uint32) *exec.Cmd {
			cmd := exec.Command(self, childArgs(rank, gen)...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		},
	})
	if errors.Is(err, driver.ErrStopped) {
		return fmt.Errorf("supervise: interrupted: %w", err)
	}
	if err != nil {
		return fmt.Errorf("supervise: %w", err)
	}
	return nil
}

// childArgs rebuilds this invocation's explicitly-set flags for one child
// rank, replacing the supervision flags with the child's identity.
func childArgs(rank int, gen uint32) []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "supervise", "rank", "generation":
			// Replaced below.
		case "debug-addr":
			// One address cannot serve every child.
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return append(args, fmt.Sprintf("-rank=%d", rank), fmt.Sprintf("-generation=%d", gen))
}

// openSource opens a fresh source. The engine replays from record 0 after
// every recovery attempt, so each attempt needs its own open. The stop
// channel must reach the tail source: a caught-up tail blocks in its poll
// loop waiting for the writer, where the engine's own per-record stop
// check never runs.
func openSource(stop <-chan struct{}) (stream.Source, error) {
	switch *sourceKind {
	case "synthetic":
		return stream.NewSynthetic(datagen.Config{
			Function: *function, Seed: *dataSeed, Noise: *noise,
			DriftAfter: *driftAfter, DriftTo: *driftTo,
		}, *limit)
	case "tail":
		if *tailPath == "" {
			return nil, fmt.Errorf("usage: -source tail needs -tail <file>")
		}
		return stream.TailFile(datagen.Schema(), *tailPath, stream.TailOptions{Poll: *tailPoll, Limit: *limit, Stop: stop})
	default:
		return nil, fmt.Errorf("usage: unknown -source %q (want synthetic or tail)", *sourceKind)
	}
}

func run(stop <-chan struct{}) error {
	addrs := strings.Split(*addrsFlag, ",")
	if *rank < 0 || *rank >= len(addrs) {
		return fmt.Errorf("usage: need -rank in [0,%d)", len(addrs))
	}
	if *sourceKind == "tail" && *windowDur == 0 && *limit == 0 && *maxWindows == 0 {
		fmt.Fprintf(os.Stderr, "rank %d: tailing forever (no -limit or -max-windows); stop with SIGINT\n", *rank)
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rank %d: debug endpoint on http://%s/debug/pprof\n", *rank, bound)
	}

	scfg := stream.Config{
		Schema: datagen.Schema(),
		Clouds: clouds.Config{
			Split:       clouds.SplitHist,
			HistBins:    *histBins,
			MaxDepth:    *maxDepth,
			MinNodeSize: 2,
			Seed:        *seed,
		},
		WindowRecords:  *windowRecs,
		WindowDuration: *windowDur,
		MaxWindows:     *maxWindows,
		SampleEvery:    *sampleEv,
		ReservoirCap:   *reservoir,
		RefreshEvery:   *refreshEv,
		GrowMinRecords: *growMin,
		HoldoutEvery:   *holdoutEv,
		DriftDelta:     *driftDelta,
		DriftLambda:    *driftLam,
		GateTolerance:  *gateTol,
		PublishDir:     *publishDir,
		CheckpointDir:  *ckptDir,
		Stop:           stop,
		Metrics:        obs.DefaultRegistry(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	var liveComm atomic.Pointer[tcpcomm.Comm]
	obs.Publish("pcloudsstream.comm", func() any {
		if c := liveComm.Load(); c != nil {
			return c.Stats()
		}
		return comm.Stats{}
	})
	vars := &driver.Vars{}
	obs.Publish("pcloudsstream.driver", vars.Snapshot)
	vars.Register(obs.DefaultRegistry(), *rank)

	fmt.Fprintf(os.Stderr, "rank %d: connecting mesh (%d ranks, generation %d)\n", *rank, len(addrs), *generation)
	start := time.Now()
	var res *stream.Result
	loopRes, err := driver.Loop(driver.LoopConfig{
		Rank:        *rank,
		Addrs:       addrs,
		Generation:  uint32(*generation),
		MaxRestarts: *maxRestart,
		Backoff:     *backoff,
		Comm: tcpcomm.Config{
			Params:            costmodel.Zero(),
			DialTimeout:       *timeout,
			HeartbeatInterval: *heartbeat,
			PeerTimeout:       *peerTO,
			RecvTimeout:       *recvTO,
		},
		Stop:      stop,
		Vars:      vars,
		OnAttempt: func(c *tcpcomm.Comm) { liveComm.Store(c) },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, func(c *tcpcomm.Comm, attempt int) error {
		src, err := openSource(stop)
		if err != nil {
			return err
		}
		defer src.Close()
		cfg := scfg
		// A checksummed v2 tail carries the dataset's identity in its header
		// checksum; binding it into window checkpoints makes resuming this
		// rank against a swapped file an error instead of silent divergence.
		if ts, ok := src.(*stream.TailSource); ok {
			cfg.SourceChecksum = ts.HeaderChecksum()
		}
		r, err := stream.Run(cfg, c, src)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr, "rank %d: done in %v (%s)\n", *rank, elapsed, loopRes.Comm)
	if *rank == 0 {
		fmt.Printf("streaming pCLOUDS, %d ranks: %d windows committed (%d refreshes, %d leaves grown), %d models published\n",
			len(addrs), st.Windows, st.Refreshes, st.Grown, st.Published)
		fmt.Printf("this rank owned %d of %d scanned records; sketch traffic %d bytes; reservoir %d\n",
			st.Records, st.Scanned, st.SketchBytes, st.Reservoir)
		if *holdoutEv > 0 {
			fmt.Printf("holdout: %d records, final error %.4f; drift alarms %d", st.HoldoutRecords, st.HoldoutErr, st.DriftFires)
			if st.DriftFires > 0 {
				fmt.Printf(" (first at window %d)", st.FirstDriftWindow)
			}
			fmt.Printf("; %d publishes gated off\n", st.GateSkips)
		}
		if st.ResumedAt > 0 {
			fmt.Printf("resumed from window %d checkpoint\n", st.ResumedAt)
		}
		if loopRes.Attempts > 1 {
			fmt.Printf("recovered from %d failed attempts; final generation %d\n", loopRes.Attempts-1, loopRes.Generation)
		}
		if res.Tree != nil {
			fmt.Printf("final model: %s\n", metrics.Summarize(res.Tree))
		}
	}
	return nil
}
