// Command pcloudsd runs one rank of a genuinely distributed pCLOUDS build
// over TCP (the hand-rolled replacement for the paper's MPI runtime). Start
// one process per rank, all with the same -addrs list and -train file; each
// process takes the records whose index is congruent to its rank, stages
// them in a private on-disk store, connects the full mesh, and builds the
// tree. Every rank finishes with the identical tree; rank 0 reports it.
//
// Example (three ranks on one machine):
//
//	pcloudsd -rank 0 -addrs :7070,:7071,:7072 -train train.bin &
//	pcloudsd -rank 1 -addrs :7070,:7071,:7072 -train train.bin &
//	pcloudsd -rank 2 -addrs :7070,:7071,:7072 -train train.bin
//
// Or let pcloudsd be its own launcher: -supervise starts one child process
// per rank, monitors them, and respawns any that die at a bumped build
// generation (up to -max-restarts times, with -restart-backoff doubling
// between respawns):
//
//	pcloudsd -supervise -addrs :7070,:7071,:7072 -train train.bin \
//	    -checkpoint-dir /tmp/ckpt
//
// Surviving ranks detect the failure, tear their mesh down, and rendezvous
// with the respawned rank at the new generation; generation fencing rejects
// any traffic from the dead rank's previous incarnation. With
// -checkpoint-dir set, the rebuilt mesh auto-resumes from the newest
// checkpoint level completed on every rank, so the final tree is identical
// to an undisturbed run.
//
// Data integrity: -integrity frames every page of the on-disk store with a
// CRC-32C checksum verified on read. A corrupt page is retried, then voted
// on collectively — every rank learns which rank, file, and offset went bad
// — and with -checkpoint-dir set, the corrupt file is quarantined
// (*.quarantined, preserved for pcloudsscrub) and the build resumes from
// the newest clean checkpoint instead of failing. A checksummed training
// file's identity is bound into checkpoint manifests, so resuming against
// a swapped dataset is refused.
//
// Fault tolerance: -heartbeat/-peer-timeout/-recv-timeout tune the failure
// detector (a dead or wedged peer fails the build with an error naming the
// rank instead of hanging), and -checkpoint-dir/-resume persist per-level
// checkpoints so a killed job restarts from the last completed level and
// produces the identical tree. On failure the process exits nonzero with
// the failing phase named; SIGINT/SIGTERM run the same cleanup path (a
// second signal hard-exits); a temp workdir is removed either way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
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
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
)

var (
	rank        = flag.Int("rank", -1, "this process's rank")
	addrsFlag   = flag.String("addrs", "", "comma-separated host:port per rank")
	trainPath   = flag.String("train", "", "binary training file (datagen schema)")
	workDir     = flag.String("workdir", "", "scratch directory for the rank's store (default: temp)")
	qroot       = flag.Int("qroot", 200, "intervals at the root")
	small       = flag.Int("small", 10, "small-node switch threshold (intervals)")
	splitMethod = flag.String("split-method", "sse", "split-finding protocol: sse (exact), hist (fixed-bin histograms), or vote (top-k attribute voting)")
	histBins    = flag.Int("hist-bins", 0, "fixed bin count for -split-method hist/vote (0 = 16)")
	voteTopK    = flag.Int("vote-top-k", 0, "attributes each rank nominates for -split-method vote (0 = 2)")
	maxDepth    = flag.Int("maxdepth", 0, "depth cap (0 = unlimited)")
	seed        = flag.Int64("seed", 1, "sampling seed (must match across ranks)")
	timeout     = flag.Duration("dial-timeout", 30*time.Second, "mesh connection timeout")
	heartbeat   = flag.Duration("heartbeat", 500*time.Millisecond, "liveness frame interval (negative disables)")
	peerTO      = flag.Duration("peer-timeout", 10*time.Second, "declare a peer dead after this much silence (negative disables)")
	recvTO      = flag.Duration("recv-timeout", 0, "bound any single blocked receive, even with live heartbeats (0 disables)")
	ckptDir     = flag.String("checkpoint-dir", "", "persist a checkpoint after every completed tree level to this directory")
	integrity   = flag.Bool("integrity", false, "checksum the on-disk store, vote on corruption collectively, quarantine corrupt files and recover from checkpoints")
	resume      = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir instead of starting fresh")
	traceOut    = flag.String("trace-out", "", "write this rank's trace JSON to this path (set on every rank)")
	progressOut = flag.String("progress-out", "", "write per-level progress records as JSON lines to this path")
	debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. :6060)")
	ioPipe      = flag.Bool("io-pipeline", false, "overlap disk I/O with computation (async read-ahead/write-behind)")
	ioDepth     = flag.Int("io-depth", ooc.DefaultPipelineDepth, "pages in flight per stream when -io-pipeline is on")
	supervise   = flag.Bool("supervise", false, "launch and monitor one child process per rank, respawning dead ranks")
	maxRestart  = flag.Int("max-restarts", 5, "recovery attempts after a rank failure before giving up (negative disables)")
	backoff     = flag.Duration("restart-backoff", 500*time.Millisecond, "initial delay before a recovery attempt (doubles, capped at 30s)")
	generation  = flag.Uint("generation", 1, "starting build generation (set by the supervisor on respawned ranks)")
)

// phase names what the process is doing, for the signal handler's report.
var phase atomic.Value // string

func setPhase(p string) { phase.Store(p) }

func main() {
	flag.Parse()
	setPhase("startup")

	// First SIGINT/SIGTERM closes stop: the supervisor kills its children,
	// a rank unblocks its in-flight build, and either way the error return
	// path runs — deferred cleanups (temp workdir removal) included — and
	// the exit names the interrupted phase. A second signal hard-exits.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "pcloudsd: %v during %s phase: shutting down (send again to force exit)\n", s, phase.Load())
		close(stop)
		<-sigc
		fmt.Fprintln(os.Stderr, "pcloudsd: second signal, exiting immediately")
		os.Exit(130)
	}()

	var err error
	if *supervise {
		err = runSupervisor(stop)
	} else {
		err = run(stop)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcloudsd:", err)
		os.Exit(1)
	}
}

// runSupervisor launches one child pcloudsd per rank (re-execing this
// binary) and respawns dead ranks at bumped generations until the restart
// budget runs out.
func runSupervisor(stop <-chan struct{}) error {
	addrs := strings.Split(*addrsFlag, ",")
	if len(addrs) < 2 || *trainPath == "" {
		return fmt.Errorf("usage: -supervise needs -addrs with at least 2 ranks and -train")
	}
	if *rank >= 0 {
		return fmt.Errorf("usage: -rank and -supervise are mutually exclusive")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("supervise: locate own binary: %w", err)
	}
	setPhase("supervise")
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
// rank, replacing the supervision flags with the child's identity and
// making per-process paths (trace output, workdir) rank-private.
func childArgs(rank int, gen uint32) []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "supervise", "rank", "generation":
			// Replaced below.
		case "debug-addr":
			// One address cannot serve every child; debug endpoints need
			// per-rank invocations.
		case "trace-out":
			args = append(args, "-trace-out="+rankPath(f.Value.String(), rank))
		case "progress-out":
			args = append(args, "-progress-out="+rankPath(f.Value.String(), rank))
		case "workdir":
			args = append(args, "-workdir="+filepath.Join(f.Value.String(), fmt.Sprintf("rank%d", rank)))
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return append(args, fmt.Sprintf("-rank=%d", rank), fmt.Sprintf("-generation=%d", gen))
}

// rankPath makes path rank-private: "trace.json" -> "trace.rank2.json".
func rankPath(path string, rank int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.rank%d%s", strings.TrimSuffix(path, ext), rank, ext)
}

// run is the whole rank lifecycle. It returns (rather than exits) on
// failure so deferred cleanups — temp workdir removal, mesh teardown — run,
// and it wraps every error with the phase that produced it: a nonzero exit
// always names whether staging, the mesh, the build, or the trace failed.
func run(stop <-chan struct{}) error {
	addrs := strings.Split(*addrsFlag, ",")
	if *rank < 0 || *rank >= len(addrs) || *trainPath == "" {
		return fmt.Errorf("usage: need -rank in [0,%d) and -train", len(addrs))
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("usage: -resume requires -checkpoint-dir")
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rank %d: debug endpoint on http://%s/debug/pprof\n", *rank, bound)
	}

	setPhase("stage")
	schema := datagen.Schema()
	full, err := record.LoadFile(schema, *trainPath)
	if err != nil {
		return fmt.Errorf("stage: load training data: %w", err)
	}
	// A checksummed v2 training file carries its identity in the header
	// checksum; binding it into checkpoint manifests makes a resume against
	// a swapped dataset an error instead of a silent divergence. A legacy v1
	// file has no identity to bind (dataCRC stays 0).
	var dataCRC uint32
	if hdr, ok, err := record.SniffHeader(*trainPath); err != nil {
		return fmt.Errorf("stage: training data header: %w", err)
	} else if ok {
		dataCRC = hdr.CRC
	}
	split, err := clouds.ParseSplitMethod(*splitMethod)
	if err != nil {
		return fmt.Errorf("usage: %w", err)
	}
	cfg := clouds.Config{
		Method:      clouds.SSE,
		Split:       split,
		QRoot:       *qroot,
		SmallNodeQ:  *small,
		HistBins:    *histBins,
		VoteTopK:    *voteTopK,
		MaxDepth:    *maxDepth,
		MinNodeSize: 2,
		Seed:        *seed,
	}
	// The pre-drawn sample must be identical on every rank: all ranks draw
	// it from the full dataset with the shared seed before partitioning.
	sample := cfg.SampleFor(full)

	dir := *workDir
	if dir == "" {
		dir, err = os.MkdirTemp("", fmt.Sprintf("pcloudsd-rank%d-", *rank))
		if err != nil {
			return fmt.Errorf("stage: workdir: %w", err)
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("stage: workdir: %w", err)
	}
	store, err := ooc.NewFileStore(schema, filepath.Join(dir, "store"), costmodel.Zero(), nil)
	if err != nil {
		return fmt.Errorf("stage: create store: %w", err)
	}
	store.SetPipeline(ooc.Pipeline{Enabled: *ioPipe, Depth: *ioDepth})
	if *integrity {
		store.EnableIntegrity(ooc.IntegrityOptions{})
	}
	stage := func(store *ooc.Store) error {
		w, err := store.CreateWriter("root")
		if err != nil {
			return fmt.Errorf("create root file: %w", err)
		}
		for i := *rank; i < full.Len(); i += len(addrs) {
			if err := w.Write(full.Records[i]); err != nil {
				w.Close()
				return fmt.Errorf("write records: %w", err)
			}
		}
		return w.Close()
	}

	// Live counters for /debug/vars and /metrics; published unconditionally
	// so that -debug-addr works without -trace-out. The comm pointer is
	// repointed at each recovery attempt's fresh mesh, and every registry
	// series reads its source at scrape time, so both endpoints follow the
	// current incarnation (generation rejects included).
	var liveComm atomic.Pointer[tcpcomm.Comm]
	liveStats := func() comm.Stats {
		if c := liveComm.Load(); c != nil {
			return c.Stats()
		}
		return comm.Stats{}
	}
	obs.Publish("pcloudsd.comm", func() any { return liveStats() })
	obs.Publish("pcloudsd.io", func() any { return store.Stats() })
	reg := obs.DefaultRegistry()
	obs.RegisterCommStats(reg, liveStats)
	obs.RegisterIOStats(reg, "store", store.Stats)
	if vb := store.Integrity(); vb != nil {
		obs.RegisterIntegrityStats(reg, "store", vb.Stats)
	}

	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.New(*rank)
	}

	var prog *obs.ProgressWriter
	if *progressOut != "" {
		prog, err = obs.CreateProgressFile(*progressOut)
		if err != nil {
			return fmt.Errorf("progress: %w", err)
		}
		defer func() {
			if cerr := prog.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "rank %d: progress output: %v\n", *rank, cerr)
			}
		}()
	}

	vars := &driver.Vars{}
	obs.Publish("pcloudsd.driver", vars.Snapshot)
	vars.Register(reg, *rank)

	fmt.Fprintf(os.Stderr, "rank %d: connecting mesh (%d ranks, generation %d)\n", *rank, len(addrs), *generation)
	setPhase("build")
	start := time.Now()
	res, err := driver.RunRank(driver.Config{
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
		Build: pclouds.Config{
			Clouds:        cfg,
			Trace:         rec,
			Progress:      prog.Emit(),
			Metrics:       reg,
			CheckpointDir: *ckptDir,
			Resume:        *resume,
			Integrity:     *integrity,
			DataChecksum:  dataCRC,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		},
		Store:     store,
		Stage:     stage,
		Sample:    sample,
		Stop:      stop,
		Vars:      vars,
		OnAttempt: func(c *tcpcomm.Comm) { liveComm.Store(c) },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	tr, stats := res.Tree, res.Stats
	// Report the rank's transport and disk counters; after a recovery they
	// describe the final mesh, which is what a post-mortem needs.
	fmt.Fprintf(os.Stderr, "rank %d: done in %v (%s; store %s)\n", *rank, elapsed, res.Comm, store.Stats())
	fmt.Fprintf(os.Stderr, "rank %d: per-collective traffic:\n%s", *rank, res.Comm.Table())
	setPhase("trace")
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rank %d: trace written to %s\n", *rank, *traceOut)
	}
	if *rank == 0 {
		fmt.Printf("pCLOUDS over TCP (split=%s), %d ranks, %d records: %s\n", cfg.Split, len(addrs), full.Len(), metrics.Summarize(tr))
		fmt.Printf("large nodes: %d, small tasks: %d, wall time: %v\n", stats.LargeNodes, stats.SmallTasks, elapsed)
		if res.Attempts > 1 {
			fmt.Printf("recovered from %d failed attempts; final generation %d\n", res.Attempts-1, res.Generation)
		}
		if stats.ResumedLevel > 0 {
			fmt.Printf("resumed from checkpoint at level %d, %d checkpoints written\n", stats.ResumedLevel, stats.Checkpoints)
		}
		if stats.CheckpointsPruned > 0 || stats.CheckpointsKept > 0 {
			fmt.Printf("checkpoint GC: %d pruned, %d kept\n", stats.CheckpointsPruned, stats.CheckpointsKept)
		}
		if stats.PhaseReport != "" {
			fmt.Printf("per-phase report (across ranks):\n%s", stats.PhaseReport)
		}
		fmt.Printf("training accuracy: %.4f\n", metrics.Accuracy(tr, full))
	}
	return nil
}
