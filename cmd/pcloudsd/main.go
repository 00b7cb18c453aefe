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
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pclouds/internal/cli"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/driver"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
)

func main() { cli.Exit(new(cli.Pcloudsd).Command(run)) }

// run is the whole rank lifecycle. It returns (rather than exits) on
// failure so deferred cleanups — temp workdir removal, mesh teardown — run,
// and it wraps every error with the phase that produced it: a nonzero exit
// always names whether staging, the mesh, the build, or the trace failed.
func run(d *cli.Pcloudsd, r *cli.Rank) error {
	r.SetPhase("stage")
	schema := datagen.Schema()
	full, err := record.LoadFile(schema, d.Train)
	if err != nil {
		return fmt.Errorf("stage: load training data: %w", err)
	}
	// A checksummed v2 training file carries its identity in the header
	// checksum; binding it into checkpoint manifests makes a resume against
	// a swapped dataset an error instead of a silent divergence. A legacy v1
	// file has no identity to bind (dataCRC stays 0).
	var dataCRC uint32
	if hdr, ok, err := record.SniffHeader(d.Train); err != nil {
		return fmt.Errorf("stage: training data header: %w", err)
	} else if ok {
		dataCRC = hdr.CRC
	}
	cfg, err := d.Build.Config()
	if err != nil {
		return err
	}
	// The pre-drawn sample must be identical on every rank: all ranks draw
	// it from the full dataset with the shared seed before partitioning.
	sample := cfg.SampleFor(full)

	dir := d.WorkDir
	if dir == "" {
		dir, err = os.MkdirTemp("", fmt.Sprintf("pcloudsd-rank%d-", r.Rank))
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
	store.SetPipeline(d.IOPipeline.Pipeline())
	if d.Integrity {
		store.EnableIntegrity(ooc.IntegrityOptions{})
	}
	r.Stage = func(int) error {
		w, err := store.CreateWriter("root")
		if err != nil {
			return fmt.Errorf("create root file: %w", err)
		}
		for i := r.Rank; i < full.Len(); i += len(r.Addrs) {
			if err := w.Write(full.Records[i]); err != nil {
				w.Close()
				return fmt.Errorf("write records: %w", err)
			}
		}
		return w.Close()
	}

	// The store's live counters join the comm and recovery counters Main
	// publishes on /debug/vars and /metrics.
	reg := obs.DefaultRegistry()
	obs.Publish("pcloudsd.io", func() any { return store.Stats() })
	obs.RegisterIOStats(reg, "store", store.Stats)
	if vb := store.Integrity(); vb != nil {
		obs.RegisterIntegrityStats(reg, "store", vb.Stats)
	}

	var rec *obs.Recorder
	if d.Trace.Out != "" {
		rec = obs.New(r.Rank)
	}

	var prog *obs.ProgressWriter
	if d.Trace.Progress != "" {
		prog, err = obs.CreateProgressFile(d.Trace.Progress)
		if err != nil {
			return fmt.Errorf("progress: %w", err)
		}
		defer func() {
			if cerr := prog.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "rank %d: progress output: %v\n", r.Rank, cerr)
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "rank %d: connecting mesh (%d ranks, generation %d)\n", r.Rank, len(r.Addrs), r.Generation)
	r.SetPhase("build")
	start := time.Now()
	res, err := driver.RunRank(driver.Config{
		LoopConfig: r.LoopConfig,
		Build: pclouds.Config{
			Clouds:        cfg,
			Trace:         rec,
			Progress:      prog.Emit(),
			Metrics:       reg,
			CheckpointDir: d.CheckpointDir,
			Resume:        d.Resume,
			Integrity:     d.Integrity,
			DataChecksum:  dataCRC,
			Warnf:         r.Logf,
		},
		Store:  store,
		Sample: sample,
	})
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	tr, stats := res.Tree, res.Stats
	// Report the rank's transport and disk counters; after a recovery they
	// describe the final mesh, which is what a post-mortem needs.
	fmt.Fprintf(os.Stderr, "rank %d: done in %v (%s; store %s)\n", r.Rank, elapsed, res.Comm, store.Stats())
	fmt.Fprintf(os.Stderr, "rank %d: per-collective traffic:\n%s", r.Rank, res.Comm.Table())
	r.SetPhase("trace")
	if d.Trace.Out != "" {
		f, err := os.Create(d.Trace.Out)
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
		fmt.Fprintf(os.Stderr, "rank %d: trace written to %s\n", r.Rank, d.Trace.Out)
	}
	if r.Rank == 0 {
		fmt.Printf("pCLOUDS over TCP (split=%s), %d ranks, %d records: %s\n", cfg.Split, len(r.Addrs), full.Len(), metrics.Summarize(tr))
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
