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
	"fmt"
	"os"
	"time"

	"pclouds/internal/cli"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/driver"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/stream"
)

func main() { cli.Exit(new(cli.Pcloudsstream).Command(run)) }

func run(s *cli.Pcloudsstream, r *cli.Rank) error {
	if s.Source == "tail" && s.Stream.WindowDuration == 0 && s.Limit == 0 && s.Stream.MaxWindows == 0 {
		fmt.Fprintf(os.Stderr, "rank %d: tailing forever (no -limit or -max-windows); stop with SIGINT\n", r.Rank)
	}
	scfg := s.Stream
	scfg.Stop = r.Stop
	scfg.Metrics = obs.DefaultRegistry()
	scfg.Logf = r.Logf

	fmt.Fprintf(os.Stderr, "rank %d: connecting mesh (%d ranks, generation %d)\n", r.Rank, len(r.Addrs), r.Generation)
	r.SetPhase("stream")
	start := time.Now()
	var res *stream.Result
	loopRes, err := driver.Loop(r.LoopConfig, func(c *tcpcomm.Comm, attempt int) error {
		src, err := s.Open(r.Stop)
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
		out, err := stream.Run(cfg, c, src)
		if err != nil {
			return err
		}
		res = out
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr, "rank %d: done in %v (%s)\n", r.Rank, elapsed, loopRes.Comm)
	if r.Rank == 0 {
		fmt.Printf("streaming pCLOUDS, %d ranks: %d windows committed (%d refreshes, %d leaves grown), %d models published\n",
			len(r.Addrs), st.Windows, st.Refreshes, st.Grown, st.Published)
		fmt.Printf("this rank owned %d of %d scanned records; sketch traffic %d bytes; reservoir %d\n",
			st.Records, st.Scanned, st.SketchBytes, st.Reservoir)
		if s.Stream.HoldoutEvery > 0 {
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
