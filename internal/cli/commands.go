package cli

import (
	"flag"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/stream"
)

// Pcloudsd is the command line of cmd/pcloudsd: the mesh and build groups,
// the trace outputs, the I/O pipeline switch, and the batch rank's own
// training, staging and checkpoint flags.
type Pcloudsd struct {
	Mesh       Mesh
	Build      Build
	Trace      Trace
	IOPipeline IOPipeline

	Train         string
	WorkDir       string
	CheckpointDir string
	Integrity     bool
	Resume        bool
}

// Command returns pcloudsd's definition with run as its rank body. Each
// child of a supervisor writes its own trace, progress and workdir.
func (d *Pcloudsd) Command(run func(d *Pcloudsd, r *Rank) error) *Command {
	return &Command{
		Name: "pcloudsd",
		Mesh: &d.Mesh,
		Flags: func(fs *flag.FlagSet) {
			d.Build.Register(fs)
			d.Trace.Register(fs)
			d.IOPipeline.Register(fs)
			fs.StringVar(&d.Train, "train", "", "binary training file (datagen schema)")
			fs.StringVar(&d.WorkDir, "workdir", "", "scratch directory for the rank's store (default: temp)")
			fs.StringVar(&d.CheckpointDir, "checkpoint-dir", "", "persist a checkpoint after every completed tree level to this directory and resume from the newest level every rank holds")
			fs.BoolVar(&d.Integrity, "integrity", false, "checksum the on-disk store, vote on corruption collectively, quarantine corrupt files and recover from checkpoints")
			fs.BoolVar(&d.Resume, "resume", false, "fail when -checkpoint-dir holds no level every rank can resume from, instead of starting fresh")
		},
		Validate: func() error {
			if d.Train == "" {
				return usagef("need -train")
			}
			if d.Resume && d.CheckpointDir == "" {
				return usagef("-resume requires -checkpoint-dir")
			}
			if _, err := d.Build.Config(); err != nil {
				return &usageError{err: err}
			}
			return nil
		},
		Private: map[string]func(string, int) string{
			"trace-out":    rankFile,
			"progress-out": rankFile,
			"workdir":      rankDir,
		},
		Run: func(r *Rank) error { return run(d, r) },
	}
}

// Pcloudsstream is the command line of cmd/pcloudsstream: the mesh group
// plus the record source and the streaming engine's settings, among them
// its own -hist-bins/-maxdepth/-seed (sketch bins and a build seed, not
// the batch build group's).
type Pcloudsstream struct {
	Mesh Mesh
	// Stream is the engine the flags describe; the rank adds Stop,
	// Metrics, Logf and the source checksum.
	Stream stream.Config
	// Source picks the record source: the generator Gen, or the file Tail
	// polled every TailPoll; either ends after Limit records (0: never).
	Source, Tail string
	TailPoll     time.Duration
	Gen          datagen.Config
	Limit        int64
}

// Command returns pcloudsstream's definition with run as its rank body.
func (s *Pcloudsstream) Command(run func(s *Pcloudsstream, r *Rank) error) *Command {
	return &Command{
		Name: "pcloudsstream",
		Mesh: &s.Mesh,
		Flags: func(fs *flag.FlagSet) {
			s.Stream.Schema = datagen.Schema()
			s.Stream.Clouds = clouds.Config{Split: clouds.SplitHist, MinNodeSize: 2}
			fs.StringVar(&s.Source, "source", "synthetic", "record source: synthetic (Agrawal generator) or tail (follow a binary file)")
			fs.StringVar(&s.Tail, "tail", "", "fixed-width binary record file to tail (-source tail)")
			fs.DurationVar(&s.TailPoll, "tail-poll", 50*time.Millisecond, "poll interval when the tail has caught up")
			fs.IntVar(&s.Gen.Function, "function", 2, "generator classification function (-source synthetic)")
			fs.Int64Var(&s.Gen.Seed, "data-seed", 1, "generator seed (-source synthetic; must match across ranks)")
			fs.Float64Var(&s.Gen.Noise, "noise", 0, "generator label noise probability (-source synthetic)")
			fs.Int64Var(&s.Gen.DriftAfter, "drift-after", 0, "flip the generator concept to -drift-to after this many records (-source synthetic; 0 disables)")
			fs.IntVar(&s.Gen.DriftTo, "drift-to", 5, "post-drift classification function (with -drift-after)")
			fs.Int64Var(&s.Limit, "limit", 0, "end the stream after this many records (0 = unbounded)")

			c := &s.Stream
			fs.IntVar(&c.WindowRecords, "window", 1024, "tumbling window size in global records")
			fs.DurationVar(&c.WindowDuration, "window-duration", 0, "time-based windows instead of -window (non-deterministic boundaries)")
			fs.IntVar(&c.MaxWindows, "max-windows", 0, "stop after this many committed windows (0 = until the stream ends)")
			fs.IntVar(&c.SampleEvery, "sample-every", 8, "reservoir sampling period (1 retains every record)")
			fs.IntVar(&c.ReservoirCap, "reservoir", 4096, "sample reservoir capacity (oldest evicted)")
			fs.IntVar(&c.RefreshEvery, "refresh-every", 4, "full rebuild period in windows (windows in between grow the frontier; a ceiling when drift detection is on)")
			fs.Int64Var(&c.GrowMinRecords, "grow-min", 64, "minimum merged window records before a frontier leaf may split")
			fs.IntVar(&c.HoldoutEvery, "holdout-every", 0, "hold every Nth global record out of training and score window candidates on it (0 disables drift detection and gating)")
			fs.Float64Var(&c.DriftDelta, "drift-delta", 0, "Page-Hinkley tolerated per-window error deviation (0 = 0.005; with -holdout-every)")
			fs.Float64Var(&c.DriftLambda, "drift-lambda", 0, "Page-Hinkley alarm threshold; an alarm schedules an adaptive refresh (0 = 0.25; with -holdout-every)")
			fs.Float64Var(&c.GateTolerance, "gate-tolerance", 0, "publish gate: max holdout-error regression vs the last-published model (0 = 0.05, negative = exactly zero; with -holdout-every)")
			fs.IntVar(&c.Clouds.HistBins, "hist-bins", 0, "fixed bin count for frontier sketches and refresh builds (0 = 16)")
			fs.IntVar(&c.Clouds.MaxDepth, "maxdepth", 0, "depth cap (0 = unlimited)")
			fs.Int64Var(&c.Clouds.Seed, "seed", 1, "build sampling seed (must match across ranks)")
			fs.StringVar(&c.PublishDir, "publish-dir", "", "registry directory to publish one model per committed window into (rank 0)")
			fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "persist per-window checkpoints for crash recovery")
		},
		Validate: func() error {
			switch s.Source {
			case "synthetic":
			case "tail":
				if s.Tail == "" {
					return usagef("-source tail needs -tail <file>")
				}
			default:
				return usagef("unknown -source %q (want synthetic or tail)", s.Source)
			}
			return nil
		},
		Run: func(r *Rank) error { return run(s, r) },
	}
}

// Open opens a fresh record source. The engine replays from record 0
// after every recovery attempt, so each attempt needs its own open. The
// stop channel must reach the tail source: a caught-up tail blocks in its
// poll loop waiting for the writer, where the engine's own per-record stop
// check never runs.
func (s *Pcloudsstream) Open(stop <-chan struct{}) (stream.Source, error) {
	if s.Source == "tail" {
		return stream.TailFile(datagen.Schema(), s.Tail, stream.TailOptions{Poll: s.TailPoll, Limit: s.Limit, Stop: stop})
	}
	return stream.NewSynthetic(s.Gen, s.Limit)
}
