// Package driver is the self-healing layer between one rank's build logic
// and the operating system: RunRank wraps stage → mesh → build in a
// rendezvous loop that survives peer failures, and Supervise (supervisor.go)
// launches and monitors the local rank processes, respawning the ones that
// die.
//
// Recovery is split between the two halves. When a peer dies mid-build,
// every *surviving* rank gets a comm.PeerDown, tears its communicator down,
// bumps its build generation and loops back to the rendezvous barrier — it
// re-dials the mesh in-process, without being restarted. The *dead* rank is
// respawned by the supervisor as a new process carrying the bumped
// generation; generation fencing in the transport keeps any not-quite-dead
// previous incarnation from reaching the new mesh, and ranks that disagree
// about the generation converge by adopting the larger one (the transport's
// GenerationError names it). Once the mesh is back, a build with
// pclouds.Config.CheckpointDir set restores from the newest checkpoint level
// complete on every rank — or starts over if the job died before its first
// checkpoint.
package driver

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// ErrStopped is returned by Loop (and RunRank) when LoopConfig.Stop was
// closed.
var ErrStopped = errors.New("driver: stopped")

// Vars holds live recovery counters, safe for concurrent reads (e.g. an
// expvar publisher) while RunRank mutates them.
type Vars struct {
	Attempts  atomic.Int64 // build attempts, including the first
	PeerDowns atomic.Int64 // attempts that ended in a peer failure
	Adoptions atomic.Int64 // generation adoptions after a fencing reject
}

// Snapshot returns the counters as a plain map, for obs.Publish.
func (v *Vars) Snapshot() any {
	return map[string]int64{
		"attempts":   v.Attempts.Load(),
		"peer_downs": v.PeerDowns.Load(),
		"adoptions":  v.Adoptions.Load(),
	}
}

// Register wires the live counters onto reg as pclouds_driver_* series
// labelled by rank, read at scrape time. Idempotent; the latest Vars for a
// rank wins, so each recovery generation's registration simply repoints the
// series.
func (v *Vars) Register(reg *obs.Registry, rank int) {
	r := strconv.Itoa(rank)
	reg.Counter("pclouds_driver_attempts_total", "Build attempts, including the first.", "rank").
		Func(func() float64 { return float64(v.Attempts.Load()) }, r)
	reg.Counter("pclouds_driver_peer_downs_total", "Build attempts that ended in a peer failure.", "rank").
		Func(func() float64 { return float64(v.PeerDowns.Load()) }, r)
	reg.Counter("pclouds_driver_adoptions_total", "Generation adoptions after a fencing reject.", "rank").
		Func(func() float64 { return float64(v.Adoptions.Load()) }, r)
}

// Config parameterises one rank's supervised batch build: the rendezvous
// loop's mesh identity and recovery knobs, plus the build itself.
type Config struct {
	// LoopConfig drives the rendezvous loop; its Stage (re)writes the staged
	// root partition into Store and runs before every attempt (partitioning
	// consumes the frontier, so a retry needs the root re-staged; staging
	// is deterministic and overwrites in place).
	LoopConfig
	// Build is the build template. With CheckpointDir set every attempt
	// restores from the newest complete checkpoint, or starts fresh when
	// there is none; a caller-set strict Resume is honoured on the first
	// attempt only.
	Build pclouds.Config
	// Store is the rank's out-of-core store.
	Store *ooc.Store
	// RootName is the staged root file's store name (default "root");
	// Sample is the shared pre-drawn sample, identical on every rank.
	RootName string
	Sample   []record.Record
}

// RankResult is a successful RunRank outcome.
type RankResult struct {
	Tree  *tree.Tree
	Stats *pclouds.Stats
	// Comm holds the transport counters of the mesh that completed.
	Comm comm.Stats
	// Attempts counts build attempts including the successful one;
	// Generation is the generation of the mesh that completed.
	Attempts   int
	Generation uint32
}

// adoptionCap bounds consecutive generation adoptions between two build
// attempts. Adoptions terminate on their own — each strictly raises the
// generation, and peers only raise theirs on real failures that burn their
// own budgets — so the cap is a backstop against a pathological peer, not a
// tuning knob.
const adoptionCap = 100

// LoopConfig parameterises the generic rendezvous loop shared by every
// supervised rank workload: batch builds (RunRank) and the streaming engine
// (cmd/pcloudsstream). It carries the mesh identity and recovery knobs; the
// workload itself is the body passed to Loop.
type LoopConfig struct {
	// Rank and Addrs identify this rank in the mesh.
	Rank  int
	Addrs []string
	// Generation is the starting build generation. It grows over the run:
	// +1 per recovery round, and adopted upward whenever the transport
	// reports a peer already at a newer generation.
	Generation uint32
	// MaxRestarts bounds the recovery attempts after the first body
	// (default 5; 0 uses the default, negative disables recovery). When the
	// budget is exhausted Loop fails with an error wrapping the first
	// comm.PeerDown observed, naming the root cause.
	MaxRestarts int
	// Backoff is the initial delay before a recovery attempt (default
	// 500ms; doubles per attempt, capped at 30s). It gives the dead rank's
	// supervisor time to respawn it and the surviving ranks time to tear
	// down to the rendezvous barrier.
	Backoff time.Duration
	// Comm is the transport template: timeouts and heartbeat settings are
	// taken from it; Rank, Addrs and Generation are overwritten per attempt.
	Comm tcpcomm.Config
	// Stage, when non-nil, runs before every attempt to (re-)prepare local
	// state (e.g. restage the root partition). attempt is 1-based and counts
	// bodies started so far plus one.
	Stage func(attempt int) error
	// Stop aborts the loop when closed (Loop returns ErrStopped); an
	// in-flight body is unblocked by closing its communicator.
	Stop <-chan struct{}
	Logf func(format string, args ...any)
	Vars *Vars
	// OnAttempt, when non-nil, observes the freshly connected communicator
	// at the start of every attempt.
	OnAttempt func(c *tcpcomm.Comm)
}

// LoopResult summarises a Loop run that completed.
type LoopResult struct {
	// Comm holds the transport counters of the mesh that completed.
	Comm comm.Stats
	// Attempts counts bodies started, including the successful one;
	// Generation is the generation of the mesh that completed.
	Attempts   int
	Generation uint32
}

func (cfg *LoopConfig) withDefaults() {
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 5
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Vars == nil {
		cfg.Vars = &Vars{}
	}
}

// Loop runs body to completion under the self-healing rendezvous protocol:
// stage local state, bring the mesh up at the current generation (adopting
// newer generations announced by fencing rejects), run the body, and — when
// the body fails with a comm.PeerDown — tear down, bump the generation and
// rendezvous again, within a bounded recovery budget. The body must be
// restartable: on every attempt it is responsible for restoring its own
// progress (batch builds auto-resume from checkpoints; the streaming engine
// re-runs its collective window-resume agreement).
func Loop(cfg LoopConfig, body func(c *tcpcomm.Comm, attempt int) error) (*LoopResult, error) {
	cfg.withDefaults()
	gen := cfg.Generation
	backoff := cfg.Backoff
	budget := cfg.MaxRestarts
	var rootCause *comm.PeerDown
	attempts := 0

	fail := func(err error) (*LoopResult, error) {
		if rootCause != nil {
			return nil, fmt.Errorf("driver: rank %d: recovery budget exhausted after %d attempts (%v); root cause: %w",
				cfg.Rank, attempts, err, rootCause)
		}
		return nil, fmt.Errorf("driver: rank %d: recovery budget exhausted after %d attempts: %w", cfg.Rank, attempts, err)
	}
	stopped := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}
	// spend consumes one unit of recovery budget ahead of a retry (and
	// sleeps the backoff); false means the budget is gone.
	spend := func() bool {
		if budget <= 0 {
			return false
		}
		budget--
		time.Sleep(backoff)
		backoff *= 2
		if backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
		return true
	}

	for {
		if stopped() {
			return nil, ErrStopped
		}

		// Rendezvous barrier: (re-)stage local state, then bring the mesh up
		// at the current generation, adopting newer generations announced by
		// fencing rejects.
		if cfg.Stage != nil {
			if err := cfg.Stage(attempts + 1); err != nil {
				return nil, fmt.Errorf("driver: rank %d: stage: %w", cfg.Rank, err)
			}
		}
		var c *tcpcomm.Comm
		adoptions := 0
		for {
			cc := cfg.Comm
			cc.Rank, cc.Addrs, cc.Generation = cfg.Rank, cfg.Addrs, gen
			var err error
			c, err = tcpcomm.Dial(cc)
			if err == nil {
				break
			}
			if ge, ok := tcpcomm.AsGenerationError(err); ok && ge.Theirs > gen {
				// A peer is already at a newer generation: this incarnation
				// is late to a recovery round it hasn't observed. Adopt and
				// re-dial; this is convergence, not a failure, so it does
				// not spend budget.
				cfg.Logf("driver: rank %d: adopting generation %d (was %d) after fencing reject from rank %d",
					cfg.Rank, ge.Theirs, gen, ge.Peer)
				gen = ge.Theirs
				cfg.Vars.Adoptions.Add(1)
				adoptions++
				if adoptions > adoptionCap {
					return nil, fmt.Errorf("driver: rank %d: runaway generation adoption: %w", cfg.Rank, err)
				}
				if stopped() {
					return nil, ErrStopped
				}
				continue
			}
			// Mesh bring-up failed (peer absent or still tearing down).
			if !spend() {
				return fail(err)
			}
			cfg.Logf("driver: rank %d: mesh bring-up at generation %d failed (%v); retrying (%d attempts left)",
				cfg.Rank, gen, err, budget)
			if stopped() {
				return nil, ErrStopped
			}
			adoptions = 0
		}

		attempts++
		cfg.Vars.Attempts.Add(1)
		if cfg.OnAttempt != nil {
			cfg.OnAttempt(c)
		}
		// A Stop while the body is in flight closes the communicator, which
		// fails the body's next collective and unblocks it.
		watch := make(chan struct{})
		if cfg.Stop != nil {
			go func() {
				select {
				case <-cfg.Stop:
					c.Close()
				case <-watch:
				}
			}()
		}
		err := body(c, attempts)
		close(watch)
		cs := c.Stats()
		c.Close()
		if err == nil {
			return &LoopResult{Comm: cs, Attempts: attempts, Generation: gen}, nil
		}
		if stopped() {
			return nil, ErrStopped
		}
		pd, isDown := comm.AsPeerDown(err)
		if !isDown {
			return nil, fmt.Errorf("driver: rank %d: build: %w", cfg.Rank, err)
		}
		cfg.Vars.PeerDowns.Add(1)
		if rootCause == nil {
			rootCause = pd
		}
		if !spend() {
			return fail(err)
		}
		gen++
		cfg.Logf("driver: rank %d: peer failure (%v); rendezvousing at generation %d (%d attempts left)",
			cfg.Rank, pd, gen, budget)
	}
}

// RunRank runs one rank of a distributed build to completion, recovering
// from peer failures by re-dialling the mesh at a bumped generation and
// auto-resuming from the newest complete checkpoint. It returns the built
// tree, or an error wrapping the root-cause comm.PeerDown once the
// recovery budget is exhausted. It is the batch-build body on top of the
// generic rendezvous Loop.
func RunRank(cfg Config) (*RankResult, error) {
	if cfg.RootName == "" {
		cfg.RootName = "root"
	}
	var tr *tree.Tree
	var stats *pclouds.Stats
	res, err := Loop(cfg.LoopConfig, func(c *tcpcomm.Comm, attempt int) error {
		bc := cfg.Build
		if attempt > 1 {
			// The strict Resume (if any) applied to the first attempt; a
			// recovery attempt must tolerate "no checkpoint yet".
			bc.Resume = false
		}
		t, s, err := pclouds.Build(bc, c, cfg.Store, cfg.RootName, cfg.Sample)
		if err != nil {
			return err
		}
		tr, stats = t, s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RankResult{Tree: tr, Stats: stats, Comm: res.Comm, Attempts: res.Attempts, Generation: res.Generation}, nil
}
