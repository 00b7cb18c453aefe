// Package cli is the one definition of the command lines of the build
// commands: the flag groups two or more of them share, declared once here,
// the two distributed rank commands' own flags, and Main, the rank-process
// lifecycle (signals, supervise-or-rank dispatch, child arguments, debug
// endpoint, live counters) that cmd/pcloudsd and cmd/pcloudsstream run.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pclouds/internal/clouds"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/driver"
	"pclouds/internal/obs"
	"pclouds/internal/ooc"
)

// Mesh is the mesh/recovery group of every distributed rank command: the
// rank's identity in the TCP mesh, the failure detector, and the
// supervisor's respawn budget.
type Mesh struct {
	Rank        int
	Addrs       string
	DialTimeout time.Duration
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	RecvTimeout time.Duration
	Supervise   bool
	MaxRestarts int
	Backoff     time.Duration
	Generation  uint
	DebugAddr   string
}

// Register declares the group's flags on fs.
func (m *Mesh) Register(fs *flag.FlagSet) {
	fs.IntVar(&m.Rank, "rank", -1, "this process's rank")
	fs.StringVar(&m.Addrs, "addrs", "", "comma-separated host:port per rank")
	fs.DurationVar(&m.DialTimeout, "dial-timeout", 30*time.Second, "mesh connection timeout")
	fs.DurationVar(&m.Heartbeat, "heartbeat", 500*time.Millisecond, "liveness frame interval (negative disables)")
	fs.DurationVar(&m.PeerTimeout, "peer-timeout", 10*time.Second, "declare a peer dead after this much silence (negative disables)")
	fs.DurationVar(&m.RecvTimeout, "recv-timeout", 0, "bound any single blocked receive, even with live heartbeats (0 disables)")
	fs.BoolVar(&m.Supervise, "supervise", false, "launch and monitor one child process per rank, respawning dead ranks")
	fs.IntVar(&m.MaxRestarts, "max-restarts", 5, "recovery attempts after a rank failure before giving up (negative disables)")
	fs.DurationVar(&m.Backoff, "restart-backoff", 500*time.Millisecond, "initial delay before a recovery attempt (doubles, capped at 30s)")
	fs.UintVar(&m.Generation, "generation", 1, "starting build generation (set by the supervisor on respawned ranks)")
	fs.StringVar(&m.DebugAddr, "debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. :6060)")
}

// addrs is -addrs split into one address per rank.
func (m *Mesh) addrs() []string { return strings.Split(m.Addrs, ",") }

// validate checks the rank identity: a supervisor needs at least two ranks
// and no -rank of its own; a rank needs -rank inside -addrs.
func (m *Mesh) validate() error {
	n := len(m.addrs())
	if m.Supervise {
		if n < 2 {
			return usagef("-supervise needs -addrs with at least 2 ranks")
		}
		if m.Rank >= 0 {
			return usagef("-rank and -supervise are mutually exclusive")
		}
		return nil
	}
	if m.Rank < 0 || m.Rank >= n {
		return usagef("need -rank in [0,%d)", n)
	}
	return nil
}

// loopConfig is the rendezvous loop the group describes: mesh identity,
// recovery knobs and the transport template. Main adds Stop, Logf, Vars
// and OnAttempt before handing it to the rank body.
func (m *Mesh) loopConfig() driver.LoopConfig {
	return driver.LoopConfig{
		Rank:        m.Rank,
		Addrs:       m.addrs(),
		Generation:  uint32(m.Generation),
		MaxRestarts: m.MaxRestarts,
		Backoff:     m.Backoff,
		Comm: tcpcomm.Config{
			Params:            costmodel.Zero(),
			DialTimeout:       m.DialTimeout,
			HeartbeatInterval: m.Heartbeat,
			PeerTimeout:       m.PeerTimeout,
			RecvTimeout:       m.RecvTimeout,
		},
	}
}

// Build is the split-finding group of the batch builds (cmd/pclouds and
// cmd/pcloudsd): its flags set Clouds' interval, depth and seed fields.
type Build struct {
	Clouds      clouds.Config
	SplitMethod string
}

// Register declares the group's flags on fs.
func (b *Build) Register(fs *flag.FlagSet) {
	c := &b.Clouds
	fs.IntVar(&c.QRoot, "qroot", 200, "intervals per numeric attribute at the root")
	fs.IntVar(&c.SmallNodeQ, "small", 10, "small-node switch threshold (intervals)")
	fs.StringVar(&b.SplitMethod, "split-method", "sse", "split-finding protocol: sse (exact), hist (fixed-bin histograms), or vote (top-k attribute voting)")
	fs.IntVar(&c.HistBins, "hist-bins", 0, "fixed bin count for -split-method hist/vote (0 = 16)")
	fs.IntVar(&c.VoteTopK, "vote-top-k", 0, "attributes each rank nominates for -split-method vote (0 = 2)")
	fs.IntVar(&c.MaxDepth, "maxdepth", 0, "depth cap (0 = unlimited)")
	fs.Int64Var(&c.Seed, "seed", 1, "sampling seed (must match across ranks)")
}

// Config is the SSE build the group describes, with the commands' fixed
// minimum node size of 2.
func (b *Build) Config() (clouds.Config, error) {
	c := b.Clouds
	c.Method, c.MinNodeSize = clouds.SSE, 2
	var err error
	c.Split, err = clouds.ParseSplitMethod(b.SplitMethod)
	return c, err
}

// Trace is the build observability group: the trace and per-level
// progress outputs.
type Trace struct {
	Out      string
	Progress string
}

// Register declares the group's flags on fs.
func (t *Trace) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Out, "trace-out", "", "write the parallel build's trace JSON to this path (distributed: this rank's trace; set on every rank)")
	fs.StringVar(&t.Progress, "progress-out", "", "write per-level progress records as JSON lines to this path")
}

// Profile is the runtime profiling group.
type Profile struct {
	CPU string
	Mem string
}

// Register declares the group's flags on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this path at exit")
}

// Start begins the CPU profile, if any, and returns the function that
// writes the heap profile, if any, and then stops the CPU profile. A heap
// profile failure is reported on stderr under name.
func (p *Profile) Start(name string) (stop func(), err error) {
	stopCPU := func() {}
	if p.CPU != "" {
		if stopCPU, err = obs.StartCPUProfile(p.CPU); err != nil {
			return nil, err
		}
	}
	return func() {
		if p.Mem != "" {
			if err := obs.WriteHeapProfile(p.Mem); err != nil {
				fmt.Fprintln(os.Stderr, name+":", err)
			}
		}
		stopCPU()
	}, nil
}

// IOPipeline is the async I/O switch of every command that builds over an
// out-of-core store.
type IOPipeline bool

// Register declares -io-pipeline on fs.
func (p *IOPipeline) Register(fs *flag.FlagSet) {
	fs.BoolVar((*bool)(p), "io-pipeline", false, "overlap disk I/O with computation (async read-ahead/write-behind)")
}

// Pipeline is the store pipeline the switch selects, at the default depth.
func (p IOPipeline) Pipeline() ooc.Pipeline { return ooc.Pipeline{Enabled: bool(p)} }
