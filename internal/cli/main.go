package cli

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

	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/driver"
	"pclouds/internal/obs"
)

// Command is one distributed rank command: the mesh group plus its own
// flags, the checks on them, and the rank body.
type Command struct {
	// Name prefixes error reports and names the live expvar keys
	// <Name>.comm and <Name>.driver.
	Name string
	Mesh *Mesh
	// Flags declares the command's own flags; Main declares the mesh group.
	Flags func(fs *flag.FlagSet)
	// Validate checks the parsed flags and returns a usageError on a bad
	// combination. It runs in every process, the supervisor before any
	// child starts included.
	Validate func() error
	// Private maps a flag to the rule that makes its value private to one
	// child rank; the supervisor forwards every other set flag verbatim.
	Private map[string]func(value string, rank int) string
	// Run is one rank's body.
	Run func(r *Rank) error
}

// Rank is what the rank body gets: the rendezvous loop, with Stop closed
// by the first signal, live counters wired to Vars and OnAttempt, and Logf
// on stderr.
type Rank struct {
	driver.LoopConfig
	phase *atomic.Value
}

// SetPhase names what the rank is doing, for the signal report.
func (r *Rank) SetPhase(p string) { r.phase.Store(p) }

// usageError is a flag-level mistake, found before any mesh connects or
// child starts; the command exits 2.
type usageError struct {
	err error
	// parsed marks a flag-parse failure, which the flag package has
	// already printed together with the flag list.
	parsed bool
}

func (e *usageError) Error() string { return "usage: " + e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// usagef returns a usageError.
func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// supervise launches the children; a variable so tests can observe the
// supervisor's configuration without starting processes.
var supervise = driver.Supervise

// Exit runs Main on the process's arguments and exits: 0 on success and
// for -h, 2 on a usage error, 1 on any other failure.
func Exit(c *Command) {
	err := Main(c, os.Args[1:])
	var ue *usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, &ue):
		if !ue.parsed {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		}
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		os.Exit(1)
	}
}

// Main parses args, checks them, and then either supervises one child per
// rank or runs this process's rank. The first SIGINT/SIGTERM closes the
// rank's Stop (or the supervisor's), so the error path runs with every
// deferred cleanup and the report names the interrupted phase; a second
// signal exits at once.
func Main(c *Command, args []string) error {
	fs, err := c.parse(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{err: err, parsed: true}
	}
	if err := c.Mesh.validate(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}

	var phase atomic.Value
	phase.Store("startup")
	stop, release := watchSignals(c.Name, &phase)
	defer release()
	if c.Mesh.Supervise {
		phase.Store("supervise")
		return c.supervise(fs, stop)
	}
	return c.rank(stop, &phase)
}

// watchSignals closes stop on the first SIGINT/SIGTERM and exits the
// process on the second; release detaches it.
func watchSignals(name string, phase *atomic.Value) (stop <-chan struct{}, release func()) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stopc, done := make(chan struct{}), make(chan struct{})
	go func() {
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "%s: %v during %s phase: shutting down (send again to force exit)\n", name, s, phase.Load())
			close(stopc)
		case <-done:
			return
		}
		select {
		case <-sigc:
			fmt.Fprintf(os.Stderr, "%s: second signal, exiting immediately\n", name)
			os.Exit(130)
		case <-done:
		}
	}()
	return stopc, func() {
		signal.Stop(sigc)
		close(done)
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// supervise re-executes this binary once per rank and respawns dead ranks
// at bumped generations until the restart budget runs out.
func (c *Command) supervise(fs *flag.FlagSet, stop <-chan struct{}) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("supervise: locate own binary: %w", err)
	}
	err = supervise(driver.SupervisorConfig{
		Ranks:       len(c.Mesh.addrs()),
		Generation:  uint32(c.Mesh.Generation),
		MaxRestarts: c.Mesh.MaxRestarts,
		Backoff:     c.Mesh.Backoff,
		Stop:        stop,
		Logf:        logf,
		Command: func(rank int, gen uint32) *exec.Cmd {
			cmd := exec.Command(self, c.childArgs(fs, rank, gen)...)
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

// parse declares the mesh group and the command's flags on a fresh
// FlagSet and parses args into it.
func (c *Command) parse(args []string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	c.Mesh.Register(fs)
	c.Flags(fs)
	return fs, fs.Parse(args)
}

// ChildArgs parses args as this command's flags and returns the arguments
// a supervisor started with them gives child rank at generation gen.
func (c *Command) ChildArgs(args []string, rank int, gen uint32) ([]string, error) {
	fs, err := c.parse(args)
	if err != nil {
		return nil, err
	}
	return c.childArgs(fs, rank, gen), nil
}

// childArgs rebuilds this invocation's explicitly-set flags for one child
// rank, replacing the supervision flags with the child's identity and
// applying the command's rank-private path rules.
func (c *Command) childArgs(fs *flag.FlagSet, rank int, gen uint32) []string {
	var args []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "supervise", "rank", "generation":
			// Replaced below.
		case "debug-addr":
			// One address cannot serve every child; debug endpoints need
			// per-rank invocations.
		default:
			v := f.Value.String()
			if private := c.Private[f.Name]; private != nil {
				v = private(v, rank)
			}
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return append(args, fmt.Sprintf("-rank=%d", rank), fmt.Sprintf("-generation=%d", gen))
}

// rankFile makes a file path rank-private: "trace.json" -> "trace.rank2.json".
func rankFile(path string, rank int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.rank%d%s", strings.TrimSuffix(path, ext), rank, ext)
}

// rankDir makes a directory rank-private: "work" -> "work/rank2".
func rankDir(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d", rank))
}

// rank runs this process's rank: the debug endpoint, the live comm and
// recovery counters (expvar and the metrics registry, following every
// recovery attempt's fresh mesh), then the body.
func (c *Command) rank(stop <-chan struct{}, phase *atomic.Value) error {
	r := &Rank{LoopConfig: c.Mesh.loopConfig(), phase: phase}
	r.Stop, r.Logf, r.Vars = stop, logf, &driver.Vars{}
	if c.Mesh.DebugAddr != "" {
		bound, err := obs.ServeDebug(c.Mesh.DebugAddr)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rank %d: debug endpoint on http://%s/debug/pprof\n", r.Rank, bound)
	}
	var live atomic.Pointer[tcpcomm.Comm]
	r.OnAttempt = live.Store
	liveStats := func() comm.Stats {
		if lc := live.Load(); lc != nil {
			return lc.Stats()
		}
		return comm.Stats{}
	}
	reg := obs.DefaultRegistry()
	obs.Publish(c.Name+".comm", func() any { return liveStats() })
	obs.RegisterCommStats(reg, liveStats)
	obs.Publish(c.Name+".driver", r.Vars.Snapshot)
	r.Vars.Register(reg, r.Rank)
	return c.Run(r)
}
