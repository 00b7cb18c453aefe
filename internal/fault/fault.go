// Package fault is a deterministic, seed-driven fault injector for the
// distributed stack. It wraps the two I/O boundaries every build crosses —
// the comm.Communicator a rank talks through and the ooc.Backend its store
// persists to — and perturbs operations according to declarative rules:
// drop, delay or corrupt communication; error, short-read or slow down
// storage.
//
// Determinism is the point: the probabilistic gate hashes (seed, rule,
// rank, op, op-ordinal) rather than consulting a shared RNG, so whether a
// given operation faults depends only on the seed and that rank's own
// operation sequence — never on goroutine interleaving across ranks. A
// chaos test that fails replays identically under the same seed.
//
// The package is test infrastructure: only _test.go files import it, and
// no command or library path wraps a real communicator or backend with it.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pclouds/internal/comm"
)

// ErrInjected is the base error carried by every fault of Action Error;
// test assertions use errors.Is against it.
var ErrInjected = errors.New("fault: injected error")

// Op identifies the operation being intercepted.
type Op int

const (
	// OpSend is a point-to-point or collective frame leaving a rank.
	OpSend Op = iota
	// OpRecv is a blocking receive about to be posted.
	OpRecv
	// OpCreate truncates/creates a store file.
	OpCreate
	// OpAppend opens a store file for appending.
	OpAppend
	// OpOpen opens a store file for reading.
	OpOpen
	// OpRead is one byte-level read on an open store stream.
	OpRead
	// OpWrite is one byte-level write on an open store stream.
	OpWrite
	// OpRemove deletes a store file.
	OpRemove
	numOps
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpCreate:
		return "create"
	case OpAppend:
		return "append"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Action is what happens to a matched operation.
type Action int

const (
	// Drop silently discards a sent frame (OpSend only): the sender sees
	// success, the receiver sees nothing — the classic lost message.
	Drop Action = iota
	// Delay sleeps Rule.Delay before performing the operation.
	Delay
	// Corrupt flips one bit of the payload before transmission (OpSend
	// only); the wire checksum turns it into a receive-side framing error.
	Corrupt
	// Error fails the operation with ErrInjected.
	Error
	// ShortRead makes a byte-level read return fewer bytes than asked
	// (OpRead only) — legal io.Reader behaviour that sloppy callers
	// mishandle.
	ShortRead
	// Slow sleeps Rule.Delay before a byte-level storage operation,
	// modelling a degraded disk rather than a broken one.
	Slow
	// Truncate makes a byte-level write persist only a prefix of the
	// buffer while reporting full success (OpWrite only) — the torn write
	// a crash or a lying disk leaves behind. Only a verifying layer above
	// can notice.
	Truncate
)

func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Error:
		return "error"
	case ShortRead:
		return "short-read"
	case Slow:
		return "slow"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// AnyRank and AnyClass are wildcards for Rule matching.
const (
	AnyRank  = -1
	AnyClass = comm.OpClass(-1)
)

// Rule selects a subset of operations and an action to apply to them. Zero
// values are permissive: a zero Rule{Op: OpSend} drops nothing only because
// Action's zero value is Drop with Prob 0 — always set Prob or the
// After/Every/Count window explicitly.
type Rule struct {
	// Rank restricts the rule to one rank (AnyRank matches all).
	Rank int
	// Op is the intercepted operation kind.
	Op Op
	// Class restricts comm rules to one traffic class (AnyClass matches
	// all; ignored for storage ops).
	Class comm.OpClass
	// Action is the fault applied.
	Action Action
	// After skips the first After matching operations (per rank and op).
	After int64
	// Every fires on every Every-th matching operation past After
	// (0 or 1 = every one).
	Every int64
	// Count caps total firings of this rule (0 = unlimited).
	Count int64
	// Prob gates each candidate firing by a deterministic pseudo-random
	// draw in [0,1). 0 means "no probabilistic gate" (always fire when the
	// window matches); use a tiny positive value for "almost never".
	Prob float64
	// Delay is the sleep for Delay/Slow actions.
	Delay time.Duration
}

func (r Rule) matches(rank int, op Op, class comm.OpClass) bool {
	if r.Op != op {
		return false
	}
	if r.Rank != AnyRank && r.Rank != rank {
		return false
	}
	if (op == OpSend || op == OpRecv) && r.Class != AnyClass && r.Class != class {
		return false
	}
	return true
}

// Stats counts the faults actually injected.
type Stats struct {
	Drops       int64
	Delays      int64
	Corruptions int64
	Errors      int64
	ShortReads  int64
	Slows       int64
	Truncations int64
}

// Total is the number of injected faults of any kind.
func (s Stats) Total() int64 {
	return s.Drops + s.Delays + s.Corruptions + s.Errors + s.ShortReads + s.Slows + s.Truncations
}

func (s Stats) String() string {
	return fmt.Sprintf("drops %d, delays %d, corruptions %d, errors %d, short-reads %d, slows %d, truncations %d",
		s.Drops, s.Delays, s.Corruptions, s.Errors, s.ShortReads, s.Slows, s.Truncations)
}

type opKey struct {
	rank int
	op   Op
}

// Injector evaluates rules against a stream of operations. One Injector
// may be shared by all ranks of an in-process group (it locks internally);
// decisions depend only on (seed, rule, rank, op, per-rank ordinal), so
// sharing does not couple ranks' fault sequences.
type Injector struct {
	seed  uint64
	rules []Rule

	mu     sync.Mutex
	counts map[opKey]int64
	fired  []int64
	stats  Stats
}

// NewInjector builds an injector over the given rules.
func NewInjector(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:   seed,
		rules:  rules,
		counts: make(map[opKey]int64),
		fired:  make([]int64, len(rules)),
	}
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide records one operation and returns the first rule that fires on it,
// or nil. The ordinal driving After/Every/Prob is the count of this (rank,
// op) pair only, so rank 3's faults are unaffected by how fast rank 1 runs.
func (in *Injector) decide(rank int, op Op, class comm.OpClass) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := opKey{rank, op}
	in.counts[k]++
	n := in.counts[k]
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(rank, op, class) {
			continue
		}
		if n <= r.After {
			continue
		}
		if every := r.Every; every > 1 && (n-r.After-1)%every != 0 {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && u01(in.seed, uint64(i), uint64(rank), uint64(op), uint64(n)) >= r.Prob {
			continue
		}
		in.fired[i]++
		switch r.Action {
		case Drop:
			in.stats.Drops++
		case Delay:
			in.stats.Delays++
		case Corrupt:
			in.stats.Corruptions++
		case Error:
			in.stats.Errors++
		case ShortRead:
			in.stats.ShortReads++
		case Slow:
			in.stats.Slows++
		case Truncate:
			in.stats.Truncations++
		}
		return r
	}
	return nil
}

// pick maps the decision coordinates to a deterministic integer in [0, n),
// seeding from the injector: corruption targets (which bit of which byte)
// replay identically under the same seed.
func (in *Injector) pick(n int, parts ...uint64) int {
	return int(u01(append([]uint64{in.seed}, parts...)...) * float64(n))
}

// u01 maps the decision coordinates to a deterministic uniform draw in
// [0,1) via splitmix64-style avalanche mixing.
func u01(parts ...uint64) float64 {
	var x uint64
	for _, p := range parts {
		x = mix(x ^ p)
	}
	return float64(x>>11) / float64(1<<53)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func injectedErr(rank int, op Op) error {
	return fmt.Errorf("%w: rank %d %s", ErrInjected, rank, op)
}
