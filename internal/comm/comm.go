// Package comm is the message-passing substrate of pCLOUDS: a small,
// MPI-like interface (ranks, tagged point-to-point messages) with the
// collective operations the paper's algorithms use — barrier, broadcast,
// gather, all-gather (all-to-all broadcast), all-to-all personalised
// exchange, global combine (all-reduce), prefix sum, and min-reduction with
// location (MinLoc).
//
// Two transports implement the interface: an in-process channel mesh
// (NewGroup, in this package) where each rank is a goroutine, and a TCP
// socket transport (package tcpcomm) for genuinely distributed runs. The
// channel transport also drives the simulated cost model of package
// costmodel: each message charges ts + m·tw and carries a timestamp that
// aligns the receiver's simulated clock, so collective costs reproduce
// Table 1 of the paper.
//
// Failure semantics match the MPI programs the paper describes: the group
// is a static gang with no fault tolerance. If a rank returns an error and
// stops calling collectives, its peers' pending Recv calls either fail
// (TCP: connection teardown surfaces an error) or block (channel mesh) —
// a deployment is expected to abort the whole job on any rank error, as
// cmd/pcloudsd does. Protocol errors (tag mismatches, corrupt frames,
// invalid ranks) are returned as errors rather than matched loosely, so
// desynchronised gangs fail fast instead of computing garbage.
package comm

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pclouds/internal/costmodel"
)

// PeerDown reports that a member of the gang has been declared failed: its
// process died, its connection broke, or it stayed silent past the failure
// detector's deadline. Transports return it (wrapped) from Recv and the
// collectives built on Recv, so a blocked rank gets a prompt, attributable
// error naming the dead peer instead of hanging forever.
type PeerDown struct {
	// Rank is the failed peer's id in the group.
	Rank int
	// Addr is the peer's transport address ("" for in-process transports).
	Addr string
	// Cause describes how the failure was detected (connection error,
	// heartbeat silence, receive deadline, ...).
	Cause string
}

func (e *PeerDown) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("comm: peer rank %d down: %s", e.Rank, e.Cause)
	}
	return fmt.Sprintf("comm: peer rank %d (%s) down: %s", e.Rank, e.Addr, e.Cause)
}

// AsPeerDown unwraps err to the PeerDown it carries, if any.
func AsPeerDown(err error) (*PeerDown, bool) {
	var pd *PeerDown
	if errors.As(err, &pd) {
		return pd, true
	}
	return nil, false
}

// Tag identifies the protocol context of a message. Collectives reserve the
// tags below; applications should use tags >= TagUser.
type Tag int

const (
	tagBarrier Tag = iota + 1
	tagBroadcast
	tagGather
	tagAllGather
	tagAllToAll
	tagReduce
	tagScan
	tagMinLoc
	// TagUser is the first tag free for application messages.
	TagUser Tag = 100
)

// OpClass buckets traffic by the collective primitive (or point-to-point
// application messaging) that produced it, for the per-collective breakdown
// of Stats. Every reserved collective tag maps to its own class; user tags
// map to OpP2P.
type OpClass int

const (
	OpP2P OpClass = iota
	OpBarrier
	OpBroadcast
	OpGather
	OpAllGather
	OpAllToAll
	OpReduce
	OpScan
	OpMinLoc
	// NumOpClasses sizes per-class arrays.
	NumOpClasses
)

func (cl OpClass) String() string {
	switch cl {
	case OpP2P:
		return "p2p"
	case OpBarrier:
		return "barrier"
	case OpBroadcast:
		return "bcast"
	case OpGather:
		return "gather"
	case OpAllGather:
		return "allgather"
	case OpAllToAll:
		return "alltoall"
	case OpReduce:
		return "reduce"
	case OpScan:
		return "scan"
	case OpMinLoc:
		return "minloc"
	default:
		return fmt.Sprintf("OpClass(%d)", int(cl))
	}
}

// ClassOf maps a message tag to its traffic class.
func ClassOf(tag Tag) OpClass {
	switch tag {
	case tagBarrier:
		return OpBarrier
	case tagBroadcast:
		return OpBroadcast
	case tagGather:
		return OpGather
	case tagAllGather:
		return OpAllGather
	case tagAllToAll:
		return OpAllToAll
	case tagReduce:
		return OpReduce
	case tagScan:
		return OpScan
	case tagMinLoc:
		return OpMinLoc
	default:
		return OpP2P
	}
}

// CallCounter is implemented by communicators that can attribute collective
// invocations (not just their messages) to an OpClass. The collectives in
// this package count one call per invocation on every participating rank.
type CallCounter interface {
	CountCall(OpClass)
}

func countCall(c Communicator, cl OpClass) {
	if oc, ok := c.(CallCounter); ok {
		oc.CountCall(cl)
	}
}

// Communicator is the per-rank handle to a process group. Implementations
// must deliver messages between a fixed (from, to) pair in FIFO order.
// Send blocks at most until the message is buffered; Recv blocks until the
// next message from the given rank arrives and fails if its tag differs
// from the expectation (a protocol error, not a matching feature).
type Communicator interface {
	// Rank returns this process's id in [0, Size()).
	Rank() int
	// Size returns the number of processes in the group.
	Size() int
	// Send delivers data to rank to with the given tag. The data slice is
	// not retained; implementations copy or fully transmit it before
	// returning.
	Send(to int, tag Tag, data []byte) error
	// Recv returns the next message from rank from, verifying its tag.
	Recv(from int, tag Tag) ([]byte, error)
	// Clock returns this rank's simulated clock, or nil if the transport
	// does not simulate time.
	Clock() *costmodel.Clock
	// Stats returns cumulative message statistics for this rank.
	Stats() Stats
}

// OpStats counts one traffic class at one rank. WaitSeconds is the wall
// time the rank spent blocked in Recv waiting for messages of this class —
// the per-collective blocked-wait breakdown the phase reports surface.
type OpStats struct {
	Calls     int64
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	WaitSec   float64
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) {
	s.Calls += o.Calls
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	s.WaitSec += o.WaitSec
}

// Stats counts traffic at one rank. The aggregate fields count every
// message; Ops breaks the same traffic down per collective primitive.
type Stats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	// WaitSec is the total wall time spent blocked in Recv.
	WaitSec float64
	// Fault-tolerance counters (nonzero only on transports with failure
	// detection, i.e. TCP): out-of-band heartbeat frames exchanged, peers
	// this rank has declared down, and connection attempts fenced off because they
	// carried a stale build generation. Heartbeats are control traffic and
	// are deliberately excluded from the message/byte counters above.
	HeartbeatsSent    int64
	HeartbeatsRecv    int64
	PeerDowns         int64
	GenerationRejects int64
	// Ops is the per-collective breakdown, indexed by OpClass.
	Ops [NumOpClasses]OpStats
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	s.WaitSec += o.WaitSec
	s.HeartbeatsSent += o.HeartbeatsSent
	s.HeartbeatsRecv += o.HeartbeatsRecv
	s.PeerDowns += o.PeerDowns
	s.GenerationRejects += o.GenerationRejects
	for i := range s.Ops {
		s.Ops[i].Add(o.Ops[i])
	}
}

// Sub returns s - o field-wise: the traffic between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		MsgsSent:          s.MsgsSent - o.MsgsSent,
		BytesSent:         s.BytesSent - o.BytesSent,
		MsgsRecv:          s.MsgsRecv - o.MsgsRecv,
		BytesRecv:         s.BytesRecv - o.BytesRecv,
		WaitSec:           s.WaitSec - o.WaitSec,
		HeartbeatsSent:    s.HeartbeatsSent - o.HeartbeatsSent,
		HeartbeatsRecv:    s.HeartbeatsRecv - o.HeartbeatsRecv,
		PeerDowns:         s.PeerDowns - o.PeerDowns,
		GenerationRejects: s.GenerationRejects - o.GenerationRejects,
	}
	for i := range d.Ops {
		d.Ops[i] = OpStats{
			Calls:     s.Ops[i].Calls - o.Ops[i].Calls,
			MsgsSent:  s.Ops[i].MsgsSent - o.Ops[i].MsgsSent,
			BytesSent: s.Ops[i].BytesSent - o.Ops[i].BytesSent,
			MsgsRecv:  s.Ops[i].MsgsRecv - o.Ops[i].MsgsRecv,
			BytesRecv: s.Ops[i].BytesRecv - o.Ops[i].BytesRecv,
			WaitSec:   s.Ops[i].WaitSec - o.Ops[i].WaitSec,
		}
	}
	return d
}

// Scope attributes traffic to one region of code: it snapshots a
// communicator's counters at construction, and Delta returns everything the
// rank sent and received since. Purely observational — it never alters the
// counters it reads.
type Scope struct {
	c     Communicator
	start Stats
}

// NewScope opens a scope at the communicator's current counters.
func NewScope(c Communicator) *Scope { return &Scope{c: c, start: c.Stats()} }

// Delta returns the traffic since the scope was opened.
func (s *Scope) Delta() Stats { return s.c.Stats().Sub(s.start) }

func (s Stats) String() string {
	return fmt.Sprintf("sent %d msgs/%d B, recv %d msgs/%d B", s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
}

// Table renders the per-collective breakdown as an aligned text table, one
// row per traffic class that saw any activity, plus a totals row.
func (s Stats) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %14s %10s %14s %12s\n",
		"collective", "calls", "sends", "bytes-sent", "recvs", "bytes-recv", "wait-s")
	for cl := OpClass(0); cl < NumOpClasses; cl++ {
		op := s.Ops[cl]
		if op == (OpStats{}) {
			continue
		}
		fmt.Fprintf(&b, "%-10s %8d %10d %14d %10d %14d %12.6f\n",
			cl, op.Calls, op.MsgsSent, op.BytesSent, op.MsgsRecv, op.BytesRecv, op.WaitSec)
	}
	fmt.Fprintf(&b, "%-10s %8s %10d %14d %10d %14d %12.6f\n",
		"total", "", s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv, s.WaitSec)
	if s.HeartbeatsSent != 0 || s.HeartbeatsRecv != 0 || s.PeerDowns != 0 || s.GenerationRejects != 0 {
		fmt.Fprintf(&b, "fault: heartbeats %d sent/%d recv, peers down %d, generation rejects %d\n",
			s.HeartbeatsSent, s.HeartbeatsRecv, s.PeerDowns, s.GenerationRejects)
	}
	return b.String()
}

// RecordSend counts one outgoing message in the aggregate and per-class
// counters. Transports call it with the message's tag.
func (s *Stats) RecordSend(tag Tag, bytes int) {
	s.MsgsSent++
	s.BytesSent += int64(bytes)
	op := &s.Ops[ClassOf(tag)]
	op.MsgsSent++
	op.BytesSent += int64(bytes)
}

// RecordRecv counts one incoming message plus the wall time the receiver
// spent blocked waiting for it.
func (s *Stats) RecordRecv(tag Tag, bytes int, waitSec float64) {
	s.MsgsRecv++
	s.BytesRecv += int64(bytes)
	s.WaitSec += waitSec
	op := &s.Ops[ClassOf(tag)]
	op.MsgsRecv++
	op.BytesRecv += int64(bytes)
	op.WaitSec += waitSec
}

// message is an in-flight channel-transport message.
type message struct {
	tag    Tag
	data   []byte
	sentAt float64 // sender's simulated clock at send completion
}

// group is the shared state of a channel-transport process group.
type group struct {
	size   int
	params costmodel.Params
	// chans[from*size+to] carries messages from rank from to rank to.
	chans []chan message
}

// ChannelComm is the in-process transport: p ranks connected by buffered
// channels, one goroutine per rank. It simulates Table 1 message costs on
// per-rank clocks.
type ChannelComm struct {
	g     *group
	rank  int
	clock *costmodel.Clock
	stats Stats
}

// ChanBuffer is the per-pair channel buffer depth. It bounds the number of
// outstanding messages between one (from, to) pair; collectives never exceed
// a handful, and application protocols in this repo exchange strictly
// alternating request/response traffic.
const ChanBuffer = 1024

// NewGroup creates a p-rank channel-transport group with the given cost
// parameters (use costmodel.Zero() to disable simulated timing).
func NewGroup(p int, params costmodel.Params) []*ChannelComm {
	if p < 1 {
		panic("comm: group size must be >= 1")
	}
	g := &group{size: p, params: params, chans: make([]chan message, p*p)}
	for i := range g.chans {
		g.chans[i] = make(chan message, ChanBuffer)
	}
	comms := make([]*ChannelComm, p)
	for r := 0; r < p; r++ {
		comms[r] = &ChannelComm{g: g, rank: r, clock: costmodel.NewClock()}
	}
	return comms
}

// Rank implements Communicator.
func (c *ChannelComm) Rank() int { return c.rank }

// Size implements Communicator.
func (c *ChannelComm) Size() int { return c.g.size }

// Clock implements Communicator.
func (c *ChannelComm) Clock() *costmodel.Clock { return c.clock }

// Stats implements Communicator.
func (c *ChannelComm) Stats() Stats { return c.stats }

// CountCall implements CallCounter.
func (c *ChannelComm) CountCall(cl OpClass) { c.stats.Ops[cl].Calls++ }

// Send implements Communicator. It charges ts + m·tw to the sender's clock
// and stamps the message so the receiver can align.
func (c *ChannelComm) Send(to int, tag Tag, data []byte) error {
	if to < 0 || to >= c.g.size {
		return fmt.Errorf("comm: send to invalid rank %d (size %d)", to, c.g.size)
	}
	if to == c.rank {
		return fmt.Errorf("comm: rank %d sending to itself", c.rank)
	}
	cp := append([]byte(nil), data...)
	c.clock.Advance(c.g.params.MessageCost(len(cp)))
	c.stats.RecordSend(tag, len(cp))
	c.g.chans[c.rank*c.g.size+to] <- message{tag: tag, data: cp, sentAt: c.clock.Time()}
	return nil
}

// Recv implements Communicator. The receiver's clock aligns to the message's
// arrival time (sender completion; the transfer cost was charged there).
func (c *ChannelComm) Recv(from int, tag Tag) ([]byte, error) {
	if from < 0 || from >= c.g.size {
		return nil, fmt.Errorf("comm: recv from invalid rank %d (size %d)", from, c.g.size)
	}
	if from == c.rank {
		return nil, fmt.Errorf("comm: rank %d receiving from itself", c.rank)
	}
	// Time the blocked wait only when the message has not yet arrived, so
	// the fast path stays free of clock reads.
	var m message
	var wait float64
	select {
	case m = <-c.g.chans[from*c.g.size+c.rank]:
	default:
		t0 := time.Now()
		m = <-c.g.chans[from*c.g.size+c.rank]
		wait = time.Since(t0).Seconds()
	}
	if m.tag != tag {
		return nil, fmt.Errorf("comm: rank %d: tag mismatch from rank %d: got %d, want %d", c.rank, from, m.tag, tag)
	}
	c.clock.AlignTo(m.sentAt)
	c.stats.RecordRecv(tag, len(m.data), wait)
	return m.data, nil
}

// Run starts fn on every rank of a fresh p-rank channel group and waits for
// all of them; it returns the first error (by rank order). A convenience
// used throughout the tests, examples and experiment harness.
func Run(p int, params costmodel.Params, fn func(c *ChannelComm) error) error {
	comms := NewGroup(p, params)
	errs := make([]error, p)
	done := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			errs[r] = fn(comms[r])
			done <- r
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxClock returns the maximum simulated time over a group's ranks — the
// simulated makespan.
func MaxClock(comms []*ChannelComm) float64 {
	max := 0.0
	for _, c := range comms {
		if t := c.Clock().Time(); t > max {
			max = t
		}
	}
	return max
}
