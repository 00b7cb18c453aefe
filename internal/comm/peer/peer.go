// Package peer is the failure protocol of the TCP mesh as one
// single-threaded state machine: which peer is open, finished, closed or
// failed, which failure is the rank's root cause, what is said to whom, and
// when a silent peer is declared down. It holds no socket, starts no
// goroutine and reads no clock; a driver (package tcpcomm) feeds it events
// under one lock, with the time in nanoseconds, and performs the actions it
// returns in order.
//
// Detection. With heartbeats on, every tick heartbeats every live peer;
// heartbeats reach no receive queue and no traffic counter. One rule
// declares a peer silent after PeerTimeout without data or heartbeat. It is
// judged on every tick with heartbeats on, so a rank blocked on a healthy
// peer still finds a silent third, and otherwise only while a receive is
// blocked on that peer, so an idle mesh without heartbeats is never
// declared. RecvTimeout bounds one blocked receive even while heartbeats
// arrive. A read error declares the peer, and so does a failed data send
// unless the local close is under way; a failed control send declares
// nothing. Frames queued before a failure are delivered before it surfaces.
//
// Attribution. A rank's first known failure is its root cause for good, and
// its first declaration is gossiped once to every live peer, written before
// any connection is closed or receiver woken, so TCP ordering puts it ahead
// of the reporter's teardown. Gossip about an open peer declares it here too.
//
// A finished peer is not a dead peer. The local close sends a bye on every
// live connection; the EOF after it declares nothing, and the frames before
// it are still delivered. Only a receive that needs a frame the peer never
// sent fails ("peer finished"), or a data send to it. That declaration is
// gossiped as finished, and a rank that hears gossip about a finished peer
// keeps the root cause but not the teardown: that peer's last frames may
// still be unread here.
//
// Generation fencing. Every hello carries a build generation, so a
// restarted rank is not poisoned by its pre-crash incarnation: Admit is the
// acceptor's verdict, Answer the dialer's reading of the ack.
package peer

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pclouds/internal/comm"
	"pclouds/internal/wire"
)

// Control tags, below the collective and user tags.
const (
	HeartbeatTag = -2 // liveness
	DownTag      = -3 // gossip: the down rank (u32 LE), then 1 if it had said goodbye
	ByeTag       = -5 // the goodbye before a clean close
)

// Op is what an Action asks of the driver.
type Op uint8

const (
	Send  Op = iota + 1 // write Frame to Peer, then report the outcome with Sent
	Close               // close Peer's connection
	Wake                // wake the receives blocked on Peer
	Arm                 // set the timer to fire at At
)

// Action is one step the driver performs.
type Action struct {
	Op    Op
	Peer  int
	Frame wire.Frame
	At    int64
}

// Config fixes one rank's protocol; times in nanoseconds, <= 0 is off.
type Config struct {
	Addrs       []string // by rank
	Heartbeats  bool     // ticks arrive, each sending heartbeats and judging silence
	PeerTimeout int64
	RecvTimeout int64
}

// Link is one peer's state as the driver sees it.
type Link struct {
	Finished bool  // its bye was read
	Closed   bool  // no more frames will arrive
	Err      error // the declared *comm.PeerDown or the local close error
	Queued   int   // frames in its receive queues
}

type link struct {
	lastSeen int64
	// queues holds a FIFO per tag, so a frame of one tag never wedges a
	// receive of another, as a bounded single inbox did.
	queues           map[int32][]wire.Frame
	finished, closed bool
	err              error
	waits            []wait
	waitID           int
}

type wait struct { // one receive blocked on a link
	id    int
	tag   int32
	since int64
}

func (l *link) live() bool { return !l.closed && !l.finished }

// Machine is one rank's protocol state. It is not safe for concurrent use.
type Machine struct {
	cfg     Config
	links   []*link        // by rank; nil at this rank and before Open
	root    *comm.PeerDown // the first failure, gossiped when it was noted
	closing bool
	stats   comm.Stats
}

// New returns the machine of one rank with no connection open.
func New(cfg Config) *Machine {
	return &Machine{cfg: cfg, links: make([]*link, len(cfg.Addrs))}
}

// Open registers the connection to rank q, made at now.
func (m *Machine) Open(q int, now int64) {
	m.links[q] = &link{lastSeen: now, queues: make(map[int32][]wire.Frame)}
}

// Received is a frame read from q at now.
func (m *Machine) Received(out []Action, now int64, q int, f wire.Frame) []Action {
	l := m.links[q]
	if l.closed {
		return out
	}
	l.lastSeen = now
	switch f.Tag {
	case ByeTag:
		l.finished = true
	case HeartbeatTag:
		m.stats.HeartbeatsRecv++
	case DownTag:
		if len(f.Payload) == 5 {
			out = m.reported(out, int(binary.LittleEndian.Uint32(f.Payload)), q, f.Payload[4] != 0)
		}
	default:
		l.queues[f.Tag] = append(l.queues[f.Tag], f)
		out = append(out, Action{Op: Wake, Peer: q})
	}
	return out
}

// ReadError is q's connection failing to read at now: a clean exit's EOF
// after a bye, otherwise q is down.
func (m *Machine) ReadError(out []Action, now int64, q int, err error) []Action {
	l := m.links[q]
	switch {
	case l.closed:
		return out
	case l.finished:
		return m.judge(m.shut(out, q), now)
	}
	return m.declare(out, q, fmt.Sprintf("connection failed: %v", err))
}

// Sent is the outcome of a send to q: every control frame's, and a data
// frame's when it failed.
func (m *Machine) Sent(out []Action, q int, tag int32, err error) []Action {
	if err == nil && tag == HeartbeatTag {
		m.stats.HeartbeatsSent++
	}
	if err != nil && tag >= 0 && !m.closing {
		out = m.declare(out, q, fmt.Sprintf("send failed: %v", err))
	}
	return out
}

// Tick is a heartbeat period ending at now: every silent peer is declared
// down, every other live peer gets a heartbeat.
func (m *Machine) Tick(out []Action, now int64) []Action {
	for q, l := range m.links {
		switch {
		case l == nil:
		case m.silent(l, now):
			out = m.declare(out, q, m.silence())
		case l.live():
			out = append(out, Action{Op: Send, Peer: q, Frame: wire.Frame{Tag: HeartbeatTag}})
		}
	}
	return out
}

// Block is a receive on (q, tag) that found nothing to take at now; it
// returns the id Unblock takes. A peer that can no longer serve the
// receive, or is past a deadline, is declared at once.
func (m *Machine) Block(out []Action, now int64, q int, tag int32) (int, []Action) {
	l := m.links[q]
	l.waitID++
	l.waits = append(l.waits, wait{id: l.waitID, tag: tag, since: now})
	return l.waitID, m.judge(out, now)
}

// Unblock ends the blocked receive id on q.
func (m *Machine) Unblock(q, id int) {
	l := m.links[q]
	l.waits = slices.DeleteFunc(l.waits, func(w wait) bool { return w.id == id })
}

// Timer is the timer firing at now.
func (m *Machine) Timer(out []Action, now int64) []Action { return m.judge(out, now) }

// Close is the local close: a bye to every live peer, then every link is
// closed, and receives to come fail with err unless a failure was declared.
func (m *Machine) Close(out []Action, err error) []Action {
	m.closing = true
	for q, l := range m.links {
		if l == nil {
			continue
		}
		if l.live() {
			out = append(out, Action{Op: Send, Peer: q, Frame: wire.Frame{Tag: ByeTag}})
		}
		if l.err == nil {
			l.err = err
		}
		out = m.shut(out, q)
	}
	return out
}

// Take dequeues the oldest tag frame from q. With none queued it returns
// q's failure, or ok false and a nil error: the receive must block.
func (m *Machine) Take(q int, tag int32) (f wire.Frame, ok bool, err error) {
	l := m.links[q]
	queue := l.queues[tag]
	switch len(queue) {
	case 0:
		return wire.Frame{}, false, l.err
	case 1:
		delete(l.queues, tag)
	default:
		l.queues[tag] = queue[1:]
	}
	return queue[0], true, nil
}

// Link returns q's state.
func (m *Machine) Link(q int) Link {
	l := m.links[q]
	n := 0
	for _, queue := range l.queues {
		n += len(queue)
	}
	return Link{Finished: l.finished, Closed: l.closed, Err: l.err, Queued: n}
}

// Root returns the first peer failure the rank learned of, nil before any.
func (m *Machine) Root() *comm.PeerDown { return m.root }

// Stats returns the control counters: heartbeats and peers declared down.
func (m *Machine) Stats() comm.Stats { return m.stats }

// silent is the one silence rule.
func (m *Machine) silent(l *link, now int64) bool {
	return m.cfg.PeerTimeout > 0 && l.live() && now-l.lastSeen >= m.cfg.PeerTimeout
}

func (m *Machine) silence() string {
	return fmt.Sprintf("silent for %s (no data or heartbeat)", seconds(m.cfg.PeerTimeout))
}

// judge declares every peer on which a blocked receive, with nothing queued
// for its tag, can never be served: the peer finished, is silent (judged
// here only without heartbeats), or the receive is past RecvTimeout. Then
// it arms the timer for the earliest deadline left.
func (m *Machine) judge(out []Action, now int64) []Action {
	var next int64
	soonest := func(t int64) {
		if next == 0 || t < next {
			next = t
		}
	}
	silence := !m.cfg.Heartbeats && m.cfg.PeerTimeout > 0
	for q, l := range m.links {
		for i := 0; l != nil && l.err == nil && i < len(l.waits); i++ {
			w := l.waits[i]
			switch {
			case len(l.queues[w.tag]) > 0:
			case l.closed:
				out = m.declare(out, q, fmt.Sprintf("peer finished: it closed its communicator and no tag %d frame is queued", w.tag))
			case silence && m.silent(l, now):
				out = m.declare(out, q, m.silence())
			case m.cfg.RecvTimeout > 0 && now-w.since >= m.cfg.RecvTimeout:
				out = m.declare(out, q, fmt.Sprintf("receive deadline: blocked %s waiting for tag %d", seconds(m.cfg.RecvTimeout), w.tag))
			default:
				if silence {
					soonest(l.lastSeen + m.cfg.PeerTimeout)
				}
				if m.cfg.RecvTimeout > 0 {
					soonest(w.since + m.cfg.RecvTimeout)
				}
			}
		}
	}
	if next != 0 {
		out = append(out, Action{Op: Arm, At: next})
	}
	return out
}

// declare fails q with cause unless it already failed: it counts the
// declaration and notes the root cause, which gossips, before it closes
// q's connection and wakes q's receivers.
func (m *Machine) declare(out []Action, q int, cause string) []Action {
	l := m.links[q]
	if l.err != nil {
		return out
	}
	pd := &comm.PeerDown{Rank: q, Addr: m.cfg.Addrs[q], Cause: cause}
	m.stats.PeerDowns++
	out = m.noteRoot(out, pd, l.finished)
	l.err = pd
	return m.shut(out, q)
}

// shut closes q's link, if still open, and wakes its receivers.
func (m *Machine) shut(out []Action, q int) []Action {
	if l := m.links[q]; !l.closed {
		l.closed = true
		out = append(out, Action{Op: Close, Peer: q})
	}
	return append(out, Action{Op: Wake, Peer: q})
}

// noteRoot keeps pd as the root cause if it is the rank's first failure,
// and gossips it to every other live peer: a rank gossips once, its root.
func (m *Machine) noteRoot(out []Action, pd *comm.PeerDown, finished bool) []Action {
	if m.root != nil {
		return out
	}
	m.root = pd
	payload := make([]byte, 5)
	binary.LittleEndian.PutUint32(payload, uint32(pd.Rank))
	if finished {
		payload[4] = 1
	}
	for q, l := range m.links {
		if l != nil && q != pd.Rank && l.live() {
			out = append(out, Action{Op: Send, Peer: q, Frame: wire.Frame{Tag: DownTag, Payload: payload}})
		}
	}
	return out
}

// reported is reporter's gossip that down failed. An open peer is declared
// here too; a finished one — by the reporter's word or by the bye read here
// — is only kept as the root cause and passed on.
func (m *Machine) reported(out []Action, down, reporter int, finished bool) []Action {
	if down < 0 || down >= len(m.links) || m.links[down] == nil {
		return out
	}
	cause := fmt.Sprintf("reported down by rank %d", reporter)
	if !finished && !m.links[down].finished {
		return m.declare(out, down, cause)
	}
	return m.noteRoot(out, &comm.PeerDown{Rank: down, Addr: m.cfg.Addrs[down], Cause: cause}, true)
}

// seconds renders nanoseconds as "1.5s".
func seconds(ns int64) string { return fmt.Sprintf("%gs", float64(ns)/1e9) }
