// Package tcpcomm implements comm.Communicator over TCP sockets — the
// hand-rolled replacement for MPI's runtime in genuinely distributed runs.
// Every rank knows the full address list; rank i accepts connections from
// lower ranks and dials higher ranks, forming a full mesh. Frames use the
// protocol of package wire; a hello frame carrying the peer rank
// authenticates each connection.
//
// # Failure detection
//
// Unlike the static MPI gang of the paper, the transport detects dead and
// wedged peers instead of hanging forever:
//
//   - Every rank sends lightweight heartbeat frames on an out-of-band tag to
//     every peer (Config.HeartbeatInterval). Heartbeats are control traffic:
//     they prove the peer process is alive but never appear in the
//     message/byte statistics or the per-tag receive queues.
//   - A peer that has sent nothing — data or heartbeat — for
//     Config.PeerTimeout is declared down with a comm.PeerDown naming the
//     rank, its address and the silence as cause. With heartbeats enabled
//     the check runs continuously in the heartbeat loop; otherwise it fires
//     from any Recv blocked on the silent peer. A broken connection (peer
//     process died, network partition) surfaces the same way as soon as the
//     read side errors.
//   - Failures cascade: ranks that detect a dead peer abort and close their
//     own connections, so their peers then see secondary connection
//     failures. To keep the error actionable, the first comm.PeerDown
//     observed by a rank wins attribution — later failures on other
//     connections are reported as wrapping that root cause.
//   - Config.RecvTimeout optionally bounds any single blocked Recv even
//     while heartbeats keep arriving, catching peers that are alive but
//     wedged (or injected frame loss).
//   - A failed write on an open connection declares the peer down: a
//     partly written frame cannot be retried without desynchronising the
//     stream, so every send error surfaces on its first attempt.
//
// Once a peer is declared down every pending and future Recv from it fails
// promptly with the same comm.PeerDown; the deployment is expected to abort
// or checkpoint-restart the job, as cmd/pcloudsd does.
//
// A peer that finished is not a peer that died. Close says goodbye with a
// bye control frame before it shuts its connections, and the EOF that
// follows a bye declares nothing: no PeerDown, no gossip, no other peer
// touched — a rank still waiting on a healthy peer is not poisoned by the
// clean exit of a third. Frames the finished peer sent before its goodbye
// are still delivered. Only a Recv that needs a frame the finished peer
// never sent, or a Send to it, fails — with a comm.PeerDown (cause "peer
// finished") the caller can recover from. That declaration is gossiped so a
// cascade still names its root, but the gossip says the peer finished, and
// a rank that hears it (or hears any report about a peer whose bye it has
// read) only remembers the root cause: it never cuts the finished peer's
// connection, which it may not have read to the end yet.
//
// # Generation fencing
//
// Restarting a crashed rank raises a hazard the static gang never had: a
// not-quite-dead pre-crash incarnation (or its lingering connections) can
// reach the new mesh and poison it. Every process therefore carries a build
// generation (Config.Generation); the hello frame sends it and is answered
// with an explicit ack. A hello whose generation is *older* than the
// acceptor's is answered with a reject naming the acceptor's generation and
// the connection is dropped (counted in Stats.GenerationRejects) — without
// consuming the mesh slot the real peer will fill. A hello *newer* than the
// acceptor's means the acceptor itself is the stale incarnation: it rejects
// too, but then fails its own bring-up with a GenerationError so the caller
// can adopt the newer generation and re-rendezvous. On the dialing side a
// reject from an older peer is retried within the dial budget (that stale
// peer is about to be fenced and respawned at our generation), while a
// reject from a newer peer surfaces immediately as a GenerationError
// instead of burning the whole dial deadline. After bring-up a doorman
// goroutine keeps answering — and rejecting — late hellos until Close, so a
// stale dialer fails fast instead of wedging on a never-accepted
// connection.
package tcpcomm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/wire"
)

// helloTag marks the connection-setup frame; it is outside the collective
// and user tag spaces.
const helloTag = -1

// heartbeatTag marks out-of-band liveness frames; they are consumed by the
// reader loop and never enter the per-tag receive queues.
const heartbeatTag = -2

// downTag marks out-of-band failure gossip: the 4-byte payload names a rank
// the sender has declared down. Gossip makes root-cause attribution
// deterministic during a cascade — a peer learns "rank 3 died" from the
// rank that saw it, before that rank's own teardown breaks the connection.
const downTag = -3

// byeTag is the goodbye Close sends on every live connection before
// shutting it: the EOF that follows is a clean exit, not a death.
const byeTag = -5

// helloAckTag answers a hello frame; the 8-byte payload is
// status u32 LE | acceptor-generation u32 LE. Generation fencing lives in
// this exchange — see the package doc.
const helloAckTag = -4

// Hello ack statuses.
const (
	ackOK              = 0 // generations match; the connection is registered
	ackWrongGeneration = 1 // generation mismatch; payload names the acceptor's
	ackDuplicateRank   = 2 // same generation, but the rank slot is already held
)

// ErrClosed is the error observed by a Recv that was blocked (or issued)
// after Close tore the communicator down locally. It is distinct from
// comm.PeerDown: the local process decided to stop, no peer failed.
var ErrClosed = errors.New("tcpcomm: communicator closed")

// GenerationError reports a hello exchange that failed because a peer is at
// a newer build generation: this process is the stale incarnation. Retrying
// at the same generation can never succeed — the caller must adopt the
// newer generation (re-rendezvous) or exit.
type GenerationError struct {
	Peer   int    // rank whose generation disagreed
	Ours   uint32 // this process's generation
	Theirs uint32 // the peer's newer generation
}

func (e *GenerationError) Error() string {
	return fmt.Sprintf("tcpcomm: rank %d is at generation %d, ours is %d: this incarnation is stale and fenced",
		e.Peer, e.Theirs, e.Ours)
}

// AsGenerationError reports whether any error in err's chain is a
// *GenerationError, returning it.
func AsGenerationError(err error) (*GenerationError, bool) {
	var ge *GenerationError
	if errors.As(err, &ge) {
		return ge, true
	}
	return nil, false
}

// Config describes one rank of a TCP group.
type Config struct {
	// Rank is this process's id.
	Rank int
	// Addrs lists one host:port per rank; Addrs[Rank] is the local listen
	// address.
	Addrs []string
	// Params drives simulated-cost accounting; costmodel.Zero() disables it.
	Params costmodel.Params
	// Generation is the build generation ("incarnation number") of this
	// process. The hello exchange carries it: two ranks connect only when
	// their generations match. A supervisor bumps the generation on every
	// recovery round so frames from a pre-crash incarnation are fenced out
	// instead of poisoning the new mesh. Zero is a valid generation (a
	// standalone, never-restarted build).
	Generation uint32
	// DialTimeout bounds the total time spent connecting to each peer
	// (default 10s). Dials retry until the peer's listener is up.
	DialTimeout time.Duration
	// HelloTimeout bounds the hello exchange on each freshly established
	// connection (default 10s): a peer that connects but never identifies
	// itself fails mesh setup instead of wedging it.
	HelloTimeout time.Duration
	// HeartbeatInterval is the period of out-of-band liveness frames sent
	// to every peer (default 500ms; negative disables heartbeats).
	HeartbeatInterval time.Duration
	// PeerTimeout declares a peer dead when a Recv is blocked on it and
	// nothing — data or heartbeat — has arrived from it for this long
	// (default 10s; negative disables silence-based detection). It must
	// comfortably exceed HeartbeatInterval.
	PeerTimeout time.Duration
	// RecvTimeout, when positive, bounds the time any single Recv may stay
	// blocked even while the peer's heartbeats keep arriving — it catches
	// alive-but-wedged peers and lost frames at the cost of a false
	// positive if a rank legitimately computes longer than this between
	// sends. 0 (the default) disables it.
	RecvTimeout time.Duration
}

func (cfg *Config) withDefaults() {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.HelloTimeout == 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = 10 * time.Second
	}
}

// peer is one connection of the mesh. Incoming frames are demultiplexed by
// tag into per-tag FIFO queues, so a frame arriving for one tag can never
// wedge a receiver waiting on another: a bounded single inbox would fill
// with mismatched-tag frames and deadlock the whole connection once more
// than its buffer depth arrived ahead of the matching Recv. The queues grow
// with the traffic actually outstanding; comm.ChanBuffer no longer bounds
// the TCP receive path.
type peer struct {
	rank int
	addr string
	conn net.Conn
	fr   *wire.Conn
	// onDown is invoked exactly once when the peer is declared failed with
	// a comm.PeerDown (not on orderly local Close); finished tells whether
	// the peer had said goodbye.
	onDown func(pd *comm.PeerDown, finished bool)

	sendM sync.Mutex

	mu   sync.Mutex
	cond *sync.Cond
	// lastSeen is the arrival time of the most recent frame (data or
	// heartbeat) from this peer; the failure detector's silence clock.
	lastSeen time.Time
	queues   map[int32][]wire.Frame
	// failErr is set exactly once when the connection is declared dead (read
	// error, failure detection, or local Close); closed flags that no more
	// frames will arrive. Queued frames are still drained before failErr is
	// surfaced to Recv. failing is set while the declaring goroutine runs
	// onDown with mu released; nobody else may declare the peer meanwhile.
	failErr error
	closed  bool
	failing bool
	// finished records the peer's bye. A finished peer that then reaches
	// EOF is closed with failErr still nil: its exit becomes a failure only
	// for a Recv that finds no frame to take (see take) or a Send.
	finished bool
}

// Comm is one rank's handle to a TCP group.
type Comm struct {
	cfg      Config
	listener net.Listener
	peers    []*peer // index by rank; nil at own rank
	clock    *costmodel.Clock
	stats    comm.Stats
	statsMu  sync.Mutex
	quit     chan struct{}
	closed   sync.Once
	// firstDown is the first comm.PeerDown observed (any connection). It
	// attributes the cascade: secondary connection failures caused by other
	// ranks aborting are reported as wrapping this root cause. Guarded by
	// statsMu.
	firstDown *comm.PeerDown
	// gossipOnce bounds failure gossip to the first detection: the root
	// cause is broadcast once; re-gossiping gossip-derived downs would only
	// echo the same rank.
	gossipOnce sync.Once
}

var _ comm.Communicator = (*Comm)(nil)

// Dial brings up one rank: it listens on its own address, accepts
// connections from every lower rank, and dials every higher rank. It
// returns once the full mesh is connected. All ranks must call Dial
// concurrently (separate processes or goroutines).
func Dial(cfg Config) (*Comm, error) {
	p := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcpcomm: rank %d out of range for %d addrs", cfg.Rank, p)
	}
	cfg.withDefaults()
	c := &Comm{cfg: cfg, peers: make([]*peer, p), clock: costmodel.NewClock(), quit: make(chan struct{})}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("tcpcomm: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
	}
	c.listener = ln

	errc := make(chan error, 2)
	var wg sync.WaitGroup

	// Accept one connection from every lower rank. The whole accept phase
	// runs under the same DialTimeout budget as the dial phase — a lower
	// rank that never shows up (e.g. a crashed peer whose respawn never
	// comes) fails the bring-up instead of blocking in Accept forever, so a
	// rendezvous loop can retry. Each hello exchange additionally runs
	// under its own read deadline, and hellos from a stale generation are
	// fenced off without consuming the mesh slot the real peer will fill.
	lower := cfg.Rank
	if lower > 0 {
		if d, ok := ln.(*net.TCPListener); ok {
			d.SetDeadline(time.Now().Add(cfg.DialTimeout))
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connected := 0; connected < lower; {
			conn, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("tcpcomm: rank %d accept: %w", cfg.Rank, err)
				return
			}
			from, gen, fr, err := c.readHello(conn)
			if err != nil {
				conn.Close()
				errc <- fmt.Errorf("tcpcomm: rank %d %v", cfg.Rank, err)
				return
			}
			switch {
			case gen < cfg.Generation:
				// A pre-crash incarnation: fence it off and keep waiting
				// for the real peer.
				c.rejectHello(fr, conn, ackWrongGeneration)
			case gen > cfg.Generation:
				// The dialer is from a newer build generation, so *this*
				// process is the stale incarnation. Tell it our generation
				// (it will retry until this rank is back at its
				// generation), then fail bring-up so the caller can adopt
				// the newer generation and re-rendezvous.
				c.rejectHello(fr, conn, ackWrongGeneration)
				errc <- &GenerationError{Peer: from, Ours: cfg.Generation, Theirs: gen}
				return
			case from < 0 || from >= cfg.Rank:
				conn.Close()
				errc <- fmt.Errorf("tcpcomm: rank %d: invalid hello rank %d", cfg.Rank, from)
				return
			case c.peers[from] != nil:
				// Same generation, but the slot is taken: two processes
				// claim one rank. Keep the mesh, reject the newcomer.
				c.rejectHello(fr, conn, ackDuplicateRank)
			default:
				if err := c.sendAck(fr, conn, ackOK); err != nil {
					conn.Close()
					errc <- fmt.Errorf("tcpcomm: rank %d hello ack to %d: %w", cfg.Rank, from, err)
					return
				}
				c.peers[from] = c.newPeer(from, conn, fr)
				connected++
			}
		}
		errc <- nil
	}()

	// Dial every higher rank, retrying until its listener is up and it
	// accepts our generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := cfg.Rank + 1; j < p; j++ {
			pe, err := c.connectPeer(j)
			if err != nil {
				errc <- err
				return
			}
			c.peers[j] = pe
		}
		errc <- nil
	}()

	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			c.Close()
			return nil, err
		}
	}
	// Bring-up is complete: lift the accept deadline so the doorman can
	// keep fencing late hellos indefinitely.
	if d, ok := ln.(*net.TCPListener); ok {
		d.SetDeadline(time.Time{})
	}
	// Start reader goroutines once the mesh is complete, then the failure
	// detector's heartbeat pump and the doorman that fences late hellos.
	for _, pe := range c.peers {
		if pe != nil {
			go c.readLoop(pe)
		}
	}
	if cfg.HeartbeatInterval > 0 && p > 1 {
		go c.heartbeatLoop(cfg.HeartbeatInterval)
	}
	go c.doorman()
	return c, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// readHello reads and validates one hello frame under HelloTimeout,
// returning the sender's claimed rank and generation.
func (c *Comm) readHello(conn net.Conn) (from int, gen uint32, fr *wire.Conn, err error) {
	conn.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
	fr = wire.NewConn(conn)
	hello, err := fr.Recv()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("bad hello (deadline %v): %w", c.cfg.HelloTimeout, err)
	}
	if hello.Tag != helloTag || len(hello.Payload) != 8 {
		return 0, 0, nil, fmt.Errorf("bad hello frame (tag %d, %d bytes)", hello.Tag, len(hello.Payload))
	}
	conn.SetReadDeadline(time.Time{})
	return int(int32(getU32(hello.Payload[:4]))), getU32(hello.Payload[4:]), fr, nil
}

// sendAck answers a hello with status and the local generation.
func (c *Comm) sendAck(fr *wire.Conn, conn net.Conn, status uint32) error {
	payload := make([]byte, 8)
	putU32(payload[:4], status)
	putU32(payload[4:], c.cfg.Generation)
	conn.SetWriteDeadline(time.Now().Add(c.cfg.HelloTimeout))
	err := fr.Send(wire.Frame{Tag: helloAckTag, Payload: payload})
	conn.SetWriteDeadline(time.Time{})
	return err
}

// rejectHello fences off a connection whose hello cannot be accepted: it
// answers (best-effort) with the reject status and closes the connection.
// Generation mismatches are counted in Stats.GenerationRejects.
func (c *Comm) rejectHello(fr *wire.Conn, conn net.Conn, status uint32) {
	c.sendAck(fr, conn, status) //nolint:errcheck
	conn.Close()
	if status == ackWrongGeneration {
		c.statsMu.Lock()
		c.stats.GenerationRejects++
		c.statsMu.Unlock()
	}
}

// connectPeer establishes the authenticated connection to one higher rank:
// TCP connect, hello carrying (rank, generation), and the peer's ack. The
// whole exchange — connect retries while the peer's listener is not up yet
// *and* handshake retries while the peer is still at an older generation —
// shares one DialTimeout budget, with each attempt clamped to the time
// remaining so the budget is never overshot. A peer at a *newer* generation
// is terminal: this process is the stale incarnation, and retrying would
// only burn the deadline, so a GenerationError surfaces immediately.
// Errors carry the peer's rank and address so a failed mesh bring-up names
// the hole.
func (c *Comm) connectPeer(j int) (*peer, error) {
	cfg := &c.cfg
	addr := cfg.Addrs[j]
	deadline := time.Now().Add(cfg.DialTimeout)
	fail := func(lastErr error) error {
		return fmt.Errorf("tcpcomm: rank %d dial rank %d (%s): timed out after %v: %w",
			cfg.Rank, j, addr, cfg.DialTimeout, lastErr)
	}
	var lastErr error
	for {
		attempt := time.Second
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		if attempt <= 0 {
			return nil, fail(lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err != nil {
			lastErr = err
		} else {
			fr := wire.NewConn(conn)
			status, theirs, herr := c.handshake(conn, fr)
			switch {
			case herr == nil && status == ackOK:
				return c.newPeer(j, conn, fr), nil
			case herr == nil && status == ackWrongGeneration && theirs > cfg.Generation:
				conn.Close()
				return nil, &GenerationError{Peer: j, Ours: cfg.Generation, Theirs: theirs}
			case herr == nil && status == ackWrongGeneration:
				// The peer is a stale incarnation that has not torn down
				// yet; it is about to be fenced and respawned at our
				// generation. Retry within the budget instead of burning
				// the whole dial deadline on it.
				conn.Close()
				lastErr = fmt.Errorf("rank %d still at stale generation %d (ours %d)", j, theirs, cfg.Generation)
			case herr == nil && status == ackDuplicateRank:
				conn.Close()
				return nil, fmt.Errorf("tcpcomm: rank %d hello to %d: rejected as duplicate — another generation-%d process already holds this rank",
					cfg.Rank, j, cfg.Generation)
			case herr == nil:
				conn.Close()
				return nil, fmt.Errorf("tcpcomm: rank %d hello to %d: unknown ack status %d", cfg.Rank, j, status)
			default:
				// Connected, but the handshake failed — the peer is mid
				// bring-up or mid-teardown. Retry within the budget.
				conn.Close()
				lastErr = fmt.Errorf("hello to rank %d: %w", j, herr)
			}
		}
		if !time.Now().Add(20 * time.Millisecond).Before(deadline) {
			return nil, fail(lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// handshake runs the dialer's half of the hello exchange under
// HelloTimeout: send (rank, generation), read the ack.
func (c *Comm) handshake(conn net.Conn, fr *wire.Conn) (status, theirGen uint32, err error) {
	payload := make([]byte, 8)
	putU32(payload[:4], uint32(c.cfg.Rank))
	putU32(payload[4:], c.cfg.Generation)
	conn.SetDeadline(time.Now().Add(c.cfg.HelloTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := fr.Send(wire.Frame{Tag: helloTag, Payload: payload}); err != nil {
		return 0, 0, err
	}
	ack, err := fr.Recv()
	if err != nil {
		return 0, 0, err
	}
	if ack.Tag != helloAckTag || len(ack.Payload) != 8 {
		return 0, 0, fmt.Errorf("bad hello ack (tag %d, %d bytes)", ack.Tag, len(ack.Payload))
	}
	return getU32(ack.Payload[:4]), getU32(ack.Payload[4:]), nil
}

// doorman keeps accepting connections after bring-up so hellos from stale
// incarnations of crashed peers are answered with a generation reject
// instead of wedging the dialer until its timeout. It runs until Close
// shuts the listener. Every post-bring-up hello is rejected: a mismatched
// generation is fenced (and counted), and even a matching-generation hello
// is a duplicate — the mesh slot for every rank is already connected.
func (c *Comm) doorman() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			_, gen, fr, err := c.readHello(conn)
			if err != nil {
				conn.Close()
				return
			}
			status := uint32(ackDuplicateRank)
			if gen != c.cfg.Generation {
				status = ackWrongGeneration
			}
			c.rejectHello(fr, conn, status)
		}(conn)
	}
}

func (c *Comm) newPeer(rank int, conn net.Conn, fr *wire.Conn) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		// OS-level keep-alive backstops the application heartbeats: a peer
		// host that vanishes without a FIN eventually fails the connection
		// even if the failure detector is disabled.
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	pe := &peer{
		rank: rank, addr: c.cfg.Addrs[rank],
		conn: conn, fr: fr,
		lastSeen: time.Now(),
		queues:   make(map[int32][]wire.Frame),
	}
	pe.onDown = func(pd *comm.PeerDown, finished bool) {
		c.statsMu.Lock()
		c.stats.PeerDowns++
		c.statsMu.Unlock()
		c.noteRootCause(pd)
		c.gossipDown(pd.Rank, finished)
	}
	pe.cond = sync.NewCond(&pe.mu)
	return pe
}

// noteRootCause keeps the first peer failure this rank learns of as the
// cascade's root cause.
func (c *Comm) noteRootCause(pd *comm.PeerDown) {
	c.statsMu.Lock()
	if c.firstDown == nil {
		c.firstDown = pd
	}
	c.statsMu.Unlock()
}

// gossipDown broadcasts the first locally observed peer failure to every
// other live peer on the control tag: the rank as u32 LE, then one byte
// telling whether that peer had finished (see peerReportedDown). Without it, attribution during a
// cascade is a scheduling race: a rank whose own view of the dead peer is
// delayed may first observe a *detector's* teardown and blame the wrong
// rank. With it, the detector's last frame on each connection names the
// root cause, and TCP ordering guarantees it is read before that
// connection's EOF. The sends are synchronous, and the failure is published
// to blocked receivers only after onDown returns, so by the time it
// surfaces to any caller (and the caller tears the communicator down) the
// gossip frames are already on the wire. onDown fires with NO peer mutex
// held (failLocked releases the failed peer's around the call): gossip
// takes other peers' mutexes inside gossipOnce, and when two peers fail
// together — any clean shutdown of three or more ranks — a declarer that
// held its peer's mutex while waiting for the Once would deadlock against
// the Once's holder waiting for that mutex. Send errors are ignored: gossip
// is best-effort.
func (c *Comm) gossipDown(downRank int, finished bool) {
	c.gossipOnce.Do(func() {
		payload := make([]byte, 5)
		putU32(payload, uint32(downRank))
		if finished {
			payload[4] = 1
		}
		for _, pe := range c.peers {
			if pe == nil || pe.rank == downRank || pe.dead() {
				continue
			}
			pe.sendM.Lock()
			pe.fr.Send(wire.Frame{Tag: downTag, Payload: payload}) //nolint:errcheck
			pe.sendM.Unlock()
		}
	})
}

// fail declares the connection dead with err (idempotent: the first cause
// wins). Every blocked and future take observes err once the queues drain;
// the socket is closed so the reader goroutine and the remote end unblock.
func (pe *peer) fail(err error) {
	pe.mu.Lock()
	pe.failLocked(err)
	pe.mu.Unlock()
}

// failLocked is fail for callers that hold pe.mu. For a comm.PeerDown it
// releases pe.mu around onDown (see gossipDown for why) and re-acquires it
// before publishing the failure, so callers must re-check their state
// afterwards. It returns without effect when the peer has already failed or
// another goroutine is in the middle of declaring it.
func (pe *peer) failLocked(err error) {
	if pe.failErr != nil || pe.failing {
		return
	}
	if pd, ok := comm.AsPeerDown(err); ok && pe.onDown != nil {
		finished := pe.finished
		pe.failing = true
		pe.mu.Unlock()
		pe.onDown(pd, finished)
		pe.mu.Lock()
		pe.failing = false
	}
	pe.failErr = err
	pe.closed = true
	pe.conn.Close()
	pe.cond.Broadcast()
}

// readLoop demultiplexes one peer's incoming frames. Heartbeats only feed
// the silence clock; data frames are queued by tag. A read error — a reset
// from a dead host, EOF from a peer that exited without a goodbye — declares
// the peer down; EOF after a bye only closes the connection.
func (c *Comm) readLoop(pe *peer) {
	for {
		f, err := pe.fr.Recv()
		if err != nil {
			pe.mu.Lock()
			if pe.finished && pe.failErr == nil && !pe.failing {
				pe.closed = true
				pe.conn.Close()
				pe.cond.Broadcast()
			} else {
				pe.failLocked(&comm.PeerDown{Rank: pe.rank, Addr: pe.addr, Cause: fmt.Sprintf("connection failed: %v", err)})
			}
			pe.mu.Unlock()
			return
		}
		pe.mu.Lock()
		pe.lastSeen = time.Now()
		if f.Tag == byeTag {
			pe.finished = true
			pe.mu.Unlock()
			continue
		}
		if f.Tag == heartbeatTag {
			pe.cond.Broadcast() // refresh deadlines of blocked takes
			pe.mu.Unlock()
			c.statsMu.Lock()
			c.stats.HeartbeatsRecv++
			c.statsMu.Unlock()
			continue
		}
		if f.Tag == downTag {
			pe.mu.Unlock()
			if len(f.Payload) == 5 {
				c.peerReportedDown(int(getU32(f.Payload)), pe.rank, f.Payload[4] != 0)
			}
			continue
		}
		pe.queues[f.Tag] = append(pe.queues[f.Tag], f)
		pe.cond.Broadcast()
		pe.mu.Unlock()
	}
}

// peerReportedDown applies failure gossip: reporter has declared down dead,
// so this rank declares it dead too (idempotently) instead of waiting for
// its own detector or, worse, misattributing the reporter's teardown. A
// peer that finished — the reporter says so, or this rank has read its bye —
// is only remembered as the root cause and passed on: it left cleanly, what
// the reporter still wanted from it is the reporter's failure, and cutting
// the connection here would lose the frames it sent before its goodbye.
// Passing it on (as a declaration would) keeps attribution deterministic:
// whoever later fails on this rank's teardown has read the root cause on the
// same connection first.
func (c *Comm) peerReportedDown(down, reporter int, finished bool) {
	if down < 0 || down >= len(c.peers) || down == c.cfg.Rank || c.peers[down] == nil {
		return
	}
	pd := &comm.PeerDown{Rank: down, Addr: c.cfg.Addrs[down],
		Cause: fmt.Sprintf("reported down by rank %d", reporter)}
	pe := c.peers[down]
	pe.mu.Lock()
	if !finished && !pe.finished {
		pe.failLocked(pd)
		pe.mu.Unlock()
		return
	}
	pe.mu.Unlock()
	c.noteRootCause(pd)
	c.gossipDown(down, true)
}

// heartbeatLoop pumps liveness frames to every live peer until Close, and
// doubles as the proactive silence monitor: a peer past PeerTimeout is
// declared down on the spot, not only once some Recv happens to block on
// it. That matters in collectives — a rank blocked receiving from a healthy
// peer still detects a third, silent rank promptly and attributes it.
func (c *Comm) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		for _, pe := range c.peers {
			if pe == nil {
				continue
			}
			if c.cfg.PeerTimeout > 0 {
				pe.mu.Lock()
				if !pe.closed && !pe.finished && time.Since(pe.lastSeen) > c.cfg.PeerTimeout {
					pe.failLocked(&comm.PeerDown{Rank: pe.rank, Addr: pe.addr,
						Cause: fmt.Sprintf("silent for %v (no data or heartbeat)", c.cfg.PeerTimeout)})
				}
				pe.mu.Unlock()
			}
			if pe.dead() {
				continue
			}
			pe.sendM.Lock()
			err := pe.fr.Send(wire.Frame{Tag: heartbeatTag})
			pe.sendM.Unlock()
			if err != nil {
				// The read side decides what a broken connection means: the
				// peer's goodbye may be sitting unread behind this error, and
				// declaring it down here would gossip a clean exit as a death.
				// A connection that fails writes but never errors a read is
				// caught by the silence check above.
				continue
			}
			c.statsMu.Lock()
			c.stats.HeartbeatsSent++
			c.statsMu.Unlock()
		}
	}
}

// closing reports whether Close has begun.
func (c *Comm) closing() bool {
	select {
	case <-c.quit:
		return true
	default:
		return false
	}
}

// failure returns the failure the peer was declared with (nil if none),
// waiting out a declaration another goroutine is in the middle of.
func (pe *peer) failure() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	for pe.failing {
		pe.cond.Wait()
	}
	return pe.failErr
}

// dead reports whether the connection is past use: failed, being declared
// failed, or closed by the peer's goodbye.
func (pe *peer) dead() bool {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.closed || pe.failing || pe.finished
}

// take dequeues the oldest frame of one tag, blocking until one arrives,
// the connection dies, or a failure-detection deadline expires. It reports
// the seconds spent blocked (zero when a frame was already queued).
//
// Two deadlines guard the wait: peerTO fires when the peer has been
// entirely silent (no data, no heartbeat) for that long; recvTO fires when
// this take itself has been blocked for that long regardless of
// heartbeats. Either expiry declares the peer down with a comm.PeerDown so
// every other blocked receiver fails promptly too.
func (pe *peer) take(tag int32, peerTO, recvTO time.Duration) (wire.Frame, float64, error) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	var wait float64
	if len(pe.queues[tag]) == 0 && !pe.closed {
		t0 := time.Now()
		var recvDL time.Time
		if recvTO > 0 {
			recvDL = t0.Add(recvTO)
		}
		for len(pe.queues[tag]) == 0 && !pe.closed {
			if pe.failing {
				pe.cond.Wait() // the declarer broadcasts when it publishes
				continue
			}
			var dl time.Time
			if peerTO > 0 {
				dl = pe.lastSeen.Add(peerTO)
			}
			if !recvDL.IsZero() && (dl.IsZero() || recvDL.Before(dl)) {
				dl = recvDL
			}
			if dl.IsZero() {
				pe.cond.Wait()
				continue
			}
			now := time.Now()
			if !now.Before(dl) {
				var cause string
				if !recvDL.IsZero() && !now.Before(recvDL) {
					cause = fmt.Sprintf("receive deadline: blocked %v waiting for tag %d", recvTO, tag)
				} else {
					cause = fmt.Sprintf("silent for %v (no data or heartbeat)", peerTO)
				}
				pe.failLocked(&comm.PeerDown{Rank: pe.rank, Addr: pe.addr, Cause: cause})
				continue
			}
			// Arm a wake-up at the deadline; any frame arrival broadcasts
			// sooner and the loop re-derives the (possibly pushed-back)
			// deadline from the fresh lastSeen.
			tm := time.AfterFunc(dl.Sub(now)+time.Millisecond, func() {
				pe.mu.Lock()
				pe.cond.Broadcast()
				pe.mu.Unlock()
			})
			pe.cond.Wait()
			tm.Stop()
		}
		wait = time.Since(t0).Seconds()
	}
	// Closed by the peer's goodbye with nothing left to take: the frame this
	// receiver needs will never come, and only now is the peer's exit a
	// failure.
	for len(pe.queues[tag]) == 0 && pe.failErr == nil {
		if pe.failing {
			pe.cond.Wait()
			continue
		}
		pe.failLocked(&comm.PeerDown{Rank: pe.rank, Addr: pe.addr,
			Cause: fmt.Sprintf("peer finished: it closed its communicator and no tag %d frame is queued", tag)})
	}
	q := pe.queues[tag]
	if len(q) == 0 {
		return wire.Frame{}, wait, pe.failErr
	}
	f := q[0]
	if len(q) == 1 {
		delete(pe.queues, tag)
	} else {
		pe.queues[tag] = q[1:]
	}
	return f, wait, nil
}

// Rank implements comm.Communicator.
func (c *Comm) Rank() int { return c.cfg.Rank }

// Size implements comm.Communicator.
func (c *Comm) Size() int { return len(c.cfg.Addrs) }

// Clock implements comm.Communicator.
func (c *Comm) Clock() *costmodel.Clock { return c.clock }

// Stats implements comm.Communicator.
func (c *Comm) Stats() comm.Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// CountCall implements comm.CallCounter.
func (c *Comm) CountCall(cl comm.OpClass) {
	c.statsMu.Lock()
	c.stats.Ops[cl].Calls++
	c.statsMu.Unlock()
}

// attribute turns a proximate connection error into an actionable one.
// During a failure cascade — one rank dies, its detectors abort and close
// their own connections, breaking further connections — the error on the
// secondary connection names the wrong rank. If an earlier PeerDown for a
// *different* rank was recorded, the returned error reports the proximate
// failure but wraps that first failure as the root cause.
func (c *Comm) attribute(peerRank int, err error) error {
	pd, ok := comm.AsPeerDown(err)
	if !ok {
		return fmt.Errorf("tcpcomm: rank %d: connection to rank %d failed: %w", c.cfg.Rank, peerRank, err)
	}
	c.statsMu.Lock()
	first := c.firstDown
	c.statsMu.Unlock()
	if first != nil && first.Rank != pd.Rank {
		return fmt.Errorf("tcpcomm: rank %d: connection to rank %d failed (%v); first peer failure: %w",
			c.cfg.Rank, peerRank, pd, first)
	}
	return fmt.Errorf("tcpcomm: rank %d: connection to rank %d failed: %w", c.cfg.Rank, peerRank, err)
}

// Send implements comm.Communicator. A write that fails on an established
// connection means the peer is gone (its process died, or it left and the
// write lost the race with the reader's EOF): the peer is declared down, so
// the caller gets a comm.PeerDown it can recover from — unless the write
// failed because Close is tearing this rank down. If the connection was
// already declared dead, that first declaration (and the cascade's root
// cause) is what is reported.
func (c *Comm) Send(to int, tag comm.Tag, data []byte) error {
	if to < 0 || to >= len(c.peers) || to == c.cfg.Rank {
		return fmt.Errorf("tcpcomm: rank %d: invalid send target %d", c.cfg.Rank, to)
	}
	pe := c.peers[to]
	if pe == nil {
		return fmt.Errorf("tcpcomm: rank %d: no connection to rank %d", c.cfg.Rank, to)
	}
	c.clock.Advance(c.cfg.Params.MessageCost(len(data)))
	pe.sendM.Lock()
	err := pe.fr.Send(wire.Frame{Tag: int32(tag), SentAt: c.clock.Time(), Payload: data})
	pe.sendM.Unlock()
	if err != nil {
		if !c.closing() {
			pe.fail(&comm.PeerDown{Rank: pe.rank, Addr: pe.addr, Cause: fmt.Sprintf("send failed: %v", err)})
		}
		if ferr := pe.failure(); ferr != nil {
			return c.attribute(to, ferr)
		}
		return fmt.Errorf("tcpcomm: rank %d send to %d: %w", c.cfg.Rank, to, err)
	}
	c.statsMu.Lock()
	c.stats.RecordSend(tag, len(data))
	c.statsMu.Unlock()
	return nil
}

// Recv implements comm.Communicator. When the peer is dead, wedged past
// the configured deadlines, or the communicator was closed, Recv returns a
// prompt error (wrapping comm.PeerDown or ErrClosed) instead of blocking
// forever; frames that were already queued are still delivered first.
func (c *Comm) Recv(from int, tag comm.Tag) ([]byte, error) {
	if from < 0 || from >= len(c.peers) || from == c.cfg.Rank {
		return nil, fmt.Errorf("tcpcomm: rank %d: invalid recv source %d", c.cfg.Rank, from)
	}
	pe := c.peers[from]
	if pe == nil {
		return nil, fmt.Errorf("tcpcomm: rank %d: no connection to rank %d", c.cfg.Rank, from)
	}
	f, wait, err := pe.take(int32(tag), c.cfg.PeerTimeout, c.cfg.RecvTimeout)
	if err != nil {
		return nil, c.attribute(from, err)
	}
	c.clock.AlignTo(f.SentAt)
	c.statsMu.Lock()
	c.stats.RecordRecv(tag, len(f.Payload), wait)
	c.statsMu.Unlock()
	return f.Payload, nil
}

// Close says goodbye to every live peer (a bye frame, so the EOF they see
// next reads as a clean exit — see the package doc), then tears down all
// connections and the listener and stops the heartbeat pump. Any Recv
// blocked on a peer — and any issued afterwards — is woken promptly with an
// error wrapping ErrClosed; frames already queued are still delivered
// before the error surfaces.
func (c *Comm) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.quit)
		if c.listener != nil {
			err = c.listener.Close()
		}
		// The write deadline bounds everything that can hold sendM — a
		// heartbeat in flight, a Send wedged on a peer that stopped reading
		// — and the bye itself, so Close waits for the lock instead of
		// skipping the goodbye when it is contended.
		deadline := time.Now().Add(time.Second)
		for _, pe := range c.peers {
			if pe != nil {
				pe.conn.SetWriteDeadline(deadline)
			}
		}
		for _, pe := range c.peers {
			if pe == nil {
				continue
			}
			if !pe.dead() {
				pe.sendM.Lock()
				pe.fr.Send(wire.Frame{Tag: byeTag}) //nolint:errcheck
				pe.sendM.Unlock()
			}
			pe.fail(ErrClosed)
		}
	})
	return err
}
