// Package tcpcomm implements comm.Communicator over TCP sockets — the
// hand-rolled replacement for MPI's runtime in genuinely distributed runs.
// Every rank knows the full address list; rank i accepts connections from
// lower ranks and dials higher ranks, forming a full mesh. Frames use the
// protocol of package wire, and a hello carrying the rank and build
// generation authenticates each connection.
//
// This package is the socket driver of package peer, the state machine that
// holds the failure protocol (see its doc). It owns the listener, the hello
// I/O, one reader goroutine per connection, one heartbeat ticker and one
// deadline timer; it feeds the machine every event under one mutex and
// performs the actions the machine returns. A peer declared down fails every
// pending and future Recv from it with the same comm.PeerDown; the deployment
// is expected to abort or checkpoint-restart the job, as cmd/pcloudsd does.
package tcpcomm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/comm/peer"
	"pclouds/internal/costmodel"
	"pclouds/internal/wire"
)

// The hello frame is rank u32 LE | generation u32 LE; its ack is status u32
// LE | acceptor-generation u32 LE. Package peer's control tags sit beside.
const (
	helloTag    = -1
	helloAckTag = -4
)

// Hello ack statuses; package peer decides them.
const (
	ackWrongGeneration = peer.AckWrongGeneration
	ackDuplicateRank   = peer.AckDuplicateRank
)

// ErrClosed is the error observed by a Recv that was blocked (or issued)
// after Close tore the communicator down locally. It is distinct from
// comm.PeerDown: the local process decided to stop, no peer failed.
var ErrClosed = errors.New("tcpcomm: communicator closed")

// GenerationError reports a hello exchange that failed because a peer is at
// a newer build generation: this process is the stale incarnation, and must
// adopt the newer generation (re-rendezvous) or exit.
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
	// process; ranks connect only at equal generations, so a supervisor that
	// bumps it every recovery round fences pre-crash incarnations out of the
	// new mesh. Zero is valid (a standalone, never-restarted build).
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
	// PeerTimeout declares a peer dead when nothing — data or heartbeat —
	// has arrived from it for this long (default 10s; negative disables
	// silence-based detection). Without heartbeats it is judged only while a
	// Recv is blocked on the peer. It must comfortably exceed
	// HeartbeatInterval.
	PeerTimeout time.Duration
	// RecvTimeout, when positive, bounds the time any single Recv may stay
	// blocked even while the peer's heartbeats keep arriving: it catches
	// alive-but-wedged peers and lost frames, and misfires on a rank that
	// computes longer than this between sends. 0 (the default) disables it.
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

// socket is one connection of the mesh; sendM serialises its writes.
type socket struct {
	conn  net.Conn
	fr    *wire.Conn
	sendM sync.Mutex
}

// Comm is one rank's handle to a TCP group.
type Comm struct {
	cfg      Config
	listener net.Listener
	peers    []*socket // index by rank; nil at own rank
	clock    *costmodel.Clock
	epoch    time.Time // the machine's time zero
	timer    *time.Timer
	quit     chan struct{}
	closed   sync.Once

	// mu guards the machine, stats (data traffic, generation rejects) and
	// sending, the machine's frames not yet written. Blocked receives, and
	// Close waiting for sending to drain, wait on changed.
	mu      sync.Mutex
	m       *peer.Machine
	stats   comm.Stats
	sending int
	changed *sync.Cond
}

var _ comm.Communicator = (*Comm)(nil)

// Dial brings up one rank: it listens on its own address, accepts every
// lower rank and dials every higher rank, and returns once the full mesh is
// connected. All ranks must call Dial concurrently.
func Dial(cfg Config) (*Comm, error) {
	p := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcpcomm: rank %d out of range for %d addrs", cfg.Rank, p)
	}
	cfg.withDefaults()
	c := &Comm{cfg: cfg, peers: make([]*socket, p), clock: costmodel.NewClock(), epoch: time.Now(),
		quit: make(chan struct{})}
	c.m = peer.New(peer.Config{Addrs: cfg.Addrs, Heartbeats: cfg.HeartbeatInterval > 0,
		PeerTimeout: int64(cfg.PeerTimeout), RecvTimeout: int64(cfg.RecvTimeout)})
	c.changed = sync.NewCond(&c.mu)
	c.timer = time.AfterFunc(time.Hour, func() {
		c.mu.Lock()
		c.perform(c.m.Timer(nil, c.now()))
	})
	c.timer.Stop()
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("tcpcomm: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
	}
	c.listener = ln

	// Accept every lower rank while dialing every higher one; the first
	// error fails the bring-up once both phases have ended.
	errc := make(chan error, 2)
	go func() { errc <- c.acceptLower() }()
	go func() {
		for j := cfg.Rank + 1; j < p; j++ {
			if err := c.connectPeer(j); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < 2; i++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	// Lift the accept deadline: the doorman fences late hellos until Close.
	if d, ok := ln.(*net.TCPListener); ok {
		d.SetDeadline(time.Time{})
	}
	for q, s := range c.peers {
		if s != nil {
			go c.readLoop(q, s)
		}
	}
	if cfg.HeartbeatInterval > 0 && p > 1 {
		go c.heartbeatLoop(cfg.HeartbeatInterval)
	}
	go c.doorman()
	return c, nil
}

// acceptLower accepts one connection from every lower rank within the
// DialTimeout budget: a lower rank that never shows up (a crashed peer whose
// respawn never comes) fails the bring-up, so a rendezvous loop can retry.
func (c *Comm) acceptLower() error {
	cfg := &c.cfg
	if d, ok := c.listener.(*net.TCPListener); ok && cfg.Rank > 0 {
		d.SetDeadline(time.Now().Add(cfg.DialTimeout))
	}
	for connected := 0; connected < cfg.Rank; {
		conn, err := c.listener.Accept()
		if err != nil {
			return fmt.Errorf("tcpcomm: rank %d accept: %w", cfg.Rank, err)
		}
		from, gen, fr, err := c.readHello(conn)
		if err != nil {
			return fmt.Errorf("tcpcomm: rank %d %v", cfg.Rank, err)
		}
		taken := from >= 0 && from < cfg.Rank && c.peers[from] != nil
		switch v := peer.Admit(from, gen, cfg.Rank, cfg.Generation, taken); v {
		case peer.Invalid:
			conn.Close()
			return fmt.Errorf("tcpcomm: rank %d: invalid hello rank %d", cfg.Rank, from)
		case peer.Admitted:
			if err := c.answer(fr, conn, v); err != nil {
				conn.Close()
				return fmt.Errorf("tcpcomm: rank %d hello ack to %d: %w", cfg.Rank, from, err)
			}
			c.register(from, conn, fr)
			connected++
		default:
			// A refused newer dialer retries until this rank is back at its
			// generation, which this rank's caller adopts.
			c.answer(fr, conn, v) //nolint:errcheck
			if v == peer.Newer {
				return &GenerationError{Peer: from, Ours: cfg.Generation, Theirs: gen}
			}
		}
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// readHello reads one hello under HelloTimeout, returning the sender's
// claimed rank and generation; a connection without one is closed.
func (c *Comm) readHello(conn net.Conn) (from int, gen uint32, fr *wire.Conn, err error) {
	conn.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
	defer conn.SetReadDeadline(time.Time{})
	fr = wire.NewConn(conn)
	rank, gen, err := recvPair(fr, helloTag)
	if err != nil {
		conn.Close()
		return 0, 0, nil, fmt.Errorf("bad hello (deadline %v): %w", c.cfg.HelloTimeout, err)
	}
	return int(int32(rank)), gen, fr, nil
}

// answer acks a hello with v's status and the local generation, closing a
// refused connection and counting a generation mismatch.
func (c *Comm) answer(fr *wire.Conn, conn net.Conn, v peer.Admission) error {
	conn.SetWriteDeadline(time.Now().Add(c.cfg.HelloTimeout))
	err := sendPair(fr, helloAckTag, v.Ack(), c.cfg.Generation)
	conn.SetWriteDeadline(time.Time{})
	if v != peer.Admitted {
		conn.Close()
		if v.Ack() == ackWrongGeneration {
			c.mu.Lock()
			c.stats.GenerationRejects++
			c.mu.Unlock()
		}
	}
	return err
}

func sendPair(fr *wire.Conn, tag int32, a, b uint32) error {
	payload := make([]byte, 8)
	putU32(payload[:4], a)
	putU32(payload[4:], b)
	return fr.Send(wire.Frame{Tag: tag, Payload: payload})
}

func recvPair(fr *wire.Conn, tag int32) (a, b uint32, err error) {
	f, err := fr.Recv()
	if err != nil {
		return 0, 0, err
	}
	if f.Tag != tag || len(f.Payload) != 8 {
		return 0, 0, fmt.Errorf("bad frame (tag %d, %d bytes), want hello tag %d", f.Tag, len(f.Payload), tag)
	}
	return getU32(f.Payload[:4]), getU32(f.Payload[4:]), nil
}

// connectPeer connects to one higher rank: TCP connect, hello, ack. Retries
// while its listener is not up or it is at an older generation share one
// DialTimeout budget, each attempt clamped to the time remaining; a newer
// peer fails at once with a GenerationError. Errors name the peer.
func (c *Comm) connectPeer(j int) error {
	cfg := &c.cfg
	addr := cfg.Addrs[j]
	deadline := time.Now().Add(cfg.DialTimeout)
	var lastErr error
	for attempt := min(time.Second, time.Until(deadline)); attempt > 0; attempt = min(time.Second, time.Until(deadline)) {
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err != nil {
			lastErr = err
		} else {
			// The dialer's half of the hello exchange, under HelloTimeout.
			fr := wire.NewConn(conn)
			conn.SetDeadline(time.Now().Add(cfg.HelloTimeout))
			status, theirs, herr := uint32(0), uint32(0), sendPair(fr, helloTag, uint32(cfg.Rank), cfg.Generation)
			if herr == nil {
				status, theirs, herr = recvPair(fr, helloAckTag)
			}
			conn.SetDeadline(time.Time{})
			v := peer.Answer(status, theirs, cfg.Generation)
			if herr == nil && v == peer.Connected {
				c.register(j, conn, fr)
				return nil
			}
			conn.Close()
			switch {
			case herr != nil:
				// Connected, but the handshake failed — the peer is mid
				// bring-up or mid-teardown. Retry within the budget.
				lastErr = fmt.Errorf("hello to rank %d: %w", j, herr)
			case v == peer.Retry:
				lastErr = fmt.Errorf("rank %d still at stale generation %d (ours %d)", j, theirs, cfg.Generation)
			case v == peer.Fenced:
				return &GenerationError{Peer: j, Ours: cfg.Generation, Theirs: theirs}
			case v == peer.Taken:
				return fmt.Errorf("tcpcomm: rank %d hello to %d: rejected as duplicate — another generation-%d process already holds this rank",
					cfg.Rank, j, cfg.Generation)
			default:
				return fmt.Errorf("tcpcomm: rank %d hello to %d: unknown ack status %d", cfg.Rank, j, status)
			}
		}
		if !time.Now().Add(20 * time.Millisecond).Before(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("tcpcomm: rank %d dial rank %d (%s): timed out after %v: %w",
		cfg.Rank, j, addr, cfg.DialTimeout, lastErr)
}

// doorman keeps answering hellos after bring-up, until Close shuts the
// listener, so a stale incarnation of a crashed peer is refused at once
// instead of wedging until its dial timeout. Every slot is taken, so every
// hello is refused.
func (c *Comm) doorman() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			if from, gen, fr, err := c.readHello(conn); err == nil {
				c.answer(fr, conn, peer.Admit(from, gen, c.cfg.Rank, c.cfg.Generation, true)) //nolint:errcheck
			}
		}(conn)
	}
}

// register adds the admitted connection to rank q to the mesh.
func (c *Comm) register(q int, conn net.Conn, fr *wire.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		// Keep-alive backstops the heartbeats: a host that vanishes without
		// a FIN fails the connection even with the detector off.
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	c.mu.Lock()
	c.peers[q] = &socket{conn: conn, fr: fr}
	c.m.Open(q, c.now())
	c.mu.Unlock()
}

// now is the machine's clock: nanoseconds since Dial, monotonic.
func (c *Comm) now() int64 { return int64(time.Since(c.epoch)) }

// perform carries out one machine event's actions. It is called with c.mu
// held and returns with it released. Arms run under the lock, so they land
// in the machine's order; the rest runs unlocked in the order given, so
// gossip is on the wire before the teardown and wakes that follow it.
func (c *Comm) perform(acts []peer.Action) {
	for _, a := range acts {
		switch a.Op {
		case peer.Arm:
			c.timer.Reset(time.Duration(a.At - c.now()))
		case peer.Send:
			c.sending++
		}
	}
	c.mu.Unlock()
	for _, a := range acts {
		switch a.Op {
		case peer.Send:
			s := c.peers[a.Peer]
			s.sendM.Lock()
			err := s.fr.Send(a.Frame)
			s.sendM.Unlock()
			c.mu.Lock()
			c.m.Sent(nil, a.Peer, a.Frame.Tag, err) // a control frame's outcome asks for nothing
			if c.sending--; c.sending == 0 {
				c.changed.Broadcast()
			}
			c.mu.Unlock()
		case peer.Close:
			c.peers[a.Peer].conn.Close()
		case peer.Wake:
			c.changed.Broadcast()
		}
	}
}

// readLoop feeds one connection's reads to the machine until one fails.
func (c *Comm) readLoop(q int, s *socket) {
	var acts []peer.Action
	for {
		f, err := s.fr.Recv()
		c.mu.Lock()
		if err != nil {
			c.perform(c.m.ReadError(acts[:0], c.now(), q, err))
			return
		}
		acts = c.m.Received(acts[:0], c.now(), q, f)
		c.perform(acts)
	}
}

// heartbeatLoop ticks the machine every interval until Close.
func (c *Comm) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		c.mu.Lock()
		c.perform(c.m.Tick(nil, c.now()))
	}
}

// Rank implements comm.Communicator.
func (c *Comm) Rank() int { return c.cfg.Rank }

// Size implements comm.Communicator.
func (c *Comm) Size() int { return len(c.cfg.Addrs) }

// Clock implements comm.Communicator.
func (c *Comm) Clock() *costmodel.Clock { return c.clock }

// Stats implements comm.Communicator.
func (c *Comm) Stats() comm.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Add(c.m.Stats())
	return s
}

// CountCall implements comm.CallCounter.
func (c *Comm) CountCall(cl comm.OpClass) {
	c.mu.Lock()
	c.stats.Ops[cl].Calls++
	c.mu.Unlock()
}

// attribute reports the failure of the connection to rank q — the peer's
// declared failure if any, else err — wrapping the root cause when that is
// another rank: in a cascade a secondary connection names the wrong rank.
func (c *Comm) attribute(q int, err error) error {
	c.mu.Lock()
	if ferr := c.m.Link(q).Err; ferr != nil {
		err = ferr
	}
	root := c.m.Root()
	c.mu.Unlock()
	if pd, ok := comm.AsPeerDown(err); ok && root != nil && root.Rank != pd.Rank {
		return fmt.Errorf("tcpcomm: rank %d: connection to rank %d failed (%v); first peer failure: %w",
			c.cfg.Rank, q, pd, root)
	}
	return fmt.Errorf("tcpcomm: rank %d: connection to rank %d failed: %w", c.cfg.Rank, q, err)
}

// Send implements comm.Communicator. A failed write reports the peer's
// declared failure — a comm.PeerDown the caller can recover from, which
// the failed write itself declares unless Close is tearing this rank down.
func (c *Comm) Send(to int, tag comm.Tag, data []byte) error {
	if to < 0 || to >= len(c.peers) || to == c.cfg.Rank {
		return fmt.Errorf("tcpcomm: rank %d: invalid send target %d", c.cfg.Rank, to)
	}
	s := c.peers[to] // Dial returned, so every other rank is connected
	c.clock.Advance(c.cfg.Params.MessageCost(len(data)))
	s.sendM.Lock()
	err := s.fr.Send(wire.Frame{Tag: int32(tag), SentAt: c.clock.Time(), Payload: data})
	s.sendM.Unlock()
	c.mu.Lock()
	if err != nil {
		c.perform(c.m.Sent(nil, to, int32(tag), err))
		return c.attribute(to, err)
	}
	c.stats.RecordSend(tag, len(data))
	c.mu.Unlock()
	return nil
}

// Recv implements comm.Communicator. A dead or wedged peer, or a closed
// communicator, fails it promptly with an error wrapping comm.PeerDown or
// ErrClosed, once the frames already queued have been delivered.
func (c *Comm) Recv(from int, tag comm.Tag) ([]byte, error) {
	if from < 0 || from >= len(c.peers) || from == c.cfg.Rank {
		return nil, fmt.Errorf("tcpcomm: rank %d: invalid recv source %d", c.cfg.Rank, from)
	}
	c.mu.Lock()
	f, ok, err := c.m.Take(from, int32(tag))
	var wait float64
	if !ok && err == nil {
		t0 := time.Now()
		id, acts := c.m.Block(nil, c.now(), from, int32(tag))
		c.perform(acts)
		c.mu.Lock()
		for f, ok, err = c.m.Take(from, int32(tag)); !ok && err == nil; f, ok, err = c.m.Take(from, int32(tag)) {
			c.changed.Wait()
		}
		c.m.Unblock(from, id)
		wait = time.Since(t0).Seconds()
	}
	if err != nil {
		c.mu.Unlock()
		return nil, c.attribute(from, err)
	}
	c.stats.RecordRecv(tag, len(f.Payload), wait)
	c.mu.Unlock()
	c.clock.AlignTo(f.SentAt)
	return f.Payload, nil
}

// Close says goodbye to every live peer, so the EOF they see next reads as
// a clean exit, then tears down the connections, the listener and the
// heartbeat pump. Any Recv blocked or issued afterwards fails promptly with
// an error wrapping ErrClosed once the frames already queued are taken.
func (c *Comm) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.quit)
		err = c.listener.Close()
		// The write deadline bounds everything that can hold a send lock —
		// gossip or a heartbeat in flight, a Send wedged on a peer that
		// stopped reading — so Close can wait for it and never skip a bye.
		deadline := time.Now().Add(time.Second)
		c.mu.Lock()
		for _, s := range c.peers {
			if s != nil {
				s.conn.SetWriteDeadline(deadline)
			}
		}
		for c.sending > 0 {
			c.changed.Wait()
		}
		c.timer.Stop()
		c.perform(c.m.Close(nil, ErrClosed))
	})
	return err
}
