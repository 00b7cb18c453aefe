package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"pclouds/internal/comm"
	"pclouds/internal/wire"
)

const (
	tagA = int32(comm.TagUser)
	tagB = int32(comm.TagUser) + 1
)

var errBroken = errors.New("broken pipe")

// mesh is an in-memory network of p machines driven one event at a time.
// Every ordered pair of ranks has a pipe of frames in flight; each event is
// applied to one machine and its actions are performed at once, so a test
// scripts exactly the order in which ranks see what happened.
type mesh struct {
	t         testing.TB
	now       int64
	m         []*Machine
	pipes     [][]*pipe // pipes[i][j]: frames i wrote to j, in order
	closed    [][]bool  // closed[i][j]: i closed its connection to j
	failSends bool      // the machine's own frames fail to send while set
	waits     map[[3]int]int
	taken     [][]string // taken[r]: "q:payload" of every frame rank r received
	accepted  map[[3]int]int
	delivered map[[3]int]int
	serial    int
}

type pipe struct {
	frames []wire.Frame
	eof    bool
}

func newMesh(t testing.TB, p int, cfg Config) *mesh {
	ms := &mesh{t: t, m: make([]*Machine, p), pipes: make([][]*pipe, p), closed: make([][]bool, p),
		waits: map[[3]int]int{}, taken: make([][]string, p), accepted: map[[3]int]int{}, delivered: map[[3]int]int{}}
	addrs := make([]string, p)
	for r := range addrs {
		addrs[r] = fmt.Sprintf("host%d:7000", r)
	}
	for r := 0; r < p; r++ {
		c := cfg
		c.Addrs = addrs
		ms.m[r] = New(c)
		ms.pipes[r], ms.closed[r] = make([]*pipe, p), make([]bool, p)
		for q := 0; q < p; q++ {
			ms.pipes[r][q] = &pipe{}
			if q != r {
				ms.m[r].Open(q, 0)
			}
		}
	}
	return ms
}

// apply performs rank r's actions as the socket driver does.
func (ms *mesh) apply(r int, acts []Action) {
	for _, a := range acts {
		switch a.Op {
		case Send:
			if ms.closed[r][a.Peer] {
				ms.t.Fatalf("rank %d emitted a frame (tag %d) to rank %d after closing that connection", r, a.Frame.Tag, a.Peer)
			}
			var err error
			if ms.failSends {
				err = errBroken
			} else {
				ms.pipes[r][a.Peer].frames = append(ms.pipes[r][a.Peer].frames, a.Frame)
			}
			ms.apply(r, ms.m[r].Sent(nil, a.Peer, a.Frame.Tag, err))
		case Close:
			ms.closed[r][a.Peer] = true
			ms.pipes[r][a.Peer].eof = true
		}
	}
}

// readable reports whether rank j's reader for rank i has something to
// read: a frame, or EOF.
func (ms *mesh) readable(j, i int) bool {
	p := ms.pipes[i][j]
	return i != j && !ms.closed[j][i] && (len(p.frames) > 0 || p.eof)
}

// read is rank j's reader taking the next frame, or EOF, from rank i.
func (ms *mesh) read(j, i int) {
	ms.t.Helper()
	if !ms.readable(j, i) {
		ms.t.Fatalf("rank %d has nothing to read from rank %d", j, i)
	}
	p := ms.pipes[i][j]
	if len(p.frames) == 0 {
		ms.apply(j, ms.m[j].ReadError(nil, ms.now, i, io.EOF))
		ms.closed[j][i] = true // the reader goroutine has returned
		return
	}
	f := p.frames[0]
	p.frames = p.frames[1:]
	before := ms.m[j].Link(i)
	acts := ms.m[j].Received(nil, ms.now, i, f)
	if f.Tag >= 0 && !before.Closed {
		ms.accepted[[3]int{j, i, int(f.Tag)}]++
	}
	if f.Tag == DownTag && len(f.Payload) == 5 {
		down := int(binary.LittleEndian.Uint32(f.Payload))
		if down < len(ms.m) && down != j && (f.Payload[4] != 0 || ms.m[j].Link(down).Finished) {
			for _, a := range acts {
				if a.Op == Close && a.Peer == down {
					ms.t.Fatalf("rank %d closed its connection to finished rank %d on gossip from rank %d", j, down, i)
				}
			}
		}
	}
	ms.apply(j, acts)
}

// drain reads everything rank j can read from rank i, EOF included.
func (ms *mesh) drain(j, i int) {
	for ms.readable(j, i) {
		ms.read(j, i)
	}
}

// send is an application Send of a data frame: it succeeds, or fails on a
// connection the rank has closed.
func (ms *mesh) send(r, q int, tag int32, payload string) {
	if ms.closed[r][q] {
		ms.sendErr(r, q, tag)
		return
	}
	ms.pipes[r][q].frames = append(ms.pipes[r][q].frames, wire.Frame{Tag: tag, Payload: []byte(payload)})
}

// sendErr is an application Send whose write failed.
func (ms *mesh) sendErr(r, q int, tag int32) { ms.apply(r, ms.m[r].Sent(nil, q, tag, errBroken)) }

func (ms *mesh) tick(r int)  { ms.apply(r, ms.m[r].Tick(nil, ms.now)) }
func (ms *mesh) timer(r int) { ms.apply(r, ms.m[r].Timer(nil, ms.now)) }
func (ms *mesh) close(r int) { ms.apply(r, ms.m[r].Close(nil, errLocalClose)) }

var errLocalClose = errors.New("communicator closed")

// recv is one attempt of a Recv on (q, tag) by rank r: it returns the frame
// taken, or the failure surfaced, or blocked. A blocked receive stays
// registered with the machine until an attempt completes it.
func (ms *mesh) recv(r, q int, tag int32) (payload string, err error, blocked bool) {
	key := [3]int{r, q, int(tag)}
	f, ok, err := ms.m[r].Take(q, tag)
	if _, waiting := ms.waits[key]; !ok && err == nil && !waiting {
		id, acts := ms.m[r].Block(nil, ms.now, q, tag)
		ms.waits[key] = id
		ms.apply(r, acts)
		f, ok, err = ms.m[r].Take(q, tag)
	}
	if !ok && err == nil {
		return "", nil, true
	}
	if id, waiting := ms.waits[key]; waiting {
		ms.m[r].Unblock(q, id)
		delete(ms.waits, key)
	}
	if err != nil {
		if ms.accepted[key] != ms.delivered[key] {
			ms.t.Fatalf("rank %d: failure from rank %d surfaced with %d tag %d frames undelivered",
				r, q, ms.accepted[key]-ms.delivered[key], tag)
		}
		return "", err, false
	}
	ms.delivered[key]++
	ms.taken[r] = append(ms.taken[r], fmt.Sprintf("%d:%s", q, f.Payload))
	return string(f.Payload), nil, false
}

// root returns rank r's attributed root rank, -1 for none.
func (ms *mesh) root(r int) int {
	if pd := ms.m[r].Root(); pd != nil {
		return pd.Rank
	}
	return -1
}

// want asserts every rank's root, PeerDowns and delivered frames.
func (ms *mesh) want(roots []int, downs []int64, taken [][]string) {
	ms.t.Helper()
	for r := range ms.m {
		if got := ms.root(r); got != roots[r] {
			ms.t.Errorf("rank %d: root %d, want %d (%v)", r, got, roots[r], ms.m[r].Root())
		}
		if got := ms.m[r].Stats().PeerDowns; got != downs[r] {
			ms.t.Errorf("rank %d: PeerDowns %d, want %d", r, got, downs[r])
		}
		if got, want := strings.Join(ms.taken[r], ","), strings.Join(taken[r], ","); got != want {
			ms.t.Errorf("rank %d: delivered [%s], want [%s]", r, got, want)
		}
	}
}

// mustFail asserts that a Recv of rank r on (q, tag) fails with a PeerDown
// naming q whose cause contains cause.
func (ms *mesh) mustFail(r, q int, tag int32, cause string) {
	ms.t.Helper()
	_, err, blocked := ms.recv(r, q, tag)
	pd, ok := comm.AsPeerDown(err)
	if blocked || !ok || pd.Rank != q || !strings.Contains(pd.Cause, cause) {
		ms.t.Fatalf("rank %d Recv from %d: want PeerDown(%d, %q), got %v (blocked %v)", r, q, q, cause, err, blocked)
	}
}

// mustTake asserts that a Recv of rank r on (q, tag) delivers payload.
func (ms *mesh) mustTake(r, q int, tag int32, payload string) {
	ms.t.Helper()
	got, err, blocked := ms.recv(r, q, tag)
	if got != payload || err != nil || blocked {
		ms.t.Fatalf("rank %d Recv from %d: got %q, %v (blocked %v), want %q", r, q, got, err, blocked, payload)
	}
}

// heartbeats runs ranks 0 and 1 through two heartbeat periods in which they
// hear each other and rank 2 stays mute.
func (ms *mesh) heartbeats() {
	for ms.now = 100e6; ms.now <= 200e6; ms.now += 100e6 {
		ms.tick(0)
		ms.tick(1)
		ms.drain(0, 1)
		ms.drain(1, 0)
	}
}

func none(p int) [][]string { return make([][]string, p) }

// TestOrderTable pins, for p = 3, the attribution every event order
// produces: each row scripts who reads, ticks, times out, sends and closes
// in which order, and asserts every rank's root, its PeerDowns count and
// the frames it was delivered.
func TestOrderTable(t *testing.T) {
	const ms100 = int64(100e6)
	hb := Config{Heartbeats: true, PeerTimeout: 3 * ms100}
	quiet := Config{PeerTimeout: 3 * ms100}
	rows := []struct {
		name string
		cfg  Config
		run  func(ms *mesh)
	}{
		{"silence caught by a tick with heartbeats on", hb, func(ms *mesh) {
			ms.heartbeats()
			ms.now = 3 * ms100
			ms.tick(0)
			ms.drain(1, 0) // heartbeat and gossip, before rank 1's own tick
			ms.mustFail(0, 2, tagA, "silent for 0.3s")
			ms.mustFail(1, 2, tagA, "reported down by rank 0")
			ms.want([]int{2, 2, -1}, []int64{1, 1, 0}, none(3))
		}},
		{"silence caught by a blocked Recv with heartbeats off", quiet, func(ms *mesh) {
			ms.now = ms100
			if _, _, blocked := ms.recv(0, 1, tagA); !blocked {
				ms.t.Fatal("Recv did not block")
			}
			ms.now = 3 * ms100
			ms.timer(0)
			ms.mustFail(0, 1, tagA, "silent")
			ms.drain(2, 0) // rank 0's gossip
			ms.mustFail(2, 1, tagA, "reported down by rank 0")
			ms.want([]int{1, -1, 1}, []int64{1, 0, 1}, none(3))
		}},
		{"an idle peer with heartbeats off is never declared", quiet, func(ms *mesh) {
			ms.now = 1000 * ms100
			for r := 0; r < 3; r++ {
				ms.timer(r)
			}
			ms.send(1, 0, tagA, "late")
			ms.drain(0, 1)
			ms.mustTake(0, 1, tagA, "late") // queued: taken without blocking
			ms.want([]int{-1, -1, -1}, []int64{0, 0, 0}, [][]string{{"1:late"}, nil, nil})
		}},
		{"RecvTimeout with heartbeats arriving", Config{Heartbeats: true, PeerTimeout: 10 * ms100, RecvTimeout: 4 * ms100}, func(ms *mesh) {
			ms.recv(0, 1, tagA)
			for ms.now = ms100; ms.now < 4*ms100; ms.now += ms100 {
				ms.tick(1)
				ms.drain(0, 1)
				ms.timer(0)
			}
			if _, _, blocked := ms.recv(0, 1, tagA); !blocked {
				ms.t.Fatal("Recv failed before its deadline while heartbeats arrive")
			}
			ms.now = 4 * ms100
			ms.timer(0)
			ms.mustFail(0, 1, tagA, "receive deadline: blocked 0.4s waiting for tag 100")
			ms.want([]int{1, -1, -1}, []int64{1, 0, 0}, none(3))
		}},
		{"gossip read before the reporter's EOF", hb, func(ms *mesh) {
			// Rank 0 loses rank 2's connection, takes the frame rank 2 sent
			// before it died, fails its build and closes.
			ms.send(2, 0, tagA, "pre-death")
			ms.pipes[2][0].eof = true
			ms.drain(0, 2)
			ms.mustTake(0, 2, tagA, "pre-death")
			ms.mustFail(0, 2, tagA, "connection failed")
			ms.sendErr(0, 2, tagA) // a failed peer is not declared again
			ms.mustFail(0, 2, tagA, "connection failed")
			ms.close(0)
			// Rank 1 reads gossip, bye and EOF in TCP order, then needs a
			// frame from rank 0.
			ms.drain(1, 0)
			ms.mustFail(1, 0, tagA, "peer finished")
			ms.want([]int{2, 2, -1}, []int64{1, 2, 0}, [][]string{{"2:pre-death"}, nil, nil})
		}},
		{"bye then EOF declares nothing", hb, func(ms *mesh) {
			ms.close(2)
			ms.drain(0, 2)
			ms.drain(1, 2)
			ms.heartbeats()
			ms.now = 4 * ms100 // rank 2 is past PeerTimeout, but a finished peer is never silent
			ms.tick(0)
			ms.tick(1)
			ms.want([]int{-1, -1, -1}, []int64{0, 0, 0}, none(3))
			if l := ms.m[0].Link(2); !l.Finished || !l.Closed || l.Err != nil {
				ms.t.Fatalf("rank 0's link to the finished rank 2: %+v", l)
			}
		}},
		{"a finished peer, and a Recv that needs a frame it never sent", hb, func(ms *mesh) {
			ms.send(2, 1, tagA, "last")
			ms.close(2)
			ms.drain(0, 2)
			ms.mustFail(0, 2, tagA, "peer finished")
			// The gossip carries the finished flag and reaches rank 1 before
			// anything from rank 2: rank 1 keeps the root and its connection.
			ms.drain(1, 0)
			if l := ms.m[1].Link(2); l.Closed || l.Err != nil {
				ms.t.Fatalf("gossip closed rank 1's link to the finished rank 2: %+v", l)
			}
			ms.drain(1, 2)
			ms.mustTake(1, 2, tagA, "last")
			ms.want([]int{2, 2, -1}, []int64{1, 0, 0}, [][]string{nil, {"2:last"}, nil})
		}},
		{"two peers failing in one step, then Close", hb, func(ms *mesh) {
			ms.pipes[1][0].eof = true
			ms.pipes[2][0].eof = true
			ms.read(0, 1)
			ms.read(0, 2)
			ms.close(0)
			ms.mustFail(0, 1, tagA, "connection failed")
			ms.mustFail(0, 2, tagA, "connection failed")
			if got := ms.pipes[0][2].frames; len(got) != 1 || got[0].Tag != DownTag {
				ms.t.Fatalf("rank 0 wrote %v to rank 2, want the one gossip frame and no bye", got)
			}
			ms.want([]int{1, -1, -1}, []int64{2, 0, 0}, none(3))
		}},
		{"a failed heartbeat send declares nothing", hb, func(ms *mesh) {
			ms.failSends = true
			ms.tick(0)
			ms.failSends = false
			ms.tick(0)
			if s := ms.m[0].Stats(); s.HeartbeatsSent != 2 {
				ms.t.Fatalf("HeartbeatsSent %d, want the 2 that went out", s.HeartbeatsSent)
			}
			ms.want([]int{-1, -1, -1}, []int64{0, 0, 0}, none(3))
		}},
		{"a failed data send during local Close declares nothing", hb, func(ms *mesh) {
			ms.close(0)
			ms.sendErr(0, 1, tagA)
			if _, err, _ := ms.recv(0, 1, tagA); !errors.Is(err, errLocalClose) {
				ms.t.Fatalf("Recv after Close: %v, want the close error", err)
			}
			ms.sendErr(1, 2, tagA) // while open, the same failure is a PeerDown
			ms.want([]int{-1, 2, -1}, []int64{0, 1, 0}, none(3))
		}},
		{"item 14: the reporter's teardown reaches a bystander before its gossip", hb, func(ms *mesh) {
			// Rank 2 is mute. Rank 0's tick declares it and writes the
			// gossip to rank 1, then rank 0 fails its build and closes.
			ms.heartbeats()
			ms.now = 4 * ms100
			ms.tick(0)
			ms.close(0)
			// Gossip, bye and EOF sit unread in rank 1's socket, but rank
			// 1's write path sees the teardown first: a data Send to rank 0
			// fails (the reset of a connection closed with data unread).
			// TCP orders one connection's reads, not a read against a
			// write, so real sockets deliver this order whenever rank 1's
			// reader lags behind its sender. Today the bystander blames the
			// reporter; item 14's fix (the root carried in the protocol)
			// flips this one value to 2.
			ms.sendErr(1, 0, tagA)
			ms.drain(1, 0) // the connection is closed: the gossip is never read
			ms.mustFail(1, 0, tagA, "send failed")
			ms.want([]int{2, 0, -1}, []int64{1, 1, 0}, none(3))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(newMesh(t, 3, row.cfg)) })
	}
}

// TestAdmit pins the hello verdicts: a stale, a newer and a duplicate hello
// through Admit, as bring-up and the doorman ask it, and the dialer's
// reading of each ack.
func TestAdmit(t *testing.T) {
	const self, ours = 2, uint32(5)
	for _, c := range []struct {
		name  string
		from  int
		gen   uint32
		taken bool
		want  Admission
		ack   uint32
		dial  Verdict
	}{
		{"match", 1, 5, false, Admitted, AckOK, Connected},
		{"stale", 1, 4, false, Stale, AckWrongGeneration, Fenced},
		{"stale claiming a taken slot", 0, 4, true, Stale, AckWrongGeneration, Fenced},
		{"newer", 1, 6, false, Newer, AckWrongGeneration, Retry},
		{"duplicate", 1, 5, true, Duplicate, AckDuplicateRank, Taken},
		{"higher rank at bring-up", 3, 5, false, Invalid, AckDuplicateRank, Taken},
		{"negative rank", -1, 5, false, Invalid, AckDuplicateRank, Taken},
		{"doorman, any rank at our generation", 3, 5, true, Duplicate, AckDuplicateRank, Taken},
	} {
		v := Admit(c.from, c.gen, self, ours, c.taken)
		if v != c.want || v.Ack() != c.ack {
			t.Errorf("%s: Admit = %d (ack %d), want %d (ack %d)", c.name, v, v.Ack(), c.want, c.ack)
		}
		// The dialer is at c.gen and reads the acceptor's generation ours.
		if got := Answer(v.Ack(), ours, c.gen); got != c.dial {
			t.Errorf("%s: Answer = %d, want %d", c.name, got, c.dial)
		}
	}
	if got := Answer(9, ours, ours); got != Unknown {
		t.Errorf("unknown status: Answer = %d, want Unknown", got)
	}
}

// FuzzPeerMachine drives p = 2, 3 or 4 machines through drawn event
// sequences and checks the protocol's invariants after every step: a peer
// is declared down at most once and keeps its first failure, PeerDowns
// counts the declarations, frames queued before a failure are delivered
// before it surfaces, the root cause never changes, no frame goes out on a
// connection after its close, and gossip never closes a finished peer's
// connection (the last two are checked as the actions are performed).
func FuzzPeerMachine(f *testing.F) {
	f.Add([]byte{1, 0x07, 0x02, 0x11, 0, 1, 0x03, 1, 0, 0x04, 0, 1, 0x05, 2, 0, 0x00, 1, 2, 0x10, 0, 2})
	f.Add([]byte{2, 0x06, 0x00, 0x03, 2, 1, 0x05, 2, 0, 0x00, 0, 2, 0x00, 0, 2, 0x04, 0, 2, 0x00, 1, 0, 0x00, 1, 2})
	f.Add([]byte{0, 0x03, 0x03, 0x04, 0, 1, 0xf2, 0, 0, 0x06, 1, 0, 0x00, 0, 1, 0x07, 0, 0, 0x01, 0, 0, 0x05, 1, 1})
	f.Add([]byte{0, 0x00, 0x00, 0x03, 1, 0, 0x00, 0, 1, 0x06, 0, 1, 0x04, 0, 1, 0x04, 0, 1, 0x06, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		p := 2 + int(data[0])%3
		cfg := Config{Heartbeats: data[1]&1 != 0, PeerTimeout: int64(data[1]>>1&7) * 100, RecvTimeout: int64(data[2]&7) * 100}
		ms := newMesh(t, p, cfg)
		errs := make([][]error, p)
		roots := make([]*comm.PeerDown, p)
		for r := range errs {
			errs[r] = make([]error, p)
		}
		for i := 3; i+2 < len(data); i += 3 {
			op, a, b := data[i], int(data[i+1])%p, int(data[i+2])%p
			ms.now += int64(op>>4) * 40
			tag := [2]int32{tagA, tagB}[op>>7]
			switch op % 8 {
			case 0:
				if ms.readable(a, b) {
					ms.read(a, b)
				}
			case 1:
				if cfg.Heartbeats {
					ms.tick(a)
				}
			case 2:
				ms.timer(a)
			case 3:
				if a != b {
					ms.serial++
					ms.send(a, b, tag, fmt.Sprint(ms.serial))
				}
			case 4:
				if a != b {
					ms.recv(a, b, tag)
				}
			case 5:
				ms.close(a)
			case 6:
				if a != b {
					ms.sendErr(a, b, tag)
				}
			case 7:
				ms.failSends = !ms.failSends
			}
			for r, m := range ms.m {
				var declared int64
				for q := range ms.m {
					if q == r {
						continue
					}
					err := m.Link(q).Err
					if errs[r][q] != nil && err != errs[r][q] {
						t.Fatalf("rank %d: peer %d's failure changed from %v to %v", r, q, errs[r][q], err)
					}
					errs[r][q] = err
					if _, ok := err.(*comm.PeerDown); ok {
						declared++
					}
				}
				if got := m.Stats().PeerDowns; got != declared {
					t.Fatalf("rank %d: PeerDowns %d, but %d peers declared", r, got, declared)
				}
				if roots[r] != nil && m.Root() != roots[r] {
					t.Fatalf("rank %d: root changed from %v to %v", r, roots[r], m.Root())
				}
				roots[r] = m.Root()
			}
		}
	})
}
