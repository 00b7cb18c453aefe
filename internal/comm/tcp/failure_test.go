package tcpcomm

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/comm/peer"
	"pclouds/internal/costmodel"
)

// dialGroupCfg brings up a full TCP group in-process with per-test config
// overrides applied on top of the defaults.
func dialGroupCfg(t *testing.T, p int, mod func(r int, cfg *Config)) []*Comm {
	t.Helper()
	addrs := freeAddrs(t, p)
	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Addrs: addrs, Params: costmodel.Zero(), DialTimeout: 10 * time.Second}
			if mod != nil {
				mod(r, &cfg)
			}
			comms[r], errs[r] = Dial(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	})
	return comms
}

// TestCloseWakesBlockedRecv is the regression test that a local Close wakes
// a Recv blocked on a live peer promptly, with an error wrapping ErrClosed
// (not a PeerDown: no peer failed, the local process chose to stop).
func TestCloseWakesBlockedRecv(t *testing.T) {
	comms := dialGroup(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, comm.TagUser)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the Recv block
	comms[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if _, ok := comm.AsPeerDown(err); ok {
			t.Fatalf("local Close must not report a peer down: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after Close")
	}
}

// TestHelloReadDeadline: a rogue client that connects but never sends its
// hello must fail mesh setup within HelloTimeout instead of wedging it.
func TestHelloReadDeadline(t *testing.T) {
	addrs := freeAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		// Rank 1 accepts one connection from rank 0.
		_, err := Dial(Config{Rank: 1, Addrs: addrs, Params: costmodel.Zero(),
			DialTimeout: 5 * time.Second, HelloTimeout: 300 * time.Millisecond})
		done <- err
	}()
	// Connect to rank 1's listener but stay silent.
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addrs[1])
		if err == nil {
			conn = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not reach listener: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent hello should fail Dial")
		}
		if !strings.Contains(err.Error(), "hello") {
			t.Fatalf("error should name the hello exchange: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial wedged on a silent hello")
	}
}

// TestRemoteDeathDetected: when a peer's process goes away (its connection
// closes), every blocked Recv on it fails promptly with a PeerDown naming
// the dead rank.
func TestRemoteDeathDetected(t *testing.T) {
	comms := dialGroup(t, 3)
	done := make(chan error, 2)
	for _, r := range []int{0, 1} {
		go func(r int) {
			_, err := comms[r].Recv(2, comm.TagUser)
			done <- err
		}(r)
	}
	time.Sleep(100 * time.Millisecond)
	comms[2].Close() // rank 2 "dies"
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			pd, ok := comm.AsPeerDown(err)
			if !ok {
				t.Fatalf("want PeerDown, got %v", err)
			}
			if pd.Rank != 2 {
				t.Fatalf("PeerDown attributes rank %d, want 2 (%v)", pd.Rank, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv still blocked 5s after remote death")
		}
	}
}

// TestSilentPeerDetected: a peer that is connected but sends neither data
// nor heartbeats trips PeerTimeout and surfaces as PeerDown with the
// silence named as cause.
func TestSilentPeerDetected(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.PeerTimeout = 400 * time.Millisecond
		if r == 1 {
			cfg.HeartbeatInterval = -1 // rank 1 is alive but mute
		} else {
			cfg.HeartbeatInterval = 100 * time.Millisecond
		}
	})
	start := time.Now()
	_, err := comms[0].Recv(1, comm.TagUser)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("detection took %v, want ~PeerTimeout", elapsed)
	}
	pd, ok := comm.AsPeerDown(err)
	if !ok {
		t.Fatalf("want PeerDown, got %v", err)
	}
	if pd.Rank != 1 || !strings.Contains(pd.Cause, "silent") {
		t.Fatalf("unexpected attribution: %+v", pd)
	}
	if s := comms[0].Stats(); s.PeerDowns != 1 {
		t.Fatalf("PeerDowns stat = %d, want 1", s.PeerDowns)
	}
}

// TestHeartbeatsPreventFalsePositive: a Recv blocked far longer than
// PeerTimeout must still succeed when the peer's heartbeats keep arriving —
// slowness is not death.
func TestHeartbeatsPreventFalsePositive(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.PeerTimeout = 250 * time.Millisecond
		cfg.HeartbeatInterval = 50 * time.Millisecond
	})
	go func() {
		time.Sleep(time.Second) // 4x PeerTimeout of pure heartbeat traffic
		comms[1].Send(0, comm.TagUser, []byte("late"))
	}()
	b, err := comms[0].Recv(1, comm.TagUser)
	if err != nil {
		t.Fatalf("live-but-slow peer misdetected: %v", err)
	}
	if string(b) != "late" {
		t.Fatalf("payload %q", b)
	}
	if s := comms[0].Stats(); s.HeartbeatsRecv == 0 {
		t.Fatal("expected heartbeats to have arrived")
	}
}

// TestRecvTimeoutCatchesWedgedPeer: with RecvTimeout set, a peer that stays
// alive (heartbeating) but never delivers the awaited frame is declared
// down with the receive deadline as cause.
func TestRecvTimeoutCatchesWedgedPeer(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.RecvTimeout = 400 * time.Millisecond
	})
	start := time.Now()
	_, err := comms[0].Recv(1, comm.TagUser)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("detection took %v, want ~RecvTimeout", elapsed)
	}
	pd, ok := comm.AsPeerDown(err)
	if !ok {
		t.Fatalf("want PeerDown, got %v", err)
	}
	if pd.Rank != 1 || !strings.Contains(pd.Cause, "receive deadline") {
		t.Fatalf("unexpected attribution: %+v", pd)
	}
}

// TestQueuedFramesDrainBeforeFailure: frames that arrived before the peer
// died are still delivered; only then does the failure surface.
func TestQueuedFramesDrainBeforeFailure(t *testing.T) {
	comms := dialGroup(t, 2)
	if err := comms[1].Send(0, comm.TagUser, []byte("pre-death")); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to land in rank 0's queue, then kill rank 1.
	waitUntil(t, func() bool { return linkOf(comms[0], 1).Queued > 0 })
	comms[1].Close()
	b, err := comms[0].Recv(1, comm.TagUser)
	if err != nil {
		t.Fatalf("queued frame lost to failure: %v", err)
	}
	if string(b) != "pre-death" {
		t.Fatalf("payload %q", b)
	}
	if _, err := comms[0].Recv(1, comm.TagUser); err == nil {
		t.Fatal("drained queue should surface the failure")
	}
}

// linkOf reads c's protocol state for its peer q.
func linkOf(c *Comm, q int) peer.Link {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Link(q)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHeartbeatsExcludedFromTraffic: heartbeats are control frames and must
// never leak into the message/byte counters the parity tests compare
// against the channel transport.
func TestHeartbeatsExcludedFromTraffic(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	})
	time.Sleep(300 * time.Millisecond)
	for r, c := range comms {
		s := c.Stats()
		if s.HeartbeatsSent == 0 {
			t.Fatalf("rank %d: no heartbeats sent", r)
		}
		if s.MsgsSent != 0 || s.BytesSent != 0 || s.MsgsRecv != 0 {
			t.Fatalf("rank %d: heartbeats leaked into traffic stats: %+v", r, s)
		}
	}
}

// TestConcurrentPeerFailuresNoDeadlock: two peers of a 4-rank mesh are
// declared down at the same moment, from two goroutines that each feed the
// protocol machine a read error, and Close must still return with both
// declarations counted. Two simultaneous failures followed by Close once
// deadlocked the per-peer locking design this machine replaced.
func TestConcurrentPeerFailuresNoDeadlock(t *testing.T) {
	const rounds = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds && !t.Failed(); i++ {
			comms := dialGroupCfg(t, 4, func(r int, cfg *Config) { cfg.HeartbeatInterval = -1 })
			c := comms[0]
			var wg sync.WaitGroup
			start := make(chan struct{})
			for _, r := range []int{1, 2} {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					<-start
					c.mu.Lock()
					c.perform(c.m.ReadError(nil, c.now(), q, errors.New("injected")))
				}(r)
			}
			close(start)
			wg.Wait()
			for _, c := range comms {
				c.Close()
			}
			// The cascade may add more: ranks 1 and 2 see rank 0's side of
			// their connections drop and say so to rank 3.
			if s := c.Stats(); s.PeerDowns < 2 {
				t.Errorf("round %d: PeerDowns = %d, want at least the 2 injected", i, s.PeerDowns)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("concurrent peer failures followed by Close deadlocked")
	}
}

// TestFinishedPeerDoesNotPoisonOthers: rank 2 closes (a clean exit, bye
// first) while rank 0 is blocked in Recv from the healthy rank 1. Rank 0
// must get its frame — no PeerDown, no gossip, and no silence verdict on
// the finished peer however long it stays quiet — and the finished peer
// only becomes a failure for a Recv that needs a frame it never sent. That
// failure reaches rank 1 as a root cause only: rank 1's connection to the
// finished peer stays intact and still delivers what was sent before the bye.
func TestFinishedPeerDoesNotPoisonOthers(t *testing.T) {
	comms := dialGroupCfg(t, 3, func(r int, cfg *Config) {
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.PeerTimeout = 300 * time.Millisecond
	})
	got := make(chan error, 1)
	go func() {
		b, err := comms[0].Recv(1, comm.TagUser)
		if err == nil && string(b) != "late" {
			err = fmt.Errorf("payload %q", b)
		}
		got <- err
	}()
	if err := comms[2].Send(1, comm.TagUser, []byte("last")); err != nil {
		t.Fatal(err)
	}
	comms[2].Close()
	waitUntil(t, func() bool {
		l := linkOf(comms[0], 2)
		return l.Finished && l.Closed
	})
	time.Sleep(2 * comms[0].cfg.PeerTimeout) // the silence monitor gets its chance
	for r := 0; r < 2; r++ {
		if s := comms[r].Stats(); s.PeerDowns != 0 {
			t.Fatalf("rank %d declared %d peers down after a clean exit", r, s.PeerDowns)
		}
	}
	if err := comms[1].Send(0, comm.TagUser, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Recv from the healthy peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv from the healthy peer still blocked")
	}
	_, err := comms[0].Recv(2, comm.TagUser)
	pd, ok := comm.AsPeerDown(err)
	if !ok || pd.Rank != 2 || !strings.Contains(pd.Cause, "finished") {
		t.Fatalf("Recv from the finished peer: want PeerDown(rank 2, finished), got %v", err)
	}
	waitUntil(t, func() bool { // rank 0's gossip has reached rank 1
		comms[1].mu.Lock()
		defer comms[1].mu.Unlock()
		return comms[1].m.Root() != nil
	})
	if err := linkOf(comms[1], 2).Err; err != nil {
		t.Fatalf("rank 1 failed its connection to the finished peer on gossip: %v", err)
	}
	if b, err := comms[1].Recv(2, comm.TagUser); err != nil || string(b) != "last" {
		t.Fatalf("rank 1 lost the finished peer's last frame: %q, %v", b, err)
	}
}

// TestCloseSaysByeUnderSendContention: Close waits for a connection's send
// lock (a heartbeat or Send in flight holds it) instead of skipping the
// goodbye, so the peer still sees a clean exit.
func TestCloseSaysByeUnderSendContention(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) { cfg.HeartbeatInterval = -1 })
	pe := comms[0].peers[1]
	pe.sendM.Lock()
	closed := make(chan struct{})
	go func() {
		comms[0].Close()
		close(closed)
	}()
	time.Sleep(50 * time.Millisecond)
	pe.sendM.Unlock()
	<-closed
	waitUntil(t, func() bool { return linkOf(comms[1], 0).Closed })
	if err := linkOf(comms[1], 0).Err; err != nil {
		t.Fatalf("a clean Close behind a busy send lock read as a failure: %v", err)
	}
}

// TestSendWriteErrorIsPeerDown: a write that fails on an established
// connection surfaces as comm.PeerDown (which driver.Loop recovers from),
// not as a bare socket error.
func TestSendWriteErrorIsPeerDown(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) { cfg.HeartbeatInterval = -1 })
	// Rank 0's socket to rank 1 breaks under it with no goodbye. The write
	// usually loses no race and is what declares the peer ("send failed");
	// when rank 1's reaction to the half-close reaches rank 0's reader first,
	// the declaration is the reader's. Either way it is a PeerDown.
	comms[0].peers[1].conn.(*net.TCPConn).CloseWrite()
	err := comms[0].Send(1, comm.TagUser, []byte("x"))
	if pd, ok := comm.AsPeerDown(err); !ok || pd.Rank != 1 {
		t.Fatalf("want PeerDown(rank 1), got %v", err)
	}
}
