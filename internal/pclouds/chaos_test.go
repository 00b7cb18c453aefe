package pclouds

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/fault"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Chaos acceptance tests (ISSUE 4): a 4-rank file-backed distributed build
// under injected faults must either recover to the bit-identical tree or
// fail with a clean, attributed error within a deadline — never hang.

const chaosDeadline = 60 * time.Second

func reservePorts(t *testing.T, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// chaosComm dials one rank of a TCP mesh tuned for fast failure detection.
func chaosComm(rank int, addrs []string) (*tcpcomm.Comm, error) {
	return tcpcomm.Dial(tcpcomm.Config{
		Rank: rank, Addrs: addrs,
		Params:            costmodel.Zero(),
		DialTimeout:       15 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		PeerTimeout:       2 * time.Second,
	})
}

// stageFileStore creates a file-backed store for one rank and deals it the
// round-robin share of the data.
func stageFileStore(dir string, rank, p int, data *record.Dataset) (*ooc.Store, error) {
	store, err := ooc.NewFileStore(data.Schema, dir, costmodel.Zero(), nil)
	if err != nil {
		return nil, err
	}
	w, err := store.CreateWriter("root")
	if err != nil {
		return nil, err
	}
	for i := rank; i < data.Len(); i += p {
		if err := w.Write(data.Records[i]); err != nil {
			w.Close()
			return nil, err
		}
	}
	return store, w.Close()
}

// watchdog fails the test if fn has not returned within chaosDeadline — the
// "never a hang" half of the acceptance criterion.
func watchdog(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(chaosDeadline):
		t.Fatalf("%s: still running after %v — a rank is hung", name, chaosDeadline)
	}
}

// TestChaosKilledRankThenResume is the headline scenario: a 4-rank
// file-backed build is killed after two levels (simulated by the
// deterministic StopAfterLevel kill, which leaves exactly what a real
// level-boundary crash leaves: checkpoints plus frontier files). A first
// restart attempt loses rank 3 right after the mesh forms — every live rank
// must get a prompt PeerDown naming rank 3. A second restart with all four
// ranks resumes from the checkpoint and must produce the bit-identical tree
// of an uninterrupted build.
func TestChaosKilledRankThenResume(t *testing.T) {
	poisonPages(t)
	const p = 4
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)

	// Reference tree from an uninterrupted (channel-transport) build; the
	// tree is transport-independent.
	ref, _ := buildParallel(t, cfg, data, sample, p)

	ckptDir := t.TempDir()
	storeRoot := t.TempDir()
	stores := make([]*ooc.Store, p)
	for r := 0; r < p; r++ {
		st, err := stageFileStore(filepath.Join(storeRoot, fmt.Sprintf("rank%d", r)), r, p, data)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}

	// Phase 1: build with checkpointing, killed after level 2.
	watchdog(t, "phase 1 (checkpointed build + kill)", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				kcfg := cfg
				kcfg.CheckpointDir = ckptDir
				kcfg.StopAfterLevel = 2
				_, _, errs[r] = Build(kcfg, c, stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if !errors.Is(err, ErrStopped) {
				t.Errorf("phase 1 rank %d: want ErrStopped, got %v", r, err)
			}
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: restart, but rank 3 dies immediately after the mesh forms.
	// Ranks 0-2 enter the resume collectives and must all fail with a
	// PeerDown attributing rank 3 — promptly, not after a hang.
	watchdog(t, "phase 2 (rank 3 dies at restart)", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				if r == 3 { // rank 3 "crashes" right after connecting
					c.Close()
					return
				}
				defer c.Close()
				rcfg := cfg
				rcfg.CheckpointDir = ckptDir
				rcfg.Resume = true
				_, _, errs[r] = Build(rcfg, c, stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r := 0; r < 3; r++ {
			pd, ok := comm.AsPeerDown(errs[r])
			if !ok {
				t.Errorf("phase 2 rank %d: want PeerDown, got %v", r, errs[r])
				continue
			}
			if pd.Rank != 3 {
				t.Errorf("phase 2 rank %d: PeerDown attributes rank %d, want 3", r, pd.Rank)
			}
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Phase 3: full restart; the resumed build completes and matches the
	// uninterrupted reference bit-for-bit on every rank.
	watchdog(t, "phase 3 (full resume)", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		trees := make([]*tree.Tree, p)
		stats := make([]*Stats, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				rcfg := cfg
				rcfg.CheckpointDir = ckptDir
				rcfg.Resume = true
				trees[r], stats[r], errs[r] = Build(rcfg, c, stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Errorf("phase 3 rank %d: %v", r, err)
			}
		}
		if t.Failed() {
			return
		}
		for r := 0; r < p; r++ {
			if stats[r].ResumedLevel != 2 {
				t.Errorf("phase 3 rank %d resumed from level %d, want 2", r, stats[r].ResumedLevel)
			}
			if !tree.Equal(ref, trees[r]) {
				t.Errorf("phase 3 rank %d: resumed tree differs from uninterrupted build", r)
			}
		}
	})
}

// TestChaosWedgedRankDetected: a rank that joins the mesh but then neither
// computes nor heartbeats (process alive, thread wedged — or a partitioned
// network) is detected by silence and attributed, within the detection
// deadline, on every live rank.
func TestChaosWedgedRankDetected(t *testing.T) {
	const p = 3
	data := makeData(t, 2000, 1, 5)
	cfg := testConfig(clouds.SS)
	sample := cfg.Clouds.SampleFor(data)

	watchdog(t, "wedged rank", func() {
		addrs := reservePorts(t, p)
		release := make(chan struct{})
		liveDone := make(chan struct{}, 2)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				cfgTCP := tcpcomm.Config{
					Rank: r, Addrs: addrs,
					Params:            costmodel.Zero(),
					DialTimeout:       15 * time.Second,
					HeartbeatInterval: 100 * time.Millisecond,
					PeerTimeout:       1500 * time.Millisecond,
				}
				if r == 2 {
					cfgTCP.HeartbeatInterval = -1 // wedged: alive but mute
				}
				c, err := tcpcomm.Dial(cfgTCP)
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				if r == 2 {
					<-release // never participates in the build
					return
				}
				store := ooc.NewMemStore(data.Schema, costmodel.Zero(), c.Clock())
				w, _ := store.CreateWriter("root")
				for i := r; i < data.Len(); i += p {
					w.Write(data.Records[i])
				}
				w.Close()
				_, _, errs[r] = Build(cfg, c, store, "root", sample)
				liveDone <- struct{}{}
				// Hold the transport (and its heartbeats) open briefly so the
				// other live rank's own silence monitor observes rank 2 —
				// rather than a teardown cascade from this rank — before the
				// deferred Close.
				time.Sleep(500 * time.Millisecond)
			}(r)
		}
		go func() {
			// Free the wedged rank once both live ranks have failed; the
			// watchdog bounds the whole arrangement.
			<-liveDone
			<-liveDone
			close(release)
		}()
		wg.Wait()
		for r := 0; r < 2; r++ {
			pd, ok := comm.AsPeerDown(errs[r])
			if !ok {
				t.Errorf("rank %d: want PeerDown for the wedged peer, got %v", r, errs[r])
				continue
			}
			if pd.Rank != 2 {
				t.Errorf("rank %d: PeerDown attributes rank %d, want 2", r, pd.Rank)
			}
		}
	})
}

// TestChaosDroppedFrameNoHang: a lost frame mid-collective (injected drop)
// with per-receive deadlines armed produces a clean PeerDown within the
// deadline on the starved rank — never an indefinite hang.
func TestChaosDroppedFrameNoHang(t *testing.T) {
	const p = 3
	data := makeData(t, 2000, 1, 11)
	cfg := testConfig(clouds.SS)
	sample := cfg.Clouds.SampleFor(data)
	// Drop exactly one data frame from rank 1 mid-build: the first frame of
	// its first all-to-all exchange (statistics, points or small-node
	// records, whichever this configuration reaches first). Picking it by
	// traffic class keeps the rule independent of how many frames the
	// collective schedule sends before it.
	inj := fault.NewInjector(17,
		fault.Rule{Rank: 1, Op: fault.OpSend, Class: comm.OpAllToAll, Action: fault.Drop, Count: 1})

	watchdog(t, "dropped frame", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := tcpcomm.Dial(tcpcomm.Config{
					Rank: r, Addrs: addrs,
					Params:            costmodel.Zero(),
					DialTimeout:       15 * time.Second,
					HeartbeatInterval: 100 * time.Millisecond,
					PeerTimeout:       5 * time.Second,
					RecvTimeout:       1500 * time.Millisecond,
				})
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				store := ooc.NewMemStore(data.Schema, costmodel.Zero(), c.Clock())
				w, _ := store.CreateWriter("root")
				for i := r; i < data.Len(); i += p {
					w.Write(data.Records[i])
				}
				w.Close()
				_, _, errs[r] = Build(cfg, fault.WrapComm(c, inj), store, "root", sample)
			}(r)
		}
		wg.Wait()
		if inj.Stats().Drops != 1 {
			t.Fatalf("injected %d drops, want 1", inj.Stats().Drops)
		}
		// The starved receiver gets a PeerDown; ranks that merely lost
		// their gang get secondary failures. No rank may succeed silently.
		var peerDowns int
		for r, err := range errs {
			if err == nil {
				t.Errorf("rank %d finished cleanly despite a lost frame", r)
				continue
			}
			if _, ok := comm.AsPeerDown(err); ok {
				peerDowns++
			}
		}
		if peerDowns == 0 {
			t.Error("no rank surfaced a PeerDown for the lost frame")
		}
	})
}

// TestChaosDelaysAndSlowIOIdenticalTree: timing faults — delayed frames,
// slow storage — must never change the result: the build completes with the
// bit-identical tree. (Runs on the channel transport so no failure
// detector can fire; only determinism is at stake.)
func TestChaosDelaysAndSlowIOIdenticalTree(t *testing.T) {
	const p = 4
	data := makeData(t, 3000, 2, 13)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	inj := fault.NewInjector(23,
		fault.Rule{Rank: fault.AnyRank, Op: fault.OpSend, Class: fault.AnyClass, Action: fault.Delay, Prob: 0.05, Delay: time.Millisecond},
		fault.Rule{Rank: fault.AnyRank, Op: fault.OpRead, Class: fault.AnyClass, Action: fault.Slow, Prob: 0.02, Delay: time.Millisecond},
		fault.Rule{Rank: fault.AnyRank, Op: fault.OpWrite, Class: fault.AnyClass, Action: fault.Slow, Prob: 0.02, Delay: time.Millisecond})

	watchdog(t, "delays+slow I/O", func() {
		comms := comm.NewGroup(p, costmodel.Zero())
		stores := distribute(t, data, p, costmodel.Zero(), comms)
		trees := make([]*tree.Tree, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				stores[r].WrapBackend(fault.WrapBackend(inj, r))
				trees[r], _, errs[r] = Build(cfg, fault.WrapComm(comms[r], inj), stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}
		if t.Failed() {
			return
		}
		if inj.Stats().Total() == 0 {
			t.Fatal("no faults injected — the chaos test tested nothing")
		}
		for r := 0; r < p; r++ {
			if !tree.Equal(ref, trees[r]) {
				t.Errorf("rank %d: tree changed under timing faults", r)
			}
		}
	})
}

// gatherTap wraps one rank's communicator: it counts the rank's receives
// and remembers the ordinal of the latest all-gather one, so a fault rule
// can target it, and it closes sent once the rank has sent its last-th
// all-gather frame.
type gatherTap struct {
	comm.Communicator
	recvs, lastGather int64
	gathers, last     int64
	sent              chan struct{}
}

func (g *gatherTap) Recv(from int, tag comm.Tag) ([]byte, error) {
	g.recvs++
	if comm.ClassOf(tag) == comm.OpAllGather {
		g.lastGather = g.recvs
	}
	return g.Communicator.Recv(from, tag)
}

func (g *gatherTap) Send(to int, tag comm.Tag, data []byte) error {
	err := g.Communicator.Send(to, tag, data)
	if comm.ClassOf(tag) == comm.OpAllGather {
		if g.gathers++; g.gathers == g.last {
			close(g.sent)
		}
	}
	return err
}

// TestChaosFinalExchangeKeepsCheckpoints: rank 0's last receive of the
// small phase's subtree all-gather fails after rank 1 has finished the
// exchange. Rank 1 holds the whole tree, rank 0 does not, so no rank may
// delete a checkpoint level: both fail, every rank keeps its last level,
// and a restart on a fresh mesh resumes from it to the bit-identical tree.
func TestChaosFinalExchangeKeepsCheckpoints(t *testing.T) {
	const p = 2
	data := makeData(t, 4000, 2, 42)
	cfg := testConfig(clouds.SSE)
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, p)

	// A fault-free checkpointed run finds the ordinal of rank 0's final
	// all-gather receive and the number of rank 1's all-gather sends; the
	// message sequence does not depend on the transport.
	dry := []*gatherTap{{}, {}}
	{
		dcfg := cfg
		dcfg.CheckpointDir = t.TempDir()
		comms := comm.NewGroup(p, costmodel.Zero())
		stores := distribute(t, data, p, costmodel.Zero(), comms)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			dry[r].Communicator = comms[r]
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, _, errs[r] = Build(dcfg, dry[r], stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("fault-free run rank %d: %v", r, err)
			}
		}
		if dry[0].lastGather == 0 || dry[1].gathers == 0 {
			t.Fatal("the build issued no all-gather")
		}
	}

	cfg.CheckpointDir = t.TempDir()
	storeRoot := t.TempDir()
	stores := make([]*ooc.Store, p)
	for r := 0; r < p; r++ {
		st, err := stageFileStore(filepath.Join(storeRoot, fmt.Sprintf("rank%d", r)), r, p, data)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}

	lastLevel := make([]int, p)
	watchdog(t, "failed final exchange", func() {
		inj := fault.NewInjector(1, fault.Rule{
			Rank: 0, Op: fault.OpRecv, Class: comm.OpAllGather, Action: fault.Error,
			After: dry[0].lastGather - 1, Count: 1,
		})
		// Rank 0 keeps its transport open until rank 1 has sent its last
		// all-gather frame, so rank 1 always finishes the exchange.
		tap := &gatherTap{last: dry[1].gathers, sent: make(chan struct{})}
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				fcfg := cfg
				fcfg.LevelHook = func(level int) { lastLevel[r] = level }
				if r == 0 {
					_, _, errs[r] = Build(fcfg, fault.WrapComm(c, inj), stores[r], "root", sample)
					<-tap.sent
				} else {
					tap.Communicator = c
					_, _, errs[r] = Build(fcfg, tap, stores[r], "root", sample)
				}
				c.Close()
			}(r)
		}
		wg.Wait()
		if !errors.Is(errs[0], fault.ErrInjected) {
			t.Errorf("rank 0: want the injected receive error, got %v", errs[0])
		}
		if errs[1] == nil {
			t.Error("rank 1 finished the build although rank 0 never assembled the tree")
		}
	})
	for r := 0; r < p; r++ {
		levels, err := listLevels(cfg.CheckpointDir, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(levels) == 0 || levels[len(levels)-1] != lastLevel[r] {
			t.Errorf("rank %d kept levels %v, want its last level %d", r, levels, lastLevel[r])
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	watchdog(t, "restart", func() {
		addrs := reservePorts(t, p)
		var wg sync.WaitGroup
		errs := make([]error, p)
		trees := make([]*tree.Tree, p)
		stats := make([]*Stats, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := chaosComm(r, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				defer c.Close()
				trees[r], stats[r], errs[r] = Build(cfg, c, stores[r], "root", sample)
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Errorf("restart rank %d: %v", r, errs[r])
				continue
			}
			if stats[r].ResumedLevel != lastLevel[r] {
				t.Errorf("restart rank %d resumed from level %d, want %d", r, stats[r].ResumedLevel, lastLevel[r])
			}
			if !tree.Equal(ref, trees[r]) {
				t.Errorf("restart rank %d: tree differs from the uninterrupted build", r)
			}
		}
	})
}
