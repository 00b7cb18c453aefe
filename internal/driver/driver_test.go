package driver_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/comm"
	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/driver"
	"pclouds/internal/ooc"
	"pclouds/internal/pclouds"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// The supervised chaos tests re-exec this test binary as the rank
// processes: TestMain diverts to rankMain when the helper env var is set,
// so an injected os.Exit kills a real process — the supervisor observes a
// real death, and the survivors a real vanished peer.
func TestMain(m *testing.M) {
	if os.Getenv("PCLOUDS_DRIVER_HELPER") == "1" {
		os.Exit(rankMain())
	}
	os.Exit(m.Run())
}

const chaosDeadline = 120 * time.Second

// chaosClouds is the build configuration shared by the helper processes
// and the in-test reference build; the two must match exactly for the
// bit-identical comparison to be meaningful.
func chaosClouds() clouds.Config {
	return clouds.Config{
		Method:      clouds.SSE,
		QRoot:       64,
		QMin:        8,
		SmallNodeQ:  4,
		SampleSize:  400,
		MinNodeSize: 2,
		MaxDepth:    12,
		Seed:        7,
	}
}

// chaosData regenerates the shared dataset; deterministic, so the helper
// processes and the test agree on it without shipping files around.
func chaosData() *record.Dataset {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 42})
	if err != nil {
		panic(err)
	}
	return g.Generate(4000)
}

// stageShare writes rank's round-robin share of data into store's "root"
// file; this is the Stage callback everywhere in this file.
func stageShare(store *ooc.Store, data *record.Dataset, rank, p int) func(attempt int) error {
	return func(int) error {
		w, err := store.CreateWriter("root")
		if err != nil {
			return err
		}
		for i := rank; i < data.Len(); i += p {
			if err := w.Write(data.Records[i]); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}
}

// referenceTree builds the uninterrupted tree over the in-process channel
// transport; the tree is transport-independent, so it is the ground truth
// for every chaos scenario.
func referenceTree(t *testing.T, cfg clouds.Config, data *record.Dataset, sample []record.Record, p int) *tree.Tree {
	t.Helper()
	comms := comm.NewGroup(p, costmodel.Zero())
	trees := make([]*tree.Tree, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			store := ooc.NewMemStore(data.Schema, costmodel.Zero(), comms[r].Clock())
			if err := stageShare(store, data, r, p)(1); err != nil {
				errs[r] = err
				return
			}
			trees[r], _, errs[r] = pclouds.Build(pclouds.Config{Clouds: cfg}, comms[r], store, "root", sample)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if !tree.Equal(trees[0], trees[r]) {
			t.Fatalf("reference ranks disagree")
		}
	}
	return trees[0]
}

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

// watchdog fails the test if fn has not returned within chaosDeadline —
// recovery must never hang.
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

// rankMain is the helper-process entry: one supervised rank. Configuration
// arrives via environment variables; an entry "rank@level" in
// PCLOUDS_HELPER_KILL makes that rank os.Exit(3) right after checkpointing
// that level — once, recorded by a marker file so its respawn survives.
func rankMain() int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		return 1
	}
	rank, err := strconv.Atoi(os.Getenv("PCLOUDS_HELPER_RANK"))
	if err != nil {
		return fail(err)
	}
	gen, err := strconv.ParseUint(os.Getenv("PCLOUDS_HELPER_GEN"), 10, 32)
	if err != nil {
		return fail(err)
	}
	addrs := strings.Split(os.Getenv("PCLOUDS_HELPER_ADDRS"), ",")
	workDir := os.Getenv("PCLOUDS_HELPER_DIR") // store, checkpoints, markers, results

	data := chaosData()
	cfg := chaosClouds()
	sample := cfg.SampleFor(data)
	store, err := ooc.NewFileStore(data.Schema,
		filepath.Join(workDir, fmt.Sprintf("store-rank%d", rank)), costmodel.Zero(), nil)
	if err != nil {
		return fail(err)
	}

	var hook func(level int)
	for _, spec := range strings.Split(os.Getenv("PCLOUDS_HELPER_KILL"), ",") {
		var kr, kl int
		if _, err := fmt.Sscanf(spec, "%d@%d", &kr, &kl); err != nil || kr != rank {
			continue
		}
		marker := filepath.Join(workDir, fmt.Sprintf("killed-rank%d", rank))
		hook = func(level int) {
			if level != kl {
				return
			}
			if _, err := os.Stat(marker); err == nil {
				return // this incarnation is the respawn; die only once
			}
			if err := os.WriteFile(marker, []byte("x"), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "helper rank %d: marker: %v\n", rank, err)
			}
			fmt.Fprintf(os.Stderr, "helper rank %d: injected crash after level %d\n", rank, level)
			os.Exit(3)
		}
	}

	res, err := driver.RunRank(driver.Config{
		LoopConfig: driver.LoopConfig{
			Rank:        rank,
			Addrs:       addrs,
			Generation:  uint32(gen),
			MaxRestarts: 6,
			Backoff:     100 * time.Millisecond,
			Comm: tcpcomm.Config{
				Params:            costmodel.Zero(),
				DialTimeout:       20 * time.Second,
				HeartbeatInterval: 100 * time.Millisecond,
				PeerTimeout:       2 * time.Second,
			},
			Stage: stageShare(store, data, rank, len(addrs)),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		},
		Build: pclouds.Config{
			Clouds:        cfg,
			CheckpointDir: filepath.Join(workDir, "ckpt"),
			LevelHook:     hook,
		},
		Store:  store,
		Sample: sample,
	})
	if err != nil {
		return fail(err)
	}
	out := filepath.Join(workDir, fmt.Sprintf("tree-rank%d.bin", rank))
	if err := os.WriteFile(out, tree.Encode(res.Tree), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "helper rank %d: done (attempts %d, generation %d)\n",
		rank, res.Attempts, res.Generation)
	return 0
}

// TestSupervisedChaosBitIdentical is the acceptance scenario: a 4-rank
// file-backed supervised build loses rank 1 after level 1 and rank 2 after
// level 2 (real processes, real os.Exit). The supervisor respawns each at
// a bumped generation, the survivors rendezvous in-process, the rebuilt
// meshes auto-resume from the newest common checkpoint, and the final tree
// on every rank is bit-identical to an undisturbed build.
func TestSupervisedChaosBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("supervised chaos test is slow")
	}
	const p = 4
	data := chaosData()
	cfg := chaosClouds()
	ref := referenceTree(t, cfg, data, cfg.SampleFor(data), p)

	workDir := t.TempDir()
	addrs := reservePorts(t, p)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	watchdog(t, "supervised chaos build", func() {
		err := driver.Supervise(driver.SupervisorConfig{
			Ranks:       p,
			MaxRestarts: 5,
			Backoff:     200 * time.Millisecond,
			Logf:        t.Logf,
			Command: func(rank int, gen uint32) *exec.Cmd {
				cmd := exec.Command(self)
				cmd.Env = append(os.Environ(),
					"PCLOUDS_DRIVER_HELPER=1",
					fmt.Sprintf("PCLOUDS_HELPER_RANK=%d", rank),
					fmt.Sprintf("PCLOUDS_HELPER_GEN=%d", gen),
					"PCLOUDS_HELPER_ADDRS="+strings.Join(addrs, ","),
					"PCLOUDS_HELPER_DIR="+workDir,
					"PCLOUDS_HELPER_KILL=1@1,2@2",
				)
				cmd.Stderr = os.Stderr
				return cmd
			},
		})
		if err != nil {
			t.Errorf("supervise: %v", err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Both injected kills must actually have happened.
	for _, rank := range []int{1, 2} {
		if _, err := os.Stat(filepath.Join(workDir, fmt.Sprintf("killed-rank%d", rank))); err != nil {
			t.Errorf("rank %d was never killed: %v", rank, err)
		}
	}
	// Every rank's recovered tree is bit-identical to the reference.
	for r := 0; r < p; r++ {
		blob, err := os.ReadFile(filepath.Join(workDir, fmt.Sprintf("tree-rank%d.bin", r)))
		if err != nil {
			t.Fatalf("rank %d left no tree: %v", r, err)
		}
		got, err := tree.Decode(data.Schema, blob)
		if err != nil {
			t.Fatalf("rank %d tree: %v", r, err)
		}
		if !tree.Equal(ref, got) {
			t.Errorf("rank %d: recovered tree differs from uninterrupted build", r)
		}
	}
}

// TestRunRankNoFaults: with nothing failing, RunRank is just stage + mesh +
// build — one attempt, reference-identical tree on every rank.
func TestRunRankNoFaults(t *testing.T) {
	const p = 4
	data := chaosData()
	cfg := chaosClouds()
	sample := cfg.SampleFor(data)
	ref := referenceTree(t, cfg, data, sample, p)
	addrs := reservePorts(t, p)

	results := make([]*driver.RankResult, p)
	errs := make([]error, p)
	watchdog(t, "fault-free RunRank", func() {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				store, err := ooc.NewFileStore(data.Schema,
					filepath.Join(t.TempDir(), "store"), costmodel.Zero(), nil)
				if err != nil {
					errs[r] = err
					return
				}
				results[r], errs[r] = driver.RunRank(driver.Config{
					LoopConfig: driver.LoopConfig{
						Rank: r, Addrs: addrs,
						Comm: tcpcomm.Config{
							Params:            costmodel.Zero(),
							DialTimeout:       15 * time.Second,
							HeartbeatInterval: 100 * time.Millisecond,
							PeerTimeout:       2 * time.Second,
						},
						Stage: stageShare(store, data, r, p),
					},
					Build:  pclouds.Config{Clouds: cfg},
					Store:  store,
					Sample: sample,
				})
			}(r)
		}
		wg.Wait()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < p; r++ {
		if results[r].Attempts != 1 {
			t.Errorf("rank %d took %d attempts, want 1", r, results[r].Attempts)
		}
		if !tree.Equal(ref, results[r].Tree) {
			t.Errorf("rank %d: tree differs from reference", r)
		}
	}
}

// TestRunRankBudgetExhaustedNamesRootCause: rank 3 vanishes after level 1
// and never comes back. The survivors burn their recovery budget on a
// rendezvous nobody joins and must fail cleanly — with the root-cause
// PeerDown naming rank 3 preserved through the final error.
func TestRunRankBudgetExhaustedNamesRootCause(t *testing.T) {
	const p = 4
	data := chaosData()
	cfg := chaosClouds()
	sample := cfg.SampleFor(data)
	addrs := reservePorts(t, p)

	errs := make([]error, p)
	watchdog(t, "budget exhaustion", func() {
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				store, err := ooc.NewFileStore(data.Schema,
					filepath.Join(t.TempDir(), "store"), costmodel.Zero(), nil)
				if err != nil {
					errs[r] = err
					return
				}
				_, errs[r] = driver.RunRank(driver.Config{
					LoopConfig: driver.LoopConfig{
						Rank: r, Addrs: addrs,
						MaxRestarts: 1,
						Backoff:     50 * time.Millisecond,
						Comm: tcpcomm.Config{
							Params:            costmodel.Zero(),
							DialTimeout:       3 * time.Second,
							HeartbeatInterval: 100 * time.Millisecond,
							PeerTimeout:       1500 * time.Millisecond,
						},
						Stage: stageShare(store, data, r, p),
					},
					Build:  pclouds.Config{Clouds: cfg},
					Store:  store,
					Sample: sample,
				})
			}(r)
		}
		// Rank 3 joins the first mesh, builds one level, then dies for good.
		wg.Add(1)
		go func() {
			defer wg.Done()
			store, err := ooc.NewFileStore(data.Schema,
				filepath.Join(t.TempDir(), "store"), costmodel.Zero(), nil)
			if err != nil {
				errs[3] = err
				return
			}
			if err := stageShare(store, data, 3, p)(1); err != nil {
				errs[3] = err
				return
			}
			c, err := tcpcomm.Dial(tcpcomm.Config{
				Rank: 3, Addrs: addrs, Generation: 1,
				Params:            costmodel.Zero(),
				DialTimeout:       3 * time.Second,
				HeartbeatInterval: 100 * time.Millisecond,
				PeerTimeout:       1500 * time.Millisecond,
			})
			if err != nil {
				errs[3] = err
				return
			}
			bcfg := pclouds.Config{Clouds: cfg, StopAfterLevel: 1}
			_, _, berr := pclouds.Build(bcfg, c, store, "root", sample)
			if !errors.Is(berr, pclouds.ErrStopped) {
				errs[3] = fmt.Errorf("rank 3: want ErrStopped, got %v", berr)
			}
			c.Close()
		}()
		wg.Wait()
	})
	if errs[3] != nil {
		t.Fatal(errs[3])
	}
	for r := 0; r < 3; r++ {
		err := errs[r]
		if err == nil {
			t.Fatalf("rank %d: want budget-exhaustion error, got success", r)
		}
		if !strings.Contains(err.Error(), "recovery budget exhausted") {
			t.Errorf("rank %d: error does not name budget exhaustion: %v", r, err)
		}
		pd, ok := comm.AsPeerDown(err)
		if !ok {
			t.Errorf("rank %d: root-cause PeerDown not preserved: %v", r, err)
			continue
		}
		if pd.Rank != 3 {
			t.Errorf("rank %d: root cause names rank %d, want 3: %v", r, pd.Rank, err)
		}
	}
}
