package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	tcpcomm "pclouds/internal/comm/tcp"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
)

// ranks is the size of every distributed workload and clients the size of
// every load generator: the reference box has two cores.
const (
	ranks   = 2
	clients = 2
)

// loopbackAddrs reserves n loopback ports from the kernel (127.0.0.1:0)
// and releases them for the caller to bind.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// dialMesh brings up a full TCP mesh of n ranks inside this process, one
// goroutine per rank, with pcloudsd's default failure-detector settings.
func dialMesh(n int) ([]*tcpcomm.Comm, error) {
	addrs, err := loopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	comms := make([]*tcpcomm.Comm, n)
	err = eachRank(n, func(r int) error {
		c, err := tcpcomm.Dial(tcpcomm.Config{
			Rank: r, Addrs: addrs, Params: costmodel.Zero(),
			DialTimeout:       30 * time.Second,
			HeartbeatInterval: 500 * time.Millisecond,
			PeerTimeout:       10 * time.Second,
		})
		comms[r] = c
		return err
	})
	if err != nil {
		closeMesh(comms)
		return nil, fmt.Errorf("dialing %d-rank mesh: %w", n, err)
	}
	return comms, nil
}

func closeMesh(comms []*tcpcomm.Comm) {
	for _, c := range comms {
		if c != nil {
			c.Close()
		}
	}
}

// eachRank runs fn once per rank concurrently, waits for all of them and
// returns the first error.
func eachRank(n int, fn func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// generate draws n records of Agrawal function 2, the paper's.
func generate(n int, seed int64, noise float64) (*record.Dataset, error) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: seed, Noise: noise})
	if err != nil {
		return nil, err
	}
	return g.Generate(n), nil
}

// shuffled returns data's records in an order drawn from seed.
func shuffled(data *record.Dataset, seed int64) *record.Dataset {
	out := &record.Dataset{Schema: data.Schema, Records: append([]record.Record(nil), data.Records...)}
	out.Shuffle(rand.New(rand.NewSource(seed)))
	return out
}

// storeOptions says how one rank's out-of-core store is assembled. The
// shipped configuration is a file store with the I/O pipeline on and page
// checksums on.
type storeOptions struct {
	pipeline  bool
	integrity bool
	slow      float64       // >0: injected backend delay (sensitivity test)
	meter     *backendMeter // non-nil: time every backend call
}

func newStore(schema *record.Schema, dir string, o storeOptions) (*ooc.Store, error) {
	store, err := ooc.NewFileStore(schema, dir, costmodel.Zero(), nil)
	if err != nil {
		return nil, err
	}
	store.SetPipeline(ooc.Pipeline{Enabled: o.pipeline})
	if o.integrity {
		store.EnableIntegrity(ooc.IntegrityOptions{})
	}
	// Both wrappers sit above the verifier: a backend call, as the store
	// sees it, includes the checksum work, and that whole call is what the
	// injected delay is a share of and what the meter times.
	if o.slow > 0 {
		store.WrapBackend(func(b ooc.Backend) ooc.Backend { return &slowBackend{Backend: b, frac: o.slow} })
	}
	if o.meter != nil {
		store.WrapBackend(func(b ooc.Backend) ooc.Backend { return timedBackend{b, o.meter} })
	}
	return store, nil
}

// stageRoot writes rank's round-robin share of data into store as "root",
// the way pcloudsd stages a training file.
func stageRoot(store *ooc.Store, data *record.Dataset, rank, n int) error {
	w, err := store.CreateWriter("root")
	if err != nil {
		return err
	}
	for i := rank; i < data.Len(); i += n {
		if err := w.Write(data.Records[i]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

func rankDir(base, kind string, rank int) string {
	return filepath.Join(base, fmt.Sprintf("%s-rank%d", kind, rank))
}
