// Command pcloudsserve serves classifications from persisted tree models.
//
// Serving (default mode): point it at a model file or a directory of
// models written by pclouds -save-model; the newest file becomes the
// active version and the registry hot-swaps newer models with zero
// downtime (as soon as a model lands on Linux, and on a poll interval and
// on SIGHUP everywhere):
//
//	pcloudsserve -models ./models -addr :8391
//
// Endpoints: POST /v1/classify (JSON single or batch), POST
// /v1/classify.bin (binary feature rows), GET /healthz, /readyz,
// /v1/model, /v1/stats. When the request queue fills the server sheds
// load with 503 + Retry-After instead of queueing without bound; SIGINT/
// SIGTERM drain gracefully.
//
// Robustness: a model file that fails to load is quarantined (renamed
// aside with a .quarantined suffix) and the next-best candidate is tried;
// SIGUSR2 — or POST /v1/rollback on -debug-addr — rolls back to the
// last-known-good model and pins the displaced version out until a newer
// model appears.
//
// Load harness: -selftest trains a small tree in-process, serves it, and
// drives the engine at full speed, printing a throughput/latency summary;
// -loadgen URL replays the same traffic against a running server:
//
//	pcloudsserve -selftest
//	pcloudsserve -loadgen http://localhost:8391 -qps 50000 -duration 10s -bin
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/metrics"
	"pclouds/internal/obs"
	"pclouds/internal/serve"
)

func main() {
	var (
		models    = flag.String("models", "", "model file or directory of models (newest file is served)")
		addr      = flag.String("addr", ":8391", "HTTP listen address")
		workers   = flag.Int("workers", 0, "batch workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 1024, "request queue bound; a full queue sheds with 503")
		maxBatch  = flag.Int("max-batch", 256, "max rows coalesced into one worker batch")
		maxRows   = flag.Int("max-rows", 16384, "max rows per request")
		poll      = flag.Duration("poll", 2*time.Second, "model hot-reload poll interval: on Linux a new model is picked up when it lands and this only bounds staleness (0 disables hot reload; SIGHUP always reloads)")
		reqTO     = flag.Duration("request-timeout", 10*time.Second, "per-request engine timeout")
		drainTO   = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain window")
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")

		selftest    = flag.Bool("selftest", false, "train a small tree in-process and run the load harness against it")
		loadgen     = flag.String("loadgen", "", "run the load harness against this base URL instead of serving")
		qps         = flag.Float64("qps", 0, "load harness target requests/sec (0 = unthrottled)")
		duration    = flag.Duration("duration", 3*time.Second, "load harness run length")
		concurrency = flag.Int("concurrency", 8, "load harness client workers")
		batchRows   = flag.Int("batch-rows", 1, "load harness rows per request")
		records     = flag.Int("records", 8192, "load harness distinct replayed records")
		useBin      = flag.Bool("bin", false, "load harness: use the binary /v1/classify.bin protocol")
		trainN      = flag.Int("train", 20000, "selftest: training records")
		function    = flag.Int("function", 2, "datagen classification function")
		seed        = flag.Int64("seed", 1, "datagen seed")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("pcloudsserve: ")

	loadCfg := serve.LoadConfig{
		QPS:         *qps,
		Duration:    *duration,
		Concurrency: *concurrency,
		BatchRows:   *batchRows,
		Records:     *records,
		Function:    *function,
		Seed:        *seed,
	}
	srvCfg := serve.ServerConfig{
		Engine:         serve.EngineConfig{Workers: *workers, QueueSize: *queue, MaxBatchRows: *maxBatch},
		MaxRows:        *maxRows,
		RequestTimeout: *reqTO,
	}

	switch {
	case *loadgen != "":
		if err := runRemoteLoad(*loadgen, *useBin, loadCfg); err != nil {
			fatal(err)
		}
	case *selftest:
		if err := runSelftest(*trainN, *function, *seed, srvCfg, loadCfg); err != nil {
			fatal(err)
		}
	default:
		if *models == "" {
			fatal(fmt.Errorf("-models is required (or use -selftest / -loadgen)"))
		}
		if err := runServer(*models, *addr, *debugAddr, *poll, *drainTO, srvCfg); err != nil {
			fatal(err)
		}
	}
}

// runServer is the production path: registry + engine + HTTP API with
// hot reload and graceful drain.
func runServer(models, addr, debugAddr string, poll, drainTO time.Duration, cfg serve.ServerConfig) error {
	reg, err := serve.OpenRegistry(models)
	if err != nil {
		return err
	}
	reg.SetLogf(log.Printf)
	m := reg.Active()
	log.Printf("serving model %s (%d nodes, %d leaves, depth %d) from %s",
		m.Info.Version, m.Info.Nodes, m.Info.Leaves, m.Info.Depth, models)

	srv := serve.New(reg, cfg)
	if debugAddr != "" {
		srv.Stats().Publish("serve")
		srv.Stats().Register(obs.DefaultRegistry())
		reg.RegisterMetrics(obs.DefaultRegistry())
		obs.Publish("serve_model", func() any { return reg.Active().Info })
		obs.Publish("serve_registry", func() any {
			return map[string]any{
				"swaps":           reg.Swaps(),
				"reload_failures": reg.ReloadFailures(),
				"quarantined":     reg.Quarantined(),
				"rollbacks":       reg.Rollbacks(),
				"last_error":      reg.LastError(),
			}
		})
		http.Handle("/v1/rollback", serve.RollbackHandler(reg))
		bound, err := obs.ServeDebug(debugAddr)
		if err != nil {
			return err
		}
		log.Printf("debug endpoints (pprof, expvar, /metrics, /v1/rollback) on http://%s/", bound)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if poll > 0 {
		go reg.Watch(ctx, poll)
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, swapped, err := reg.Reload(); err != nil {
				log.Printf("SIGHUP reload: %v", err)
			} else if !swapped {
				log.Printf("SIGHUP reload: model unchanged")
			}
		}
	}()
	usr2 := make(chan os.Signal, 1)
	signal.Notify(usr2, syscall.SIGUSR2)
	go func() {
		for range usr2 {
			if _, err := reg.Rollback(); err != nil {
				log.Printf("SIGUSR2 rollback: %v", err)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errc <- srv.ListenAndServe(addr)
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("%s: draining (up to %s)...", sig, drainTO)
		dctx, dcancel := context.WithTimeout(context.Background(), drainTO)
		defer dcancel()
		if err := srv.Shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		log.Printf("drained cleanly")
		return nil
	}
}

// runSelftest trains a small tree, serves it through a full engine, and
// reports what the serving path sustains on this machine.
func runSelftest(trainN, function int, seed int64, srvCfg serve.ServerConfig, loadCfg serve.LoadConfig) error {
	gen, err := datagen.New(datagen.Config{Function: function, Seed: seed})
	if err != nil {
		return err
	}
	data := gen.Generate(trainN)
	t0 := time.Now()
	tr, _, err := clouds.BuildInCore(clouds.Config{
		Method: clouds.SSE, QRoot: 100, SmallNodeQ: 10,
		MaxDepth: 8, MinNodeSize: 2, Seed: seed,
	}, data, nil)
	if err != nil {
		return err
	}
	log.Printf("selftest: trained on %d records in %s: %s", trainN, time.Since(t0).Round(time.Millisecond), metrics.Summarize(tr))

	model, err := serve.NewModel(tr, "selftest")
	if err != nil {
		return err
	}
	srv := serve.New(serve.NewStaticRegistry(model), srvCfg)
	defer srv.Engine().Close()

	log.Printf("selftest: driving the engine: %d workers, %d-row batches, qps=%g, %s",
		loadCfg.Concurrency, max(1, loadCfg.BatchRows), loadCfg.QPS, loadCfg.Duration)
	rep, err := serve.RunLoad(context.Background(), serve.EngineTarget{Engine: srv.Engine()}, loadCfg)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Errors > 0 {
		return fmt.Errorf("selftest: %d errored requests", rep.Errors)
	}
	return nil
}

// runRemoteLoad drives a running server over HTTP.
func runRemoteLoad(baseURL string, useBin bool, loadCfg serve.LoadConfig) error {
	tgt := serve.HTTPTarget{BaseURL: baseURL, Binary: useBin}
	if useBin {
		tgt.Schema = datagen.Schema()
	}
	log.Printf("load: driving %s (%s): %d workers, %d-row batches, qps=%g, %s",
		baseURL, map[bool]string{true: "binary", false: "JSON"}[useBin],
		loadCfg.Concurrency, max(1, loadCfg.BatchRows), loadCfg.QPS, loadCfg.Duration)
	rep, err := serve.RunLoad(context.Background(), tgt, loadCfg)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Requests == 0 {
		return fmt.Errorf("load: no request succeeded")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcloudsserve:", err)
	os.Exit(1)
}
