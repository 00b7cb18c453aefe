package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"pclouds/internal/record"
	"pclouds/internal/serve"
	"pclouds/internal/tree"
)

// request is one prepared HTTP request body with the classes its rows must
// come back as. Both are made in set-up, so the measured loop neither
// encodes a request nor walks a tree: checking a reply is a slice compare
// that no later optimisation of the walk can speed up or slow down.
type request struct {
	body []byte
	want []int32
}

type serveEnv struct {
	binary  bool
	rowsPer int
	srv     *serve.Server
	url     string
	ctype   string
	pool    []request
	served  chan error
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx) //nolint:errcheck // teardown of a loopback server
	<-e.served
}

// setupServe trains the model, prepares the request pool from -seed and
// starts a real server on a loopback port.
func setupServe(r *run, binaryAPI bool) (*serveEnv, error) {
	model, err := servedModel(r)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{binary: binaryAPI, rowsPer: 1, ctype: "application/json", served: make(chan error, 1)}
	requests := r.pick(8192, 512)
	path := "/v1/classify"
	if binaryAPI {
		e.rowsPer, requests = r.pick(8192, 1024), 4
		e.ctype, path = "application/octet-stream", "/v1/classify.bin"
	}
	rows, err := generate(requests*e.rowsPer, r.seed, 0)
	if err != nil {
		return nil, err
	}
	if e.pool, err = preparePool(model, rows.Records, e.rowsPer, binaryAPI); err != nil {
		return nil, err
	}

	m, err := serve.NewModel(model, "benchmark")
	if err != nil {
		return nil, err
	}
	e.srv = serve.New(serve.NewStaticRegistry(m), serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String() + path
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, awaitServer("http://" + ln.Addr().String())
}

// awaitServer returns once the server at base answers /healthz: set-up ends
// when the first request can be sent, and Shutdown is only safe after Serve
// has started.
func awaitServer(base string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not start: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// jsonRow is the single-row form of the JSON API.
type jsonRow struct {
	Num []float64 `json:"num"`
	Cat []int32   `json:"cat"`
}

func preparePool(model *tree.Tree, rows []record.Record, rowsPer int, binaryAPI bool) ([]request, error) {
	var pool []request
	for i := 0; i+rowsPer <= len(rows); i += rowsPer {
		var req request
		for _, rec := range rows[i : i+rowsPer] {
			req.want = append(req.want, model.Classify(rec))
			if binaryAPI {
				req.body = rec.EncodeFeatures(req.body)
			}
		}
		if !binaryAPI {
			var err error
			if req.body, err = json.Marshal(jsonRow{rows[i].Num, rows[i].Cat}); err != nil {
				return nil, err
			}
		}
		pool = append(pool, req)
	}
	return pool, nil
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	done         []reply // successful requests
	shed, failed int
	firstProblem string
}

// reply is one successful request: when its reply arrived (seconds since
// the loop started), how long it took, how many rows it carried.
type reply struct {
	at, latency float64
	rows        int
}

// client sends the pool's requests back to back over its own connection
// until the deadline, each one only after the previous reply arrived.
func (e *serveEnv) client(r *run, id int, start, deadline time.Time, record bool) clientResult {
	var res clientResult
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	var classes []int32
	for i := id * len(e.pool) / clients; time.Now().Before(deadline); i++ {
		req := e.pool[i%len(e.pool)]
		span := 0
		if record {
			span = r.tr.begin(0, "client.request", id)
		}
		t0 := time.Now()
		status, body, err := post(hc, e.url, e.ctype, req.body)
		lat := time.Since(t0).Seconds()
		r.tr.end(span, int64(len(req.body)))
		if !record {
			continue
		}
		problem := ""
		switch {
		case err != nil:
			problem = err.Error()
		case status == http.StatusServiceUnavailable:
			res.shed++
			problem = "request shed"
		case status != http.StatusOK:
			problem = fmt.Sprintf("status %d", status)
		default:
			if classes, err = decodeClasses(classes[:0], body, e.binary); err != nil {
				problem = err.Error()
			} else if !slices.Equal(classes, req.want) {
				problem = "a served class differs from the expected class of its pool row"
			}
		}
		if problem != "" {
			res.failed++
			if res.firstProblem == "" {
				res.firstProblem = problem
			}
			continue
		}
		res.done = append(res.done, reply{at: time.Since(start).Seconds(), latency: lat, rows: len(req.want)})
	}
	return res
}

func post(hc *http.Client, url, ctype string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func decodeClasses(dst []int32, body []byte, binaryAPI bool) ([]int32, error) {
	if !binaryAPI {
		var reply struct {
			Classes []int32 `json:"classes"`
		}
		err := json.Unmarshal(body, &reply)
		return reply.Classes, err
	}
	if len(body)%4 != 0 {
		return nil, fmt.Errorf("ragged binary reply of %d bytes", len(body))
	}
	for i := 0; i < len(body); i += 4 {
		dst = append(dst, int32(binary.LittleEndian.Uint32(body[i:])))
	}
	return dst, nil
}

// load runs the closed loop for d with every client, recording or not.
func (e *serveEnv) load(r *run, start time.Time, d time.Duration, record bool) []clientResult {
	results := make([]clientResult, clients)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = e.client(r, id, start, deadline, record)
		}(id)
	}
	wg.Wait()
	return results
}

func runServe(r *run) error {
	binaryAPI := r.workload == "serve-bin-bulk"
	env, setupTimes, err := repeatSetup(r.setups(), func() (*serveEnv, error) { return setupServe(r, binaryAPI) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	warm := time.Second
	if r.quick {
		warm = 200 * time.Millisecond
	}
	env.load(r, time.Now(), warm, false)
	log := startStealLog()
	start := time.Now()
	results := env.load(r, start, time.Duration(r.seconds*float64(time.Second)), true)
	log.close()

	// One slice per second of traffic, by the time the reply arrived; the
	// ragged last second is dropped.
	per := min(r.seconds, 1)
	secs := make([]slice, int(r.seconds/per))
	for i := range secs {
		secs[i].from = start.Add(time.Duration(float64(i) * per * float64(time.Second)))
		secs[i].to = secs[i].from.Add(time.Duration(per * float64(time.Second)))
	}
	served, shed, failed := 0, 0, 0
	for _, res := range results {
		for _, rp := range res.done {
			if i := int(rp.at / per); i < len(secs) {
				secs[i].rows += float64(rp.rows)
				secs[i].ops = append(secs[i].ops, rp.latency)
			}
		}
		served += len(res.done)
		shed, failed = shed+res.shed, failed+res.failed
		if res.firstProblem != "" {
			r.problem("%d requests failed, the first with: %s", res.failed, res.firstProblem)
		}
	}
	r.attempted += served + failed
	r.failed += failed
	for _, s := range secs {
		if len(s.ops) == 0 {
			return fmt.Errorf("a whole slice of %v s passed without a successful request", per)
		}
	}
	r.notes["requests"] = fmt.Sprint(served)
	if r.traced() {
		var all []float64
		for _, s := range secs {
			all = append(all, s.ops...)
		}
		r.emit("serve.request_p50_ms", median(all)*1e3)
		r.emit("serve.request_p99_ms", quantile(all, 0.99)*1e3)
		r.emit("serve.shed", float64(env.srv.Stats().Shed()))
		r.emit("serve.errors", float64(failed-shed))
		return nil
	}
	r.emitEndToEnd(setupTimes, log, secs, secs)
	return nil
}
