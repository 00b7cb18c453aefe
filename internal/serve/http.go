package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pclouds/internal/record"
)

// ServerConfig sizes the HTTP front end.
type ServerConfig struct {
	// Engine sizes the prediction engine behind the API.
	Engine EngineConfig
	// MaxBodyBytes caps a request body. 0 means 32 MiB.
	MaxBodyBytes int64
	// MaxRows caps the rows in one request. 0 means 16384.
	MaxRows int
	// RequestTimeout bounds how long an admitted request may wait for the
	// engine. 0 means 10s.
	RequestTimeout time.Duration
}

func (c *ServerConfig) setDefaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 16384
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
}

// Server ties registry, engine and stats behind the HTTP API.
//
// Endpoints:
//
//	POST /v1/classify      JSON: {"num":[...],"cat":[...]} or {"records":[...]}
//	POST /v1/classify.bin  binary feature rows (record.EncodeFeatures layout)
//	GET  /healthz          process liveness: always 200 while serving
//	GET  /readyz           200 only with a loaded model and not draining
//	GET  /v1/model         active model metadata + schema
//	GET  /v1/stats         metrics snapshot
//
// Overload contract: a full engine queue answers 503 with Retry-After
// while /healthz stays 200 — load balancers back off, orchestrators do
// not kill the process.
type Server struct {
	reg      *Registry
	eng      *Engine
	stats    *Stats
	cfg      ServerConfig
	mux      *http.ServeMux
	draining atomic.Bool
	hs       *http.Server
	// binScratch pools *binScratch, the working memory of binary requests.
	binScratch sync.Pool
}

// New assembles a server (engine workers start immediately).
func New(reg *Registry, cfg ServerConfig) *Server {
	cfg.setDefaults()
	st := NewStats()
	s := &Server{
		reg:   reg,
		eng:   NewEngine(reg, cfg.Engine, st),
		stats: st,
		cfg:   cfg,
		mux:   http.NewServeMux(),
	}
	s.binScratch.New = func() any { return new(binScratch) }
	s.mux.HandleFunc("/v1/classify", s.handleClassifyJSON)
	s.mux.HandleFunc("/v1/classify.bin", s.handleClassifyBin)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// Engine returns the prediction engine (in-process clients, load harness).
func (s *Server) Engine() *Engine { return s.eng }

// Stats returns the server's metrics bundle.
func (s *Server) Stats() *Stats { return s.stats }

// Handler returns the API handler (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.hs = &http.Server{Handler: s.mux}
	return s.hs.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains gracefully: readiness flips to 503 (so load balancers
// stop routing here), in-flight HTTP requests finish within ctx, then the
// engine drains its queue and stops its workers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	s.eng.Close()
	return err
}

// jsonRow is one record in the JSON API: numeric values in schema numeric
// order, categorical codes in schema categorical order.
type jsonRow struct {
	Num []float64 `json:"num"`
	Cat []int32   `json:"cat"`
}

// classifyRequest accepts either a batch ({"records":[...]}) or a single
// row ({"num":...,"cat":...}) at the top level.
type classifyRequest struct {
	Records []jsonRow `json:"records"`
	jsonRow
}

type classifyResponse struct {
	ModelVersion string  `json:"model_version"`
	Classes      []int32 `json:"classes"`
	Class        *int32  `json:"class,omitempty"` // set for single-row requests
}

func (s *Server) handleClassifyJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	var req classifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.badRequest(w, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	single := req.Records == nil
	rows := req.Records
	if single {
		rows = []jsonRow{req.jsonRow}
	}
	if len(rows) == 0 {
		s.badRequest(w, errors.New("empty records array"))
		return
	}
	if len(rows) > s.cfg.MaxRows {
		s.tooLarge(w, len(rows))
		return
	}
	m := s.reg.Active()
	if m == nil {
		s.engineError(w, ErrNoModel)
		return
	}
	schema := m.Tree.Schema
	recs := make([]record.Record, len(rows))
	for i, row := range rows {
		if len(row.Num) != schema.NumNumeric() || len(row.Cat) != schema.NumCategorical() {
			s.badRequest(w, fmt.Errorf("record %d: got %d numeric / %d categorical values, schema wants %d / %d",
				i, len(row.Num), len(row.Cat), schema.NumNumeric(), schema.NumCategorical()))
			return
		}
		recs[i] = record.Record{Num: row.Num, Cat: row.Cat}
	}
	out := make([]int32, len(recs))
	if _, err := s.classify(r.Context(), m, recs, out); err != nil {
		s.engineError(w, err)
		return
	}
	resp := classifyResponse{ModelVersion: m.Info.Version, Classes: out}
	if single {
		resp.Class = &out[0]
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client went away
}

// binScratch is the working memory of one binary request: the body, the
// rows decoded from it, the engine's output and the reply. Scratch goes back
// to the server's pool only once the engine has let go of its rows and
// output, so a steady stream of requests reuses the same few and allocates
// almost nothing.
type binScratch struct {
	body []byte
	rows record.FeatureRows
	out  []int32
	resp []byte
}

func (s *Server) handleClassifyBin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := s.binScratch.Get().(*binScratch)
	if s.classifyBin(w, r, sc) {
		s.binScratch.Put(sc)
	}
}

// classifyBin answers one binary request out of sc and reports whether sc
// may go back to the pool: false only when the request was abandoned while
// the engine still held sc's rows and output.
func (s *Server) classifyBin(w http.ResponseWriter, r *http.Request, sc *binScratch) bool {
	m := s.reg.Active()
	body, ok := s.readBin(w, r, m, sc)
	if !ok {
		return true
	}
	if err := sc.rows.Decode(m.Tree.Schema, body); err != nil {
		s.badRequest(w, err)
		return true
	}
	recs := sc.rows.Recs
	sc.out = grow(sc.out, len(recs))
	released, err := s.classify(r.Context(), m, recs, sc.out)
	if err != nil {
		s.engineError(w, err)
		return released
	}
	sc.resp = grow(sc.resp, 4*len(recs))
	for i, c := range sc.out {
		binary.LittleEndian.PutUint32(sc.resp[4*i:], uint32(c))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Version", m.Info.Version)
	w.Write(sc.resp) //nolint:errcheck // client went away
	return true
}

// readBin reads a binary request's body into sc.body and returns it, or
// answers the request with an error and returns false. The caps are judged
// from the body's length before any row is decoded, in this order: over
// MaxBodyBytes (413), no model (503), empty or ragged (400), over MaxRows
// rows (413). A request that declares its length (Content-Length) is judged
// before a byte is read, and then read in one go into a buffer of exactly
// that size. A body of undeclared length (chunked) is read until the first
// byte past the row cap; the rest is counted, not kept, so no pooled buffer
// outgrows a valid request.
func (s *Server) readBin(w http.ResponseWriter, r *http.Request, m *Model, sc *binScratch) ([]byte, bool) {
	n := r.ContentLength
	if n > s.cfg.MaxBodyBytes {
		s.badRequest(w, &http.MaxBytesError{Limit: s.cfg.MaxBodyBytes})
		return nil, false
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if n < 0 {
		keep := 0
		if m != nil {
			keep = s.cfg.MaxRows*m.Tree.Schema.FeatureBytes() + 1
		}
		var err error
		if sc.body, n, err = readUndeclared(sc.body, body, keep); err != nil {
			s.badRequest(w, err)
			return nil, false
		}
	}
	if m == nil {
		s.engineError(w, ErrNoModel)
		return nil, false
	}
	fb := int64(m.Tree.Schema.FeatureBytes())
	switch {
	case n == 0:
		s.badRequest(w, errors.New("empty body"))
		return nil, false
	case n%fb != 0:
		s.badRequest(w, fmt.Errorf("body length %d not a multiple of feature row size %d", n, fb))
		return nil, false
	case n/fb > int64(s.cfg.MaxRows):
		s.tooLarge(w, int(n/fb))
		return nil, false
	}
	if r.ContentLength >= 0 {
		sc.body = grow(sc.body, int(n))
		if _, err := io.ReadFull(body, sc.body); err != nil {
			s.badRequest(w, err)
			return nil, false
		}
	}
	return sc.body, true
}

// readUndeclared reads body to its end into buf's storage, keeping at most
// keep bytes, and returns what it kept and the body's full length. The
// storage grows by doubling, never past keep.
func readUndeclared(buf []byte, body io.Reader, keep int) ([]byte, int64, error) {
	buf = buf[:0]
	for len(buf) < keep {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(max(2*cap(buf), 512), keep)), buf...)
		}
		k, err := body.Read(buf[len(buf):min(cap(buf), keep)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, int64(len(buf)), nil
		}
		if err != nil {
			return buf, 0, err
		}
	}
	rest, err := io.Copy(io.Discard, body)
	return buf, int64(len(buf)) + rest, err
}

// grow returns s resized to n entries, reallocating only when s's capacity
// is short. The entries' values are whatever s held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// classify runs recs through m on the engine, bounded by RequestTimeout; the
// result and ownership are Engine.ClassifyInto's.
func (s *Server) classify(ctx context.Context, m *Model, recs []record.Record, out []int32) (bool, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	return s.eng.ClassifyInto(ctx, m, recs, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness only: an overloaded or model-less server is still alive.
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	m := s.reg.Active()
	if m == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ready model=%s\n", m.Info.Version)
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	m := s.reg.Active()
	if m == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	schema := m.Tree.Schema
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"model": m.Info,
		"schema": map[string]any{
			"description":   schema.String(),
			"classes":       schema.NumClasses,
			"numeric":       schema.NumNumeric(),
			"categorical":   schema.NumCategorical(),
			"feature_bytes": schema.FeatureBytes(),
		},
		"registry": s.registrySnapshot(),
	})
}

// registrySnapshot reports model-registry health: swap count, failed reload
// attempts, quarantined files, rollbacks, the last-known-good version, and
// the most recent reload error (a failed reload keeps the previous model
// serving, so the counters are the only externally visible symptom).
func (s *Server) registrySnapshot() map[string]any {
	lkg := ""
	if m := s.reg.LastKnownGood(); m != nil {
		lkg = m.Info.Version
	}
	return map[string]any{
		"swaps":             s.reg.Swaps(),
		"reload_failures":   s.reg.ReloadFailures(),
		"quarantined":       s.reg.Quarantined(),
		"rollbacks":         s.reg.Rollbacks(),
		"last_known_good":   lkg,
		"last_error":        s.reg.LastError(),
		"model_age_seconds": s.reg.ModelAge().Seconds(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.stats.Snapshot()
	snap["registry"] = s.registrySnapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap) //nolint:errcheck
}

// RollbackHandler returns an operator endpoint (POST) that rolls reg back
// to its last-known-good model. It is deliberately not mounted on the
// serving mux: cmd/pcloudsserve exposes it as /v1/rollback on the debug
// address, next to pprof, where operators — not load balancers — go.
func RollbackHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		m, err := reg.Rollback()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"active":    m.Info.Version,
			"rollbacks": reg.Rollbacks(),
		})
	})
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.stats.IncError()
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Server) tooLarge(w http.ResponseWriter, rows int) {
	s.stats.IncError()
	http.Error(w, fmt.Sprintf("%d rows exceeds the %d-row request cap", rows, s.cfg.MaxRows),
		http.StatusRequestEntityTooLarge)
}

// engineError maps engine sentinels onto the overload-shedding contract.
func (s *Server) engineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrNoModel):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "classification timed out in queue", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
