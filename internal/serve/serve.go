// Package serve is the prediction-serving half of the repository: it takes
// tree models persisted by tree.SaveFile and turns them into a
// production-shaped inference service.
//
// The pieces, front to back:
//
//   - Registry: a versioned model store that loads persisted models from a
//     directory (or a single file), validates them with tree.Validate, and
//     hot-swaps the active version through an atomic pointer — a running
//     server picks up a freshly trained model with zero downtime, and a
//     file that fails to load never displaces the version being served.
//   - Engine: a batched prediction engine — a worker pool pulling from a
//     bounded request queue that coalesces single classifications into
//     batches for cache-friendly tree traversal, with admission control
//     that sheds load (ErrOverloaded → HTTP 503 + Retry-After) when the
//     queue is full rather than collapsing under it.
//   - Server: the HTTP API — /v1/classify (JSON, single or batch),
//     /v1/classify.bin (binary feature rows, for high-throughput clients),
//     /healthz, /readyz, /v1/model, /v1/stats — with graceful drain on
//     shutdown.
//   - Stats: QPS, latency quantiles, batch-size/queue-depth histograms and
//     per-model-version counters, publishable at /debug/vars through
//     internal/obs.
//   - Load harness: a pacing load generator (loadgen.go) that replays
//     datagen records against an Engine or a remote HTTP server at a
//     target QPS and reports achieved throughput and latency.
package serve

import (
	"errors"
	"fmt"
	"time"

	"pclouds/internal/tree"
)

// Sentinel errors surfaced by the engine; the HTTP layer maps them onto
// status codes (ErrOverloaded/ErrClosed → 503 + Retry-After, ErrNoModel →
// 503 without Retry-After).
var (
	// ErrOverloaded means the request queue was full and the request was
	// shed at admission instead of being allowed to grow an unbounded
	// backlog.
	ErrOverloaded = errors.New("serve: request queue full")
	// ErrClosed means the engine is draining or closed.
	ErrClosed = errors.New("serve: engine closed")
	// ErrNoModel means no model version is currently loaded.
	ErrNoModel = errors.New("serve: no model loaded")
)

// ModelInfo is the metadata attached to a loaded model version; it is what
// /v1/model reports.
type ModelInfo struct {
	Version   string    `json:"version"`
	Path      string    `json:"path,omitempty"`
	Loaded    time.Time `json:"loaded"`
	ModTime   time.Time `json:"mod_time,omitempty"`
	SizeBytes int64     `json:"size_bytes,omitempty"`
	Nodes     int       `json:"nodes"`
	Leaves    int       `json:"leaves"`
	Depth     int       `json:"depth"`
}

// Model is an immutable, validated tree plus its metadata and its compiled
// routing form. Once published through a Registry it is never mutated, so
// readers (every engine worker, across registry swaps) may use it without
// locks.
type Model struct {
	Tree *tree.Tree
	Info ModelInfo
	// flat is Tree compiled once per model version, so a registry reload
	// pays for the compile and requests do not.
	flat *tree.Compiled
}

// NewModel validates t, compiles it, and wraps it as a servable model
// version. t must not be changed afterwards.
func NewModel(t *tree.Tree, version string) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q invalid: %w", version, err)
	}
	return &Model{
		Tree: t,
		flat: tree.Compile(t),
		Info: ModelInfo{
			Version: version,
			Loaded:  time.Now(),
			Nodes:   t.NumNodes(),
			Leaves:  t.NumLeaves(),
			Depth:   t.Depth(),
		},
	}, nil
}

// ModelSource yields the currently active model; Registry implements it.
// Active may return nil when nothing is loaded.
type ModelSource interface {
	Active() *Model
}
