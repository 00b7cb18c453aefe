package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pclouds/internal/durable"
	"pclouds/internal/obs"
	"pclouds/internal/tree"
)

// Registry is the versioned model store. It points at either a directory
// of persisted models (the version is the file name; the newest file wins)
// or a single model file, loads and validates candidates, and publishes
// the active version through an atomic pointer so Classify paths read it
// without locks.
//
// Hot reload is pull-based: Reload rescans and swaps if the best candidate
// on disk differs from what is being served. Watch runs Reload on a
// timer; cmd/pcloudsserve also triggers it on SIGHUP. Because tree.SaveFile
// renames a complete, fsynced temp file into place, the poller can never
// observe a torn model; and if a foreign writer does produce a corrupt
// file, loading fails validation and the previous version keeps serving —
// for directory registries the corrupt file is additionally quarantined
// (renamed aside by durable.Quarantine) so the poller moves on to
// the next-best candidate instead of retrying the same broken file every
// tick.
//
// The registry also keeps a last-known-good slot: the model displaced by
// the most recent swap. Rollback re-activates it and pins the displaced
// candidate's on-disk identity so the poller does not immediately re-swap
// it in; the pin clears as soon as a different (newer) candidate appears.
type Registry struct {
	path string // directory or file; "" for static registries

	mu     sync.Mutex // serialises Reload/SetActive/Rollback
	active atomic.Pointer[Model]
	prev   atomic.Pointer[Model] // last-known-good: displaced by the latest swap
	swaps  atomic.Int64
	// reloadFailures counts Reload calls that returned an error (scan or
	// load failure). The active model keeps serving through them, so this
	// counter — not availability — is how an operator notices a corrupt or
	// vanished model path.
	reloadFailures atomic.Int64
	quarantined    atomic.Int64
	rollbacks      atomic.Int64
	lastErr        atomic.Pointer[string]
	logf           func(format string, args ...any)
	// loggedErr dedups reload-failure logging: a persistent failure (the
	// same error every poll tick) is logged once, not once per tick.
	// Guarded by mu.
	loggedErr string
	// pin, when pinned, is the on-disk identity Rollback displaced; a scan
	// candidate matching it is treated as unchanged. Guarded by mu.
	pin    candidate
	pinned bool
}

// OpenRegistry opens a registry rooted at path (a directory of model files
// or one model file) and loads the initial model. It fails if no valid
// model can be loaded, so a server never starts ready-but-empty.
func OpenRegistry(path string) (*Registry, error) {
	r := &Registry{path: path, logf: func(string, ...any) {}}
	if _, _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewStaticRegistry wraps an in-memory model (tests, -selftest). SetActive
// swaps it later.
func NewStaticRegistry(m *Model) *Registry {
	r := &Registry{logf: func(string, ...any) {}}
	if m != nil {
		r.active.Store(m)
	}
	return r
}

// SetLogf installs a logger for swap/skip events (nil disables).
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r.mu.Lock()
	r.logf = logf
	r.mu.Unlock()
}

// Active returns the model currently being served, or nil.
func (r *Registry) Active() *Model { return r.active.Load() }

// Swaps returns how many times the active version changed.
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// ReloadFailures returns how many reload attempts failed since start.
func (r *Registry) ReloadFailures() int64 { return r.reloadFailures.Load() }

// Quarantined returns how many corrupt model files were renamed aside.
func (r *Registry) Quarantined() int64 { return r.quarantined.Load() }

// Rollbacks returns how many times Rollback re-activated the
// last-known-good model.
func (r *Registry) Rollbacks() int64 { return r.rollbacks.Load() }

// LastKnownGood returns the model the most recent swap displaced — the
// Rollback target — or nil when there is none (fresh start, or Rollback
// already consumed it).
func (r *Registry) LastKnownGood() *Model { return r.prev.Load() }

// ModelAge returns how old the active model is: time since the model file
// was written (its mtime), or — for in-memory models without a file —
// since it was loaded. Zero when no model is active. In a streaming
// pipeline this is the serving tier's freshness signal: it resets on every
// published window and grows when the trainer stalls.
func (r *Registry) ModelAge() time.Duration {
	m := r.active.Load()
	if m == nil {
		return 0
	}
	ref := m.Info.ModTime
	if ref.IsZero() {
		ref = m.Info.Loaded
	}
	if ref.IsZero() {
		return 0
	}
	age := time.Since(ref)
	if age < 0 {
		return 0
	}
	return age
}

// LastError returns the most recent reload error message ("" when the last
// reload succeeded).
func (r *Registry) LastError() string {
	if s := r.lastErr.Load(); s != nil {
		return *s
	}
	return ""
}

// RegisterMetrics wires the reload counters onto reg as pclouds_serve_model_*
// series, read at scrape time.
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("pclouds_serve_model_swaps_total", "Active model version changes.").
		Func(func() float64 { return float64(r.Swaps()) })
	reg.Counter("pclouds_serve_model_reload_failures_total", "Model reload attempts that failed.").
		Func(func() float64 { return float64(r.ReloadFailures()) })
	reg.Counter("pclouds_serve_model_quarantined_total", "Corrupt model files renamed aside (.quarantined).").
		Func(func() float64 { return float64(r.Quarantined()) })
	reg.Counter("pclouds_serve_model_rollbacks_total", "Rollbacks to the last-known-good model.").
		Func(func() float64 { return float64(r.Rollbacks()) })
	reg.Gauge("pclouds_serve_model_age_seconds", "Age of the active model (mtime-based; loaded-time for in-memory models).").
		Func(func() float64 { return r.ModelAge().Seconds() })
}

// SetActive force-publishes a model (static registries and tests). The
// displaced model becomes the last-known-good Rollback target.
func (r *Registry) SetActive(m *Model) {
	r.mu.Lock()
	if cur := r.active.Load(); cur != nil {
		r.prev.Store(cur)
	}
	r.active.Store(m)
	r.swaps.Add(1)
	r.mu.Unlock()
}

// Rollback re-activates the last-known-good model (the one the most
// recent swap displaced). The displaced candidate's on-disk identity is
// pinned so the poller does not immediately swap it back in; the pin
// clears when any different candidate appears. One rollback consumes the
// slot — a second Rollback without an intervening swap fails.
func (r *Registry) Rollback() (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.prev.Load()
	if prev == nil {
		return nil, fmt.Errorf("serve: registry: no last-known-good model to roll back to")
	}
	cur := r.active.Load()
	r.active.Store(prev)
	r.prev.Store(nil)
	r.swaps.Add(1)
	r.rollbacks.Add(1)
	from := "(none)"
	if cur != nil {
		from = cur.Info.Version
		if cur.Info.Path != "" {
			r.pin = candidate{path: cur.Info.Path, mod: cur.Info.ModTime, size: cur.Info.SizeBytes}
			r.pinned = true
		}
	}
	r.logf("serve: registry: rolled back %s -> %s (displaced candidate stays pinned out until a newer model appears)",
		from, prev.Info.Version)
	return prev, nil
}

// Reload rescans the registry path and atomically swaps in the best
// candidate if it differs from the active version. It returns the model
// now being served and whether a swap happened. A candidate that fails to
// load or validate never displaces the active model: in a directory
// registry it is quarantined (renamed aside) and the next-best candidate
// is tried; a single-file registry keeps serving and records the error.
// A persistent failure is logged once, not once per poll tick.
func (r *Registry) Reload() (*Model, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.path == "" {
		return r.active.Load(), false, nil
	}
	m, swapped, err := r.reloadLocked()
	if err != nil {
		r.reloadFailures.Add(1)
		msg := err.Error()
		r.lastErr.Store(&msg)
		if msg != r.loggedErr {
			r.loggedErr = msg
			r.logf("serve: registry: reload: %v", err)
		}
	} else {
		empty := ""
		r.lastErr.Store(&empty)
		r.loggedErr = ""
	}
	return m, swapped, err
}

func (r *Registry) reloadLocked() (*Model, bool, error) {
	cur := r.active.Load()
	for {
		cand, err := scanModels(r.path)
		if err != nil {
			return cur, false, err
		}
		if r.pinned {
			if cand.path == r.pin.path && cand.mod.Equal(r.pin.mod) && cand.size == r.pin.size {
				return cur, false, nil // rolled-back-from model: hold the rollback
			}
			r.pinned = false // a different candidate supersedes the pin
		}
		if cur != nil && cur.Info.Path == cand.path &&
			cur.Info.ModTime.Equal(cand.mod) && cur.Info.SizeBytes == cand.size {
			return cur, false, nil // unchanged on disk
		}
		m, err := LoadModelFile(cand.path)
		if err != nil {
			if cand.path != r.path { // directory registry: quarantine, try next-best
				if q, rerr := durable.Quarantine(cand.path); rerr == nil {
					r.quarantined.Add(1)
					r.logf("serve: registry: quarantined %s (moved to %s): %v", cand.path, q, err)
					continue
				}
			}
			return cur, false, err
		}
		if cur != nil {
			r.prev.Store(cur)
		}
		r.active.Store(m)
		r.swaps.Add(1)
		from := "(none)"
		if cur != nil {
			from = cur.Info.Version
		}
		r.logf("serve: registry: active model %s -> %s (%d nodes, depth %d)",
			from, m.Info.Version, m.Info.Nodes, m.Info.Depth)
		return m, true, nil
	}
}

// Watch polls Reload every interval until ctx is cancelled. Errors are
// reported through the registry logger (deduplicated) and LastError; the
// previous model keeps serving.
func (r *Registry) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Reload() //nolint:errcheck // logged (once) inside Reload
		}
	}
}

// LoadModelFile loads and validates one persisted model; the version is
// the file's base name.
func LoadModelFile(path string) (*Model, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	t, err := tree.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: loading model %s: %w", path, err)
	}
	m, err := NewModel(t, filepath.Base(path))
	if err != nil {
		return nil, err
	}
	m.Info.Path = path
	m.Info.ModTime = st.ModTime()
	m.Info.SizeBytes = st.Size()
	return m, nil
}

type candidate struct {
	path string
	mod  time.Time
	size int64
}

// scanModels picks the best model candidate under path: the path itself if
// it is a file, otherwise the regular file in the directory with the
// newest mtime (name descending as tiebreak). Dotfiles and files that are
// not durable.Live (interrupted-write temporaries, quarantined files) are
// skipped.
func scanModels(path string) (candidate, error) {
	st, err := os.Stat(path)
	if err != nil {
		return candidate{}, err
	}
	if !st.IsDir() {
		return candidate{path: path, mod: st.ModTime(), size: st.Size()}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return candidate{}, err
	}
	var best candidate
	found := false
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || strings.HasPrefix(name, ".") || !durable.Live(name) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		c := candidate{path: filepath.Join(path, name), mod: info.ModTime(), size: info.Size()}
		if !found || c.mod.After(best.mod) || (c.mod.Equal(best.mod) && c.path > best.path) {
			best, found = c, true
		}
	}
	if !found {
		return candidate{}, fmt.Errorf("serve: no model files in %s", path)
	}
	return best, nil
}
