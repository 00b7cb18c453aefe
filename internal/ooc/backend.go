package ooc

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// fileBackend stores record files under a directory. Names may contain '/'
// separators; they are mapped to flat file names to avoid directory churn.
type fileBackend struct {
	dir string
}

func (f *fileBackend) path(name string) string {
	return filepath.Join(f.dir, strings.ReplaceAll(name, "/", "__"))
}

func (f *fileBackend) Create(name string) (io.WriteCloser, error) {
	return os.Create(f.path(name))
}

func (f *fileBackend) Append(name string) (io.WriteCloser, error) {
	return os.OpenFile(f.path(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (f *fileBackend) Open(name string) (io.ReadCloser, error) {
	return os.Open(f.path(name))
}

func (f *fileBackend) Size(name string) (int64, error) {
	st, err := os.Stat(f.path(name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (f *fileBackend) Remove(name string) error {
	return os.Remove(f.path(name))
}

func (f *fileBackend) Rename(oldName, newName string) error {
	return os.Rename(f.path(oldName), f.path(newName))
}

func (f *fileBackend) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, strings.ReplaceAll(e.Name(), "__", "/"))
		}
	}
	return names, nil
}

// Sync flushes a named file's data to stable storage (fsync); checkpoint
// manifests must not reference record files the OS could still lose.
func (f *fileBackend) Sync(name string) error {
	fd, err := os.Open(f.path(name))
	if err != nil {
		return err
	}
	defer fd.Close()
	return fd.Sync()
}

// memBackend stores files in memory; used by tests and large simulated
// clusters where thousands of node files would thrash the filesystem.
type memBackend struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemBackend() *memBackend {
	return &memBackend{files: make(map[string][]byte)}
}

// memWriter builds one memory file. Close hands the written bytes to the
// backend without copying them and drops the writer's hold on them; a
// Write after Close fails, so the stored file cannot change under its
// readers.
type memWriter struct {
	b    *memBackend
	name string
	buf  bytes.Buffer
	done bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("ooc: write to %s after close: %w", w.name, os.ErrClosed)
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	w.b.mu.Lock()
	w.b.files[w.name] = w.buf.Bytes()
	w.b.mu.Unlock()
	w.buf = bytes.Buffer{}
	return nil
}

func (m *memBackend) Create(name string) (io.WriteCloser, error) {
	return &memWriter{b: m, name: name}, nil
}

func (m *memBackend) Append(name string) (io.WriteCloser, error) {
	w := &memWriter{b: m, name: name}
	m.mu.Lock()
	if existing, ok := m.files[name]; ok {
		w.buf.Write(existing)
	}
	m.mu.Unlock()
	return w, nil
}

func (m *memBackend) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	data, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ooc: %w: %s", os.ErrNotExist, name)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

func (m *memBackend) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("ooc: %w: %s", os.ErrNotExist, name)
	}
	return int64(len(data)), nil
}

func (m *memBackend) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("ooc: %w: %s", os.ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

func (m *memBackend) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("ooc: %w: %s", os.ErrNotExist, oldName)
	}
	m.files[newName] = data
	delete(m.files, oldName)
	return nil
}

// Sync is a no-op: memory-backed files are exactly as durable as the
// process, there is no further level to flush to.
func (m *memBackend) Sync(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("ooc: %w: %s", os.ErrNotExist, name)
	}
	return nil
}

func (m *memBackend) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	return names, nil
}
