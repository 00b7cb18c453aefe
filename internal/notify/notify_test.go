//go:build linux

package notify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// woken reports whether wake fires within d.
func woken(wake <-chan struct{}, d time.Duration) bool {
	select {
	case <-wake:
		return true
	case <-time.After(d):
		return false
	}
}

func TestWatchDirWakesOnMatchingEntry(t *testing.T) {
	dir := t.TempDir()
	wake, stop, err := Watch(dir, func(name string) bool { return !strings.HasPrefix(name, "skip") })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if err := os.WriteFile(filepath.Join(dir, "skip-me"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if woken(wake, 100*time.Millisecond) {
		t.Fatal("an entry match rejects woke the watch")
	}
	// A rename into the directory wakes it, as a durable.WriteFile does.
	tmp := filepath.Join(dir, "skip-tmp")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "model")); err != nil {
		t.Fatal(err)
	}
	if !woken(wake, 2*time.Second) {
		t.Fatal("a rename into the directory did not wake the watch")
	}
}

func TestWatchFileWakesOnWriteAndCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wake, stop, err := Watch(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	if !woken(wake, 2*time.Second) {
		t.Fatal("an append did not wake the watch")
	}
	// Once the reader has seen every event, at most one more wake is
	// pending, never one per write.
	time.Sleep(200 * time.Millisecond)
	select {
	case <-wake:
	default:
	}
	if woken(wake, 50*time.Millisecond) {
		t.Fatal("wakes did not coalesce")
	}
}

func TestWatchMissingPathFails(t *testing.T) {
	if _, _, err := Watch(filepath.Join(t.TempDir(), "absent"), nil); err == nil {
		t.Fatal("watching a missing path succeeded")
	}
}
