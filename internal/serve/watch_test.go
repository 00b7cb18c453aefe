package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pclouds/internal/durable"
	"pclouds/internal/tree"
)

// The watch tests run Registry.Watch with a fallback interval of an hour,
// so a model served within seconds was picked up by a file event.

// startWatch runs reg.Watch at interval until the test ends.
func startWatch(t *testing.T, reg *Registry, interval time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Watch(ctx, interval)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// publish writes a model the way the stream publisher does: through
// durable.WriteFile (a temporary in the directory, fsync, rename).
func publish(t *testing.T, m *Model, path string) {
	t.Helper()
	file, err := tree.FileBytes(m.Tree.Schema, tree.Encode(m.Tree))
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(path, file); err != nil {
		t.Fatal(err)
	}
}

// awaitActive fails the test unless reg serves version within 2 s.
func awaitActive(t *testing.T, reg *Registry, version string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); reg.Active().Info.Version != version; {
		if time.Now().After(deadline) {
			t.Fatalf("active = %q two seconds after %s landed", reg.Active().Info.Version, version)
		}
		time.Sleep(time.Millisecond)
	}
}

func skipOffLinux(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("file events are watched on Linux only; elsewhere the registry polls")
	}
}

func TestRegistryWatchServesPublishedModels(t *testing.T) {
	skipOffLinux(t)
	dir := t.TempDir()
	saveModel(t, leafModel(t, "", 0), filepath.Join(dir, "m1.model"), time.Now().Add(-time.Hour))
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	startWatch(t, reg, time.Hour)
	publish(t, leafModel(t, "", 1), filepath.Join(dir, "m2.model"))
	awaitActive(t, reg, "m2.model")
	publish(t, leafModel(t, "", 0), filepath.Join(dir, "m3.model"))
	awaitActive(t, reg, "m3.model")
}

func TestRegistryWatchSingleFile(t *testing.T) {
	skipOffLinux(t)
	path := filepath.Join(t.TempDir(), "model.pcm")
	saveModel(t, leafModel(t, "", 0), path, time.Now().Add(-time.Hour))
	reg, err := OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	startWatch(t, reg, time.Hour)
	publish(t, leafModel(t, "", 1), path)
	for deadline := time.Now().Add(2 * time.Second); reg.Active().Tree.Classify(leafRec()) != 1; {
		if time.Now().After(deadline) {
			t.Fatal("an atomic overwrite of the model file was not served within 2 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegistryWatchIgnoresTempAndQuarantine: neither a WriteFile temporary
// being written nor a rename to a quarantined name wakes the registry. The
// old model is made the newest candidate by an mtime change (which raises
// no watched event), so any reload those names caused would swap it back.
func TestRegistryWatchIgnoresTempAndQuarantine(t *testing.T) {
	skipOffLinux(t)
	dir := t.TempDir()
	old := filepath.Join(dir, "m1.model")
	saveModel(t, leafModel(t, "", 0), old, time.Now().Add(-time.Hour))
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	startWatch(t, reg, time.Hour)
	publish(t, leafModel(t, "", 1), filepath.Join(dir, "m2.model"))
	awaitActive(t, reg, "m2.model")
	swaps := reg.Swaps()

	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(old, future, future); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m3.model.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	aside := filepath.Join(t.TempDir(), "bad.model")
	if err := os.WriteFile(aside, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, durable.QuarantineName(filepath.Join(dir, "bad.model"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := reg.Active().Info.Version; got != "m2.model" || reg.Swaps() != swaps {
		t.Fatalf("active %q after %d swaps (want m2.model after %d): a temporary or quarantined name woke the registry",
			got, reg.Swaps(), swaps)
	}
}

// TestRegistryWatchFallsBackToTicker: when the watch cannot be armed the
// registry polls as before.
func TestRegistryWatchFallsBackToTicker(t *testing.T) {
	dir := t.TempDir()
	saveModel(t, leafModel(t, "", 0), filepath.Join(dir, "m1.model"), time.Now().Add(-time.Hour))
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	armed := make(chan struct{})
	reg.watch = func(string, func(string) bool) (<-chan struct{}, func(), error) {
		close(armed)
		return nil, nil, errors.New("inotify_init1: too many open files")
	}
	startWatch(t, reg, 10*time.Millisecond)
	<-armed
	publish(t, leafModel(t, "", 1), filepath.Join(dir, "m2.model"))
	awaitActive(t, reg, "m2.model")
}
