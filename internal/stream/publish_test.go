package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

// runRanksErr drives p engine instances like runRanks and returns the
// first rank's error instead of failing the test.
func runRanksErr(p int, cfg Config, newSrc func(rank int) Source) error {
	return comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
		src := newSrc(c.Rank())
		if src == nil {
			return fmt.Errorf("rank %d: no source", c.Rank())
		}
		defer src.Close()
		_, err := Run(cfg, c, src)
		return err
	})
}

// awaitGoroutines fails the test unless the process is back to at most n
// goroutines within a few seconds: a goroutine Run started and did not
// join would stay.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Run, %d before it:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPublishFailureNamesWindow: a publish directory no file can be
// written into fails the run with an error naming the window whose model
// did not reach it, whether the failed write is joined by the next
// publish (two windows) or on Run's way out (one window), at one and two
// ranks, and Run leaves no goroutine behind.
func TestPublishFailureNamesWindow(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		for _, windows := range []int{1, 2} {
			cfg := testConfig(t)
			cfg.PublishDir = filepath.Join(blocker, "models") // a path under a regular file
			cfg.MaxWindows = windows
			before := runtime.NumGoroutine()
			err := runRanksErr(p, cfg, synthetic(t, 0))
			if err == nil || !strings.Contains(err.Error(), "publishing window 1:") {
				t.Fatalf("p=%d, %d windows: err %v, want one naming window 1", p, windows, err)
			}
			awaitGoroutines(t, before)
		}
	}
}

// TestCheckpointNeverAheadOfModel: stopping a checkpointed run at every
// window k leaves, on every rank, no window checkpoint whose model is
// missing from the publish directory, and Run leaves no goroutine behind,
// at one and two ranks. While the run goes on, rank 0 — the publishing
// rank, which joins a window's model write before it writes the window's
// checkpoint — never holds such a checkpoint either, checked as each
// window starts, right after the last one's checkpoint.
func TestCheckpointNeverAheadOfModel(t *testing.T) {
	const windows = 6
	for _, p := range []int{1, 2} {
		for k := 1; k <= windows; k++ {
			dir, ckpt := t.TempDir(), t.TempDir()
			cfg := testConfig(t)
			cfg.PublishDir, cfg.CheckpointDir = dir, ckpt
			var mu sync.Mutex
			var ahead []string
			missing := func(rank int) []string {
				var out []string
				for _, w := range listWindows(ckpt, rank) {
					if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("model-w%06d.tree", w))); err != nil {
						out = append(out, fmt.Sprintf("rank %d window %d", rank, w))
					}
				}
				return out
			}
			stop := make(chan struct{})
			var once sync.Once
			cfg.Stop = stop
			cfg.RecordHook = func(window int, idx int64) {
				if idx%int64(cfg.WindowRecords) == 0 {
					mu.Lock()
					ahead = append(ahead, missing(0)...)
					mu.Unlock()
				}
				if window == k {
					once.Do(func() { close(stop) })
				}
			}
			before := runtime.NumGoroutine()
			if err := runRanksErr(p, cfg, synthetic(t, 0)); !errors.Is(err, ErrStopped) {
				t.Fatalf("p=%d, stop at window %d: err %v, want ErrStopped", p, k, err)
			}
			awaitGoroutines(t, before)
			if len(ahead) > 0 {
				t.Fatalf("p=%d, stop at window %d: checkpoints ahead of their models during the run: %v", p, k, ahead)
			}
			for rank := range p {
				if held := listWindows(ckpt, rank); len(held) == 0 || held[len(held)-1] != k {
					t.Fatalf("p=%d, stop at window %d: rank %d holds checkpoints %v", p, k, rank, held)
				}
				if m := missing(rank); len(m) > 0 {
					t.Fatalf("p=%d, stop at window %d: checkpoints without their models: %v", p, k, m)
				}
			}
		}
	}
}

// TestRunJoinsPublish: when Run returns, every model it published is on
// disk and counted — at the end of the run (Stats.Published counts joined
// writes only) and when stopped — and no goroutine it started is left,
// at one and two ranks.
func TestRunJoinsPublish(t *testing.T) {
	const windows = 4
	for _, p := range []int{1, 2} {
		cfg := testConfig(t)
		cfg.PublishDir, cfg.MaxWindows = t.TempDir(), windows
		before := runtime.NumGoroutine()
		res := runRanks(t, p, cfg, synthetic(t, 0))
		if got, files := res[0].Stats.Published, len(publishedModels(t, cfg.PublishDir)); got != windows || files != windows {
			t.Fatalf("p=%d: Published %d, %d model files, want %d", p, got, files, windows)
		}
		awaitGoroutines(t, before)

		cfg = testConfig(t)
		cfg.PublishDir = t.TempDir()
		stop := make(chan struct{})
		var once sync.Once
		cfg.Stop = stop
		cfg.RecordHook = func(window int, _ int64) {
			if window == windows {
				once.Do(func() { close(stop) })
			}
		}
		if err := runRanksErr(p, cfg, synthetic(t, 0)); !errors.Is(err, ErrStopped) {
			t.Fatalf("p=%d: err %v, want ErrStopped", p, err)
		}
		if files := len(publishedModels(t, cfg.PublishDir)); files != windows {
			t.Fatalf("p=%d: stopped after window %d with %d model files", p, windows, files)
		}
		awaitGoroutines(t, before)
	}
}
