package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestProgressWriterJSONLines(t *testing.T) {
	var sb strings.Builder
	pw := NewProgressWriter(&sb)
	emit := pw.Emit()
	emit(LevelProgress{Rank: 0, Level: 1, Frontier: 2, RecordsRouted: 10, CommBytes: 100, Checkpoint: "ok"})
	emit(LevelProgress{Rank: 1, Level: 1, Frontier: 2, RecordsRouted: 20, CommBytes: 50})
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	var lp LevelProgress
	if err := json.Unmarshal([]byte(lines[0]), &lp); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if lp.Level != 1 || lp.RecordsRouted != 10 || lp.Checkpoint != "ok" {
		t.Fatalf("line 0 round trip: %+v", lp)
	}
	// The checkpoint field is omitted, not emitted empty, when unset.
	if strings.Contains(lines[1], "checkpoint") {
		t.Fatalf("line 1 carries an empty checkpoint field: %s", lines[1])
	}

	// A nil writer is a no-op with a nil callback.
	var nilPW *ProgressWriter
	if nilPW.Emit() != nil {
		t.Fatal("nil writer must yield a nil callback")
	}
	nilPW.Write(LevelProgress{})
	if err := nilPW.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderLevelTable(t *testing.T) {
	all := []LevelProgress{
		{Rank: 0, Level: 1, Frontier: 2, RecordsRouted: 10, SplitEvals: 1, CommBytes: 100, Collectives: 7, WallSec: 0.5, Checkpoint: "ok"},
		{Rank: 1, Level: 1, Frontier: 2, RecordsRouted: 30, SplitEvals: 1, CommBytes: 200, Collectives: 7, WallSec: 0.75, Checkpoint: "ok"},
		{Rank: 0, Level: 2, Frontier: 0, SmallPending: 3, RecordsRouted: 5, CommBytes: 10, WallSec: 0.1, Checkpoint: "failed"},
		{Rank: 1, Level: 2, Frontier: 0, SmallPending: 3, RecordsRouted: 5, CommBytes: 10, WallSec: 0.2, Checkpoint: "ok"},
	}
	tbl := renderLevelTable(all)
	if tbl == "" {
		t.Fatal("empty table for nonempty records")
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	// Banner + header + one row per level.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), tbl)
	}
	row1 := strings.Fields(lines[2])
	// level frontier small split-evals routed comm-bytes collectives ...
	// (collectives are one rank's rounds, not the sum over ranks).
	if row1[0] != "1" || row1[1] != "2" || row1[3] != "2" || row1[4] != "40" || row1[5] != "300" || row1[6] != "7" {
		t.Fatalf("level 1 row aggregates wrong: %v", row1)
	}
	// Wall is the slowest rank's, not the sum.
	if !strings.Contains(lines[2], "0.750000") {
		t.Fatalf("level 1 row missing max wall 0.75: %s", lines[2])
	}
	// One failed rank marks the level failed.
	if !strings.Contains(lines[3], "failed(1)") {
		t.Fatalf("level 2 row must show failed(1): %s", lines[3])
	}
	if renderLevelTable(nil) != "" {
		t.Fatal("nil records must render nothing")
	}
}
