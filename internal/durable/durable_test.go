package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
)

var errBroken = errors.New("broken checkpoint")

// TestResumeAgreement runs the resume agreement over a channel group for
// each case and checks every rank returns the same epoch (or the same kind
// of error) after trying exactly the expected candidates.
func TestResumeAgreement(t *testing.T) {
	fatal := errors.New("configuration mismatch")
	cases := []struct {
		name  string
		have  [][]int
		fail  map[[2]int]error // (rank, epoch) -> restore error
		want  int
		tried []int
		err   error
	}{
		{name: "newest common", have: [][]int{{1, 2, 3}, {1, 2, 3}}, want: 3, tried: []int{3}},
		{name: "holes", have: [][]int{{2, 4}, {2, 3}}, want: 2, tried: []int{2}},
		{name: "holes at three ranks", have: [][]int{{1, 5, 6}, {1, 2, 5}, {5, 6, 1}}, want: 5, tried: []int{5}},
		{name: "one rank's restore failing", have: [][]int{{1, 2, 3}, {1, 2, 3}},
			fail: map[[2]int]error{{1, 3}: errBroken}, want: 2, tried: []int{3, 2}},
		{name: "failed epochs bound the search", have: [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3}},
			fail: map[[2]int]error{{0, 3}: errBroken, {2, 2}: errBroken}, want: 1, tried: []int{3, 2, 1}},
		{name: "fatal error", have: [][]int{{1, 2}, {1, 2}},
			fail: map[[2]int]error{{0, 2}: Fatal(fatal), {1, 2}: Fatal(fatal)}, tried: []int{2}, err: fatal},
		{name: "no common epoch", have: [][]int{{1}, {2}}, err: ErrNoEpoch},
		{name: "nothing anywhere", have: [][]int{nil, nil, nil}, err: ErrNoEpoch},
		{name: "every candidate failing", have: [][]int{{1, 2}, {1, 2}},
			fail: map[[2]int]error{{0, 1}: errBroken, {0, 2}: errBroken}, tried: []int{2, 1}, err: ErrNoEpoch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := len(tc.have)
			got := make([]int, p)
			errs := make([]error, p)
			tried := make([][]int, p)
			err := comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
				r := c.Rank()
				got[r], errs[r] = Resume(c, tc.have[r], func(epoch int) error {
					tried[r] = append(tried[r], epoch)
					return tc.fail[[2]int{r, epoch}]
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if tc.err != nil {
					if !errors.Is(errs[r], tc.err) {
						t.Errorf("rank %d: err %v, want %v", r, errs[r], tc.err)
					}
				} else if errs[r] != nil || got[r] != tc.want {
					t.Errorf("rank %d: epoch %d err %v, want epoch %d", r, got[r], errs[r], tc.want)
				}
				if !reflect.DeepEqual(tried[r], tc.tried) {
					t.Errorf("rank %d tried %v, want %v", r, tried[r], tc.tried)
				}
			}
		})
	}
}

// TestResumeFatalOnOneRank: a fatal restore error on one rank ends Resume
// on every rank in the same vote. That rank returns its own error and its
// peers ErrPeerFatal; none is left waiting in the vote.
func TestResumeFatalOnOneRank(t *testing.T) {
	mismatch := errors.New("configuration mismatch")
	const p = 3
	errs := make([]error, p)
	done := make(chan error, 1)
	go func() {
		done <- comm.Run(p, costmodel.Zero(), func(c *comm.ChannelComm) error {
			r := c.Rank()
			_, errs[r] = Resume(c, []int{1, 2}, func(epoch int) error {
				if r == 1 {
					return Fatal(mismatch)
				}
				return nil
			})
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Resume did not return on every rank after one rank's fatal restore error")
	}
	for r, err := range errs {
		want := ErrPeerFatal
		if r == 1 {
			want = mismatch
		}
		if !errors.Is(err, want) {
			t.Errorf("rank %d: err %v, want %v", r, err, want)
		}
	}
}

// TestResumeNoEpochWrapsCause: the rank whose restore failed sees its own
// failure wrapped in ErrNoEpoch.
func TestResumeNoEpochWrapsCause(t *testing.T) {
	c := comm.NewGroup(1, costmodel.Zero())[0]
	_, err := Resume(c, []int{1}, func(int) error { return errBroken })
	if !errors.Is(err, ErrNoEpoch) || !errors.Is(err, errBroken) {
		t.Fatalf("err %v, want ErrNoEpoch wrapping the restore failure", err)
	}
}

// TestAgreeIsAllOrNothing: the vote is true on every rank only when every
// rank passed true.
func TestAgreeIsAllOrNothing(t *testing.T) {
	for _, votes := range [][]bool{{true, true, true}, {true, false, true}, {false, false, false}} {
		want := !slices.Contains(votes, false)
		got := make([]bool, len(votes))
		err := comm.Run(len(votes), costmodel.Zero(), func(c *comm.ChannelComm) error {
			var err error
			got[c.Rank()], err = Agree(c, votes[c.Rank()])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, g := range got {
			if g != want {
				t.Errorf("votes %v: rank %d got %v, want %v", votes, r, g, want)
			}
		}
	}
}

// TestPrunePolicy pins the one retention policy: the keep epochs up to the
// agreed one survive, older and newer epochs are removed, keep 0 removes
// everything.
func TestPrunePolicy(t *testing.T) {
	cases := []struct {
		name          string
		have          []int
		newest, keep  int
		kept, removed []int
	}{
		{name: "commit keeps the horizon", have: []int{1, 2, 3, 4}, newest: 4, keep: 2, kept: []int{3, 4}, removed: []int{1, 2}},
		{name: "resume removes newer orphans", have: []int{1, 2, 3, 4, 5}, newest: 3, keep: 3, kept: []int{1, 2, 3}, removed: []int{4, 5}},
		{name: "holes inside the horizon", have: []int{1, 4, 6}, newest: 6, keep: 3, kept: []int{4, 6}, removed: []int{1}},
		{name: "keep zero removes all", have: []int{2, 3}, newest: 0, keep: 0, removed: []int{2, 3}},
		{name: "nothing held", newest: 5, keep: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var removed []int
			kept := Prune(tc.have, tc.newest, tc.keep, func(e int) { removed = append(removed, e) })
			if !slices.Equal(kept, tc.kept) || !slices.Equal(removed, tc.removed) {
				t.Fatalf("kept %v removed %v, want kept %v removed %v", kept, removed, tc.kept, tc.removed)
			}
		})
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %q (%v), want %q", got, err, data)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %v (%v), want only the artifact", ents, err)
	}
	// A failed write leaves no temporary behind: here the rename fails
	// because the destination is a directory.
	if err := os.Mkdir(filepath.Join(dir, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "occupied"), []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("failed write left %v", ents)
	}
}

// TestNamingRule: temporaries and quarantined files are not live, and
// Epochs lists only live names.
func TestNamingRule(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "window-000002.ck"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"window-000004.ck", "window-000004.ck.tmp-123", "window-000001.ck"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q, err := Quarantine(filepath.Join(dir, "window-000001.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if q != QuarantineName(filepath.Join(dir, "window-000001.ck")) || !Quarantined(q) || Live(q) {
		t.Fatalf("quarantined as %q", q)
	}
	if Live("model.tree.tmp-42") || !Live("model.tree") {
		t.Fatal("live predicate misclassifies")
	}
	got, err := Epochs(dir, "window-%d.ck")
	if err != nil || fmt.Sprint(got) != "[2 4]" {
		t.Fatalf("epochs %v (%v), want [2 4]", got, err)
	}
	if got, err := Epochs(filepath.Join(dir, "absent"), "window-%d.ck"); err != nil || got != nil {
		t.Fatalf("missing dir: %v %v", got, err)
	}
}

func TestChecksumIsCastagnoli(t *testing.T) {
	// The standard CRC-32C check value.
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("Checksum = %08x, want e3069283", got)
	}
	if got := Update(Checksum([]byte("1234")), []byte("56789")); got != 0xe3069283 {
		t.Fatalf("Update = %08x, want e3069283", got)
	}
}
