package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pclouds/internal/datagen"
	"pclouds/internal/record"
)

// The tail-wake tests tail with a poll interval of an hour, so a record
// returned within seconds of its append was woken by a file event.

// tailCase is a record file in one format, cut where its writer is caught
// up with: head ends on a record (v1) or block (v2) boundary and holds
// records records; the rest of the file, appended records, is one append.
type tailCase struct {
	name     string
	schema   *record.Schema
	raw      []byte
	head     int
	records  int
	appended int
}

func tailCases(t *testing.T) []tailCase {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate(300)
	var v1 bytes.Buffer
	if err := d.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	v2, schema := v2StreamFile(t, 4096+300, 7) // two blocks
	b1 := binary.LittleEndian.Uint32(v2[record.V2HeaderSize:])
	return []tailCase{
		{name: "v1", schema: d.Schema, raw: v1.Bytes(), head: 200 * d.Schema.RecordBytes(), records: 200, appended: 100},
		{name: "v2", schema: schema, raw: v2, head: record.V2HeaderSize + record.V2BlockHeaderSize + int(b1), records: 4096, appended: 300},
	}
}

// open writes the case's head to a fresh file, tails it and reads the
// head's records, so the tail has caught up with its writer. It returns
// the tail and the file, open for appending.
func (c tailCase) open(t *testing.T, stop <-chan struct{}) (*TailSource, *os.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.bin")
	if err := os.WriteFile(path, c.raw[:c.head], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	src, err := TailFile(c.schema, path, TailOptions{Poll: time.Hour, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	var rec record.Record
	for i := 0; i < c.records; i++ {
		if ok, err := src.Next(&rec); !ok || err != nil {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	return src, w
}

// nextAsync runs one Next on its own goroutine.
func nextAsync(src *TailSource) <-chan error {
	res := make(chan error, 1)
	go func() {
		var rec record.Record
		ok, err := src.Next(&rec)
		if err == nil && !ok {
			err = errCleanEnd
		}
		res <- err
	}()
	return res
}

// errCleanEnd is what nextAsync reports for Next's (false, nil).
var errCleanEnd = errors.New("clean end of stream")

func skipOffLinuxTail(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("file events are watched on Linux only; elsewhere the tail polls")
	}
}

// TestTailWakeOnAppend: a tail waiting on its caught-up file returns the
// next appended block within 2 s, and Stop still ends a waiting tail.
func TestTailWakeOnAppend(t *testing.T) {
	skipOffLinuxTail(t)
	for _, c := range tailCases(t) {
		t.Run(c.name, func(t *testing.T) {
			stop := make(chan struct{})
			src, w := c.open(t, stop)
			defer src.Close()
			got := nextAsync(src)
			time.Sleep(20 * time.Millisecond) // let Next arm its watch and block
			if _, err := w.Write(c.raw[c.head:]); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-got:
				if err != nil {
					t.Fatalf("Next after the append: %v", err)
				}
			case <-time.After(2 * time.Second):
				close(stop)
				<-got
				t.Fatal("an appended record was not returned within 2 s")
			}

			var rec record.Record
			for i := 1; i < c.appended; i++ {
				if ok, err := src.Next(&rec); !ok || err != nil {
					t.Fatalf("draining the append: ok=%v err=%v", ok, err)
				}
			}
			got = nextAsync(src)
			time.Sleep(20 * time.Millisecond)
			close(stop)
			select {
			case err := <-got:
				if err != errCleanEnd {
					t.Fatalf("stopped Next: %v, want a clean end", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Stop did not end a waiting tail within 2 s")
			}
		})
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestTailWakeCloseReleasesWatch: Close leaves neither the watch's
// goroutine nor its file descriptor behind.
func TestTailWakeCloseReleasesWatch(t *testing.T) {
	skipOffLinuxTail(t)
	// The runtime's poller keeps descriptors of its own from first use;
	// make that happen before counting.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	pr.Close()
	pw.Close()
	for _, c := range tailCases(t) {
		t.Run(c.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)
			stop := make(chan struct{})
			src, w := c.open(t, stop)
			got := nextAsync(src)
			// The written file, the tailed file and, once Next waits, the
			// watch.
			for deadline := time.Now().Add(2 * time.Second); openFDs(t) != fds+3; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					close(stop)
					<-got
					t.Fatalf("%d descriptors open while the tail waits, want %d", openFDs(t), fds+3)
				}
			}
			close(stop)
			if err := <-got; err != errCleanEnd {
				t.Fatalf("stopped Next: %v", err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			awaitGoroutines(t, goroutines)
			if n := openFDs(t); n != fds {
				t.Fatalf("%d descriptors open after Close, %d before the tail", n, fds)
			}
		})
	}
}
