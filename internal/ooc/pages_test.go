package ooc

import (
	"errors"
	"io"
	"os"
	"testing"

	"pclouds/internal/costmodel"
	"pclouds/internal/record"
)

// TestMain runs every test of the package with page poisoning on: the
// pipeline parity, integrity, corruption and failure tests all read back
// what they wrote, so a page used after it went back to the pool garbles
// their records or frames and fails them.
func TestMain(m *testing.M) {
	SetPagePoison(true)
	os.Exit(m.Run())
}

// checkPagesBalance fails t unless every page taken during fn was given
// back by the time it returned.
func checkPagesBalance(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	before := PagesInUse()
	fn(t)
	if after := PagesInUse(); after != before {
		t.Fatalf("%d pages taken and not given back", after-before)
	}
}

// pageStores returns one store per stream configuration that takes pages:
// synchronous and pipelined, each plain and verifying, over the memory
// backend, plus a pipelined verifying store over real files.
func pageStores(t *testing.T) map[string]*Store {
	t.Helper()
	schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
	out := map[string]*Store{}
	for _, pipe := range []bool{false, true} {
		for _, verify := range []bool{false, true} {
			st := NewMemStore(schema, costmodel.Zero(), nil)
			st.SetPipeline(Pipeline{Enabled: pipe, Depth: 2})
			if verify {
				st.EnableIntegrity(IntegrityOptions{Retries: -1, Backoff: -1})
			}
			out[map[bool]string{false: "sync", true: "pipelined"}[pipe]+map[bool]string{false: "", true: "+verify"}[verify]] = st
		}
	}
	fs, err := NewFileStore(schema, t.TempDir(), costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetPipeline(Pipeline{Enabled: true})
	fs.EnableIntegrity(IntegrityOptions{})
	out["file+pipelined+verify"] = fs
	return out
}

// TestPageBalance: every page a stream takes goes back to the pool, on the
// clean path and on every way a stream can end early.
func TestPageBalance(t *testing.T) {
	const rows = 30000 // several pages
	for name, st := range pageStores(t) {
		t.Run(name+"/full-scan", func(t *testing.T) {
			checkPagesBalance(t, func(t *testing.T) {
				if err := st.WriteAll("full", manyRecords(rows)); err != nil {
					t.Fatal(err)
				}
				got, err := st.ReadAll("full")
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != rows {
					t.Fatalf("read %d records, want %d", len(got), rows)
				}
				if n, err := st.Count("full"); err != nil || n != rows {
					t.Fatalf("Count = %d, %v", n, err)
				}
			})
		})
		t.Run(name+"/close-mid-stream", func(t *testing.T) {
			if err := st.WriteAll("mid", manyRecords(rows)); err != nil {
				t.Fatal(err)
			}
			checkPagesBalance(t, func(t *testing.T) {
				for _, stopAfter := range []int{0, 1, 5000, rows - 1} {
					r, err := st.OpenReader("mid")
					if err != nil {
						t.Fatal(err)
					}
					var rec record.Record
					for i := 0; i < stopAfter; i++ {
						if ok, err := r.Next(&rec); !ok || err != nil {
							t.Fatalf("record %d: %v %v", i, ok, err)
						}
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					if err := r.Close(); err != nil {
						t.Fatalf("second Close: %v", err)
					}
					if _, err := r.Next(&rec); err == nil && stopAfter < rows {
						t.Fatal("Next after Close succeeded")
					}
				}
			})
		})
		t.Run(name+"/writer-closed-twice", func(t *testing.T) {
			checkPagesBalance(t, func(t *testing.T) {
				w, err := st.CreateWriter("twice")
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range manyRecords(rows) {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			})
		})
	}

	t.Run("sticky-write-behind-error", func(t *testing.T) {
		for _, fail := range []int{1, 3} {
			checkPagesBalance(t, func(t *testing.T) {
				st := faultStore(t, fail, 0)
				st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
				if err := st.WriteAll("d", manyRecords(200000)); !errors.Is(err, errInjected) {
					t.Fatalf("write error %v, want the injected one", err)
				}
			})
		}
	})
	t.Run("read-error", func(t *testing.T) {
		for _, pipe := range []bool{false, true} {
			checkPagesBalance(t, func(t *testing.T) {
				st := faultStore(t, 0, 2)
				st.SetPipeline(Pipeline{Enabled: pipe, Depth: 2})
				if err := st.WriteAll("d", manyRecords(rows)); err != nil {
					t.Fatal(err)
				}
				if _, err := st.ReadAll("d"); !errors.Is(err, errInjected) {
					t.Fatalf("read error %v, want the injected one", err)
				}
			})
		}
	})
	t.Run("integrity-retries", func(t *testing.T) {
		for _, badOpens := range []int{1, 5} { // absorbed by a retry; exhausts them
			checkPagesBalance(t, func(t *testing.T) {
				flaky := &flakyOpenBackend{Backend: newMemBackend()}
				schema := record.MustSchema([]record.Attribute{{Name: "x", Kind: record.Numeric}}, 2)
				st := &Store{schema: schema, params: costmodel.Zero(), b: flaky}
				st.SetPipeline(Pipeline{Enabled: true, Depth: 2})
				vb := st.EnableIntegrity(IntegrityOptions{Retries: 2, Backoff: -1})
				if err := st.WriteAll("d", manyRecords(rows)); err != nil {
					t.Fatal(err)
				}
				flaky.mu.Lock()
				flaky.badOpens = badOpens
				flaky.mu.Unlock()
				_, err := st.ReadAll("d")
				if badOpens == 1 && err != nil {
					t.Fatalf("transient corruption not absorbed: %v", err)
				}
				if badOpens > 2 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("persistent corruption not surfaced: %v", err)
				}
				if vb.Stats().Retries == 0 {
					t.Fatal("no retry happened")
				}
			})
		}
	})
	t.Run("verify-frames", func(t *testing.T) {
		checkPagesBalance(t, func(t *testing.T) {
			mb := newMemBackend()
			vb := NewVerifyingBackend(mb, IntegrityOptions{})
			wc, err := vb.Create("d")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wc.Write(make([]byte, 3*PageSize+7)); err != nil {
				t.Fatal(err)
			}
			if err := wc.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := wc.Write([]byte{1}); err == nil {
				t.Fatal("Write after Close succeeded")
			}
			rc, _ := mb.Open("d")
			if _, frames, err := VerifyFrames("d", rc); err != nil || frames != 4 {
				t.Fatalf("VerifyFrames: %d frames, %v", frames, err)
			}
			vr, err := vb.Open("d")
			if err != nil {
				t.Fatal(err)
			}
			vr.Close()
			if _, err := vr.Read(make([]byte, 10)); err == nil || err == io.EOF {
				t.Fatalf("Read after Close: %v", err)
			}
		})
	})
}

// TestPoisonOverwritesReturnedPages: with poisoning on, a page given back
// holds only the poison byte, so a holder that kept it sees garbage.
func TestPoisonOverwritesReturnedPages(t *testing.T) {
	if !SetPagePoison(true) {
		t.Fatal("TestMain did not switch poisoning on")
	}
	p := getPage()
	for i := range p {
		p[i] = 7
	}
	putPage(p[:100])
	for i, b := range p {
		if b != poisonByte {
			t.Fatalf("byte %d of a returned page is %#x, want the poison %#x", i, b, poisonByte)
		}
	}
}
