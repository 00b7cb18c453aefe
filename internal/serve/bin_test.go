package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pclouds/internal/datagen"
	"pclouds/internal/record"
)

// releaseWorker starts one worker on an engine built with Workers: -1, so a
// test holds every admitted request until it lets the engine run.
func releaseWorker(e *Engine) {
	e.wg.Add(1)
	go e.worker()
}

func featureBody(recs []record.Record) []byte {
	var body []byte
	for _, r := range recs {
		body = r.EncodeFeatures(body)
	}
	return body
}

// checkClasses fails unless reply holds one LE class per row, each what the
// model's reference walk gives.
func checkClasses(m *Model, recs []record.Record, reply []byte) error {
	if len(reply) != 4*len(recs) {
		return fmt.Errorf("reply is %d bytes for %d rows", len(reply), len(recs))
	}
	for i, r := range recs {
		if got, want := int32(binary.LittleEndian.Uint32(reply[4*i:])), m.Tree.Classify(r); got != want {
			return fmt.Errorf("row %d of %d: got class %d, want %d", i, len(recs), got, want)
		}
	}
	return nil
}

// TestHTTPBinAbandonedRequestKeepsItsScratch is the ownership rule of
// Engine.ClassifyInto: a request that times out while its task is still
// queued leaves its rows and output to the engine, and its scratch never
// returns to the pool. The engine's only worker is held back until a bulk
// request has timed out and further requests, decoding into pooled scratch,
// are queued behind it; then it runs while clients keep sending. A scratch
// handed on too early would be decoded into by one request while the worker
// walks the abandoned one: a data race, which -race (make race) reports.
func TestHTTPBinAbandonedRequestKeepsItsScratch(t *testing.T) {
	m, data := trainedModel(t, 3000, "v1")
	s, hs := newTestServer(t, NewStaticRegistry(m), ServerConfig{
		Engine:         EngineConfig{Workers: -1, QueueSize: 64},
		RequestTimeout: 100 * time.Millisecond,
	})

	resp, err := http.Post(hs.URL+"/v1/classify.bin", "application/octet-stream", bytes.NewReader(featureBody(data.Records)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bulk request on a held engine: %s, want 503", resp.Status)
	}

	const clients, perClient = 2, 30
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	served := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				lo := (c*perClient + i) * 37 % 2000
				recs := data.Records[lo : lo+1+(i*97)%900]
				resp, err := http.Post(hs.URL+"/v1/classify.bin", "application/octet-stream", bytes.NewReader(featureBody(recs)))
				if err != nil {
					errc <- err
					return
				}
				reply, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					errc <- err
					return
				case resp.StatusCode == http.StatusServiceUnavailable:
					continue // timed out behind the held worker: abandoned in turn
				case resp.StatusCode != http.StatusOK:
					errc <- fmt.Errorf("status %s", resp.Status)
					return
				}
				if err := checkClasses(m, recs, reply); err != nil {
					errc <- err
					return
				}
				served[c]++
			}
		}(c)
	}
	// Hold the worker until each client has had requests time out and
	// sent the next one, which decodes into scratch the pool handed it.
	waitFor(t, func() bool { return s.Engine().QueueDepth() >= 1+4*clients })
	releaseWorker(s.Engine())
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if served[0]+served[1] == 0 {
		t.Fatal("no request was served after the worker was released")
	}
}

// TestHTTPRowsAnsweredByTheModelThatCheckedThem: a hot swap between
// admission and the worker must not walk rows checked against one schema
// through a tree of another. The request is answered by the model it was
// validated against, and its reply names that version.
func TestHTTPRowsAnsweredByTheModelThatCheckedThem(t *testing.T) {
	mA, data := trainedModel(t, 1000, "A")
	mB := leafModel(t, "B", 1)
	if mA.Tree.Schema.NumNumeric() == mB.Tree.Schema.NumNumeric() {
		t.Fatal("the swap needs models whose schemas differ in numeric count")
	}
	recs := data.Records[:40]
	rows := make([]jsonRow, len(recs))
	for i, r := range recs {
		rows[i] = jsonRow{Num: r.Num, Cat: r.Cat}
	}
	jsonBody, _ := json.Marshal(map[string]any{"records": rows})
	for _, c := range []struct {
		path, ctype string
		body        []byte
	}{
		{"/v1/classify.bin", "application/octet-stream", featureBody(recs)},
		{"/v1/classify", "application/json", jsonBody},
	} {
		reg := NewStaticRegistry(mA)
		s, hs := newTestServer(t, reg, ServerConfig{Engine: EngineConfig{Workers: -1}})
		type result struct {
			resp  *http.Response
			reply []byte
			err   error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := http.Post(hs.URL+c.path, c.ctype, bytes.NewReader(c.body))
			if err != nil {
				done <- result{err: err}
				return
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			done <- result{resp, reply, err}
		}()
		waitFor(t, func() bool { return s.Engine().QueueDepth() == 1 })
		reg.SetActive(mB)
		releaseWorker(s.Engine())
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", c.path, res.resp.Status)
		}
		var version string
		if c.path == "/v1/classify.bin" {
			version = res.resp.Header.Get("X-Model-Version")
			if err := checkClasses(mA, recs, res.reply); err != nil {
				t.Fatalf("%s: %v", c.path, err)
			}
		} else {
			var cr classifyResponse
			if err := json.Unmarshal(res.reply, &cr); err != nil {
				t.Fatal(err)
			}
			version = cr.ModelVersion
			for i, r := range recs {
				if cr.Classes[i] != mA.Tree.Classify(r) {
					t.Fatalf("%s: row %d answered %d, model A says %d", c.path, i, cr.Classes[i], mA.Tree.Classify(r))
				}
			}
		}
		if version != "A" {
			t.Fatalf("%s: answered by version %q, want the admitting model A", c.path, version)
		}
	}
}

// unreadBody fails the test if the handler reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the handler read a body it should have refused from its declared length")
	return 0, io.EOF
}

// undeclared hides a reader's length, so the request goes out chunked.
type undeclared struct{ io.Reader }

// TestHTTPBinCapsFromDeclaredLength: with a Content-Length, the body cap,
// the row cap and a ragged length are judged before a byte is read, with
// the status codes a read body gets; without one, the body is read and
// judged the same.
func TestHTTPBinCapsFromDeclaredLength(t *testing.T) {
	m, data := trainedModel(t, 1000, "v1")
	fb := int64(m.Tree.Schema.FeatureBytes())
	rowCap := New(NewStaticRegistry(m), ServerConfig{MaxRows: 4})
	bodyCap := New(NewStaticRegistry(m), ServerConfig{MaxRows: 16, MaxBodyBytes: 3 * fb})
	t.Cleanup(func() {
		rowCap.Engine().Close()
		bodyCap.Engine().Close()
	})
	cases := []struct {
		name string
		srv  *Server
		n    int64
		want int
	}{
		{"empty", rowCap, 0, http.StatusBadRequest},
		{"ragged", rowCap, 2*fb + 1, http.StatusBadRequest},
		{"row cap", rowCap, 5 * fb, http.StatusRequestEntityTooLarge},
		{"ragged past the row cap", rowCap, 5*fb - 1, http.StatusBadRequest},
		{"body cap", bodyCap, 4 * fb, http.StatusRequestEntityTooLarge},
		{"ragged past the body cap", bodyCap, 4*fb - 1, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify.bin", unreadBody{t})
		req.ContentLength = c.n
		w := httptest.NewRecorder()
		c.srv.Handler().ServeHTTP(w, req)
		if w.Code != c.want {
			t.Fatalf("%s, declared: got %d, want %d", c.name, w.Code, c.want)
		}

		body := bytes.Repeat([]byte{0}, int(c.n))
		req = httptest.NewRequest(http.MethodPost, "/v1/classify.bin", undeclared{bytes.NewReader(body)})
		if req.ContentLength != -1 {
			t.Fatalf("request length %d, want undeclared", req.ContentLength)
		}
		w = httptest.NewRecorder()
		c.srv.Handler().ServeHTTP(w, req)
		if w.Code != c.want {
			t.Fatalf("%s, chunked: got %d, want %d", c.name, w.Code, c.want)
		}
	}

	recs := data.Records[:3]
	req := httptest.NewRequest(http.MethodPost, "/v1/classify.bin", undeclared{bytes.NewReader(featureBody(recs))})
	w := httptest.NewRecorder()
	rowCap.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("valid chunked request: %d", w.Code)
	}
	if err := checkClasses(m, recs, w.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestReadUndeclaredKeepsAtMostTheBound: a chunked body past the bound is
// counted to its end but never kept, so its buffer stays within the bound.
func TestReadUndeclaredKeepsAtMostTheBound(t *testing.T) {
	for _, c := range []struct{ n, keep int }{{0, 10}, {9, 10}, {10, 10}, {11, 10}, {5000, 601}, {5000, 0}} {
		body := strings.Repeat("x", c.n)
		kept, n, err := readUndeclared(nil, strings.NewReader(body), c.keep)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(c.n) || len(kept) != min(c.n, c.keep) || cap(kept) > c.keep || string(kept) != body[:len(kept)] {
			t.Fatalf("n=%d keep=%d: length %d, kept %d bytes in cap %d", c.n, c.keep, n, len(kept), cap(kept))
		}
	}
}

// rewindBody is a request body the benchmark rewinds instead of
// reallocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps the status and the reply's
// length, so the benchmark counts the handler's allocations and not a
// recorder's.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	w.code = code
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkClassifyBin serves one 8,192-row /v1/classify.bin request per
// iteration through Server.Handler: read, decode, engine, reply. Run with
// -benchmem; a steady-state request allocates a few small objects, no
// per-request body, rows or reply.
func BenchmarkClassifyBin(b *testing.B) {
	m, _ := trainedModel(b, 2000, "bench")
	gen, err := datagen.New(datagen.Config{Function: 2, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Generate(8192).Records
	body := featureBody(recs)
	s := New(NewStaticRegistry(m), ServerConfig{})
	defer s.Engine().Close()
	h := s.Handler()

	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/classify.bin", rewindBody{rd})
	req.ContentLength = int64(len(body))
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n != 4*len(recs) {
			b.Fatalf("status %d, %d-byte reply", w.code, w.n)
		}
	}
	rec := httptest.NewRecorder()
	rd.Reset(body)
	h.ServeHTTP(rec, req)
	if err := checkClasses(m, recs, rec.Body.Bytes()); err != nil {
		b.Fatal(err)
	}
	serve()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
