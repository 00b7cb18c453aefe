package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fuzzServer is shared across fuzz iterations; building a model per input
// would drown the fuzzer in setup cost. fuzzLong is a valid binary request
// at the row cap, sent on the shared server before every input.
var (
	fuzzOnce  sync.Once
	fuzzModel *Model
	fuzzSrv   *Server
	fuzzLong  []byte
)

var fuzzConfig = ServerConfig{MaxBodyBytes: 1 << 20, MaxRows: 256}

func fuzzServer(t *testing.T) *Server {
	fuzzOnce.Do(func() {
		m, data := trainedModel(t, 1000, "fuzz")
		fuzzModel, fuzzSrv = m, New(NewStaticRegistry(m), fuzzConfig)
		fuzzLong = featureBody(data.Records[:fuzzConfig.MaxRows])
	})
	return fuzzSrv
}

func fuzzPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// FuzzClassifyRequest throws arbitrary bytes at both request decoders.
// The contract: malformed rows get a 4xx, well-formed ones a 200 with a
// well-shaped response — and the server never panics (a panic inside a
// handler would surface as a failed iteration here). Each input goes to
// the shared server right after a longer valid binary request, and its
// reply must equal a fresh server's: a short body never answers with rows
// an earlier, longer request left in pooled scratch.
func FuzzClassifyRequest(f *testing.F) {
	// Valid JSON single + batch, valid binary rows, and assorted garbage.
	f.Add([]byte(`{"num":[1,2,3,4,5,6],"cat":[0,1,2]}`), false)
	f.Add([]byte(`{"records":[{"num":[1,2,3,4,5,6],"cat":[0,1,2]}]}`), false)
	f.Add([]byte(`{"records":[]}`), false)
	f.Add([]byte(`{"num":[1],"cat":[99]}`), false)
	f.Add([]byte("{"), false)
	f.Add(bytes.Repeat([]byte{0}, 60), true) // one all-zero feature row
	f.Add(bytes.Repeat([]byte{0xFF}, 61), true)
	f.Add([]byte{}, true)
	f.Add([]byte("garbage"), true)

	f.Fuzz(func(t *testing.T, body []byte, bin bool) {
		srv := fuzzServer(t)
		path := "/v1/classify"
		if bin {
			path = "/v1/classify.bin"
		}
		if w := fuzzPost(srv.Handler(), "/v1/classify.bin", fuzzLong); w.Code != http.StatusOK {
			t.Fatalf("the long request before the input: status %d", w.Code)
		}
		w := fuzzPost(srv.Handler(), path, body)
		fresh := New(NewStaticRegistry(fuzzModel), fuzzConfig)
		defer fresh.Engine().Close()
		want := fuzzPost(fresh.Handler(), path, body)
		if w.Code != want.Code || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) ||
			w.Header().Get("X-Model-Version") != want.Header().Get("X-Model-Version") {
			t.Fatalf("after a longer request: status %d, %q; a fresh server: status %d, %q",
				w.Code, w.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		switch w.Code {
		case http.StatusOK:
			if bin {
				if w.Body.Len()%4 != 0 {
					t.Fatalf("binary 200 with ragged %d-byte body", w.Body.Len())
				}
				if w.Header().Get("X-Model-Version") == "" {
					t.Fatal("binary 200 without X-Model-Version")
				}
			} else {
				var cr classifyResponse
				if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
					t.Fatalf("200 with undecodable body: %v", err)
				}
				if len(cr.Classes) == 0 || cr.ModelVersion == "" {
					t.Fatalf("200 with empty response %+v", cr)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			// Malformed input correctly rejected.
		default:
			t.Fatalf("unexpected status %d for %d-byte input", w.Code, len(body))
		}
	})
}
