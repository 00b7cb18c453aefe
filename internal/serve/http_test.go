package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, reg *Registry, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := New(reg, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Engine().Close()
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResp(t *testing.T, resp *http.Response) classifyResponse {
	t.Helper()
	defer resp.Body.Close()
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestHTTPClassifyJSONSingleAndBatch(t *testing.T) {
	m, data := trainedModel(t, 2000, "v1")
	_, hs := newTestServer(t, NewStaticRegistry(m), ServerConfig{})

	// Single: top-level num/cat.
	r0 := data.Records[0]
	body, _ := json.Marshal(jsonRow{Num: r0.Num, Cat: r0.Cat})
	resp := postJSON(t, hs.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single: %s", resp.Status)
	}
	cr := decodeResp(t, resp)
	if cr.ModelVersion != "v1" || cr.Class == nil || *cr.Class != m.Tree.Classify(r0) {
		t.Fatalf("single response %+v", cr)
	}

	// Batch: records array.
	rows := make([]jsonRow, 50)
	for i, r := range data.Records[:50] {
		rows[i] = jsonRow{Num: r.Num, Cat: r.Cat}
	}
	bb, _ := json.Marshal(map[string]any{"records": rows})
	resp = postJSON(t, hs.URL, string(bb))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", resp.Status)
	}
	cr = decodeResp(t, resp)
	if cr.Class != nil || len(cr.Classes) != 50 {
		t.Fatalf("batch response %+v", cr)
	}
	for i, r := range data.Records[:50] {
		if cr.Classes[i] != m.Tree.Classify(r) {
			t.Fatalf("row %d: got %d want %d", i, cr.Classes[i], m.Tree.Classify(r))
		}
	}
}

func TestHTTPClassifyBinary(t *testing.T) {
	m, data := trainedModel(t, 2000, "v1")
	_, hs := newTestServer(t, NewStaticRegistry(m), ServerConfig{})

	var body []byte
	for _, r := range data.Records[:32] {
		body = r.EncodeFeatures(body)
	}
	resp, err := http.Post(hs.URL+"/v1/classify.bin", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bin: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Model-Version"); got != "v1" {
		t.Fatalf("X-Model-Version = %q", got)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4*32 {
		t.Fatalf("response is %d bytes, want %d", len(out), 4*32)
	}
	for i, r := range data.Records[:32] {
		if got := int32(binary.LittleEndian.Uint32(out[4*i:])); got != m.Tree.Classify(r) {
			t.Fatalf("row %d: got %d want %d", i, got, m.Tree.Classify(r))
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	m, _ := trainedModel(t, 1000, "v1")
	s, hs := newTestServer(t, NewStaticRegistry(m), ServerConfig{MaxRows: 4})
	fb := m.Tree.Schema.FeatureBytes()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"junk json", "/v1/classify", "{not json", http.StatusBadRequest},
		{"empty batch", "/v1/classify", `{"records":[]}`, http.StatusBadRequest},
		{"wrong arity", "/v1/classify", `{"num":[1],"cat":[0]}`, http.StatusBadRequest},
		{"row cap", "/v1/classify", `{"records":[{"num":[]},{"num":[]},{"num":[]},{"num":[]},{"num":[]}]}`, http.StatusRequestEntityTooLarge},
		{"empty bin", "/v1/classify.bin", "", http.StatusBadRequest},
		{"ragged bin", "/v1/classify.bin", "abc", http.StatusBadRequest},
		// The binary row cap is judged from the length, before decoding.
		{"bin row cap", "/v1/classify.bin", strings.Repeat("\x00", 5*fb), http.StatusRequestEntityTooLarge},
		{"ragged bin past the row cap", "/v1/classify.bin", strings.Repeat("\x00", 5*fb-1), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+c.path, "application/octet-stream", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: got %s, want %d", c.name, resp.Status, c.want)
		}
	}
	if s.Stats().Snapshot()["bad_requests"].(int64) == 0 {
		t.Fatal("bad_requests counter never incremented")
	}
	// GET on a POST endpoint.
	resp, err := http.Get(hs.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %s", resp.Status)
	}
}

// TestHTTPOverloadShedsButStaysHealthy is the overload contract: with a
// paused engine and a full queue, /v1/classify answers 503 + Retry-After
// while /healthz keeps answering 200 — the server sheds load without
// looking dead.
func TestHTTPOverloadShedsButStaysHealthy(t *testing.T) {
	reg := NewStaticRegistry(leafModel(t, "v", 0))
	s, hs := newTestServer(t, reg, ServerConfig{
		Engine:         EngineConfig{Workers: -1, QueueSize: 1},
		RequestTimeout: 500 * time.Millisecond,
	})

	// Fill the one queue slot with a request that will wait out its
	// timeout in the paused engine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, hs.URL, `{"num":[1]}`)
		resp.Body.Close()
	}()
	waitFor(t, func() bool { return s.Engine().QueueDepth() == 1 })

	resp := postJSON(t, hs.URL, `{"num":[1]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded classify: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during overload: %s, want 200", hresp.Status)
	}
	wg.Wait()
}

func TestHTTPReadyzModelAndStats(t *testing.T) {
	m, _ := trainedModel(t, 1000, "v1")
	s, hs := newTestServer(t, NewStaticRegistry(m), ServerConfig{})

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %s", resp.Status)
	}

	resp, err = http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Model  ModelInfo      `json:"model"`
		Schema map[string]any `json:"schema"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Model.Version != "v1" || info.Model.Nodes == 0 {
		t.Fatalf("model info %+v", info.Model)
	}
	if int(info.Schema["classes"].(float64)) != 2 {
		t.Fatalf("schema %+v", info.Schema)
	}

	// Serve a request, then confirm the stats endpoint reflects it.
	postJSON(t, hs.URL, `{"num":[1,2,3,4,5,6],"cat":[0,0,0]}`).Body.Close()
	resp, err = http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap["requests"].(float64) < 1 {
		t.Fatalf("stats %+v", snap)
	}
	regSnap, ok := snap["registry"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing registry section: %+v", snap)
	}
	if _, ok := regSnap["reload_failures"]; !ok {
		t.Fatalf("registry section missing reload_failures: %+v", regSnap)
	}
	if s.Stats().VersionCounts()["v1"] < 1 {
		t.Fatal("per-version counter missing")
	}

	// Draining flips readiness.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %s, want 503", resp.Status)
	}
}

func TestHTTPNoModel503(t *testing.T) {
	_, hs := newTestServer(t, NewStaticRegistry(nil), ServerConfig{})
	resp := postJSON(t, hs.URL, `{"num":[1]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify without model: %s", resp.Status)
	}
	r2, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz without model: %s", r2.Status)
	}
}
