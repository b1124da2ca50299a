package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/obs/flight"
)

// newHealthAPI builds an untrained serving model behind a full mux
// (health endpoints included) with request tracing on. configure runs
// before the server starts, so tests can install a logger or swap the
// timeline ring without racing live handlers.
func newHealthAPI(t *testing.T, configure func(*apiServer)) (*apiServer, *httptest.Server) {
	t.Helper()
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	api := newTestServer(t, sv, 8, nil)
	api.spans = flight.NewRing(8, 64)
	if configure != nil {
		configure(api)
	}
	return api, serveTestAPI(t, api)
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestHealthEndpoints pins the liveness/readiness lifecycle: healthz
// is always 200; readyz is 503 on an empty model, flips to 200 after
// the first learn, and back to 503 once draining.
func TestHealthEndpoints(t *testing.T) {
	api, srv := newHealthAPI(t, nil)

	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d (%s)", code, body)
	}
	if code, body := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on empty model: %d (%s)", code, body)
	}

	body, _ := json.Marshal(learnRequest{Label: "rest", Window: testWindow(testServingConfig(), 2)})
	if code, res := postJSON(t, srv, "/learn", string(body)); code != 200 {
		t.Fatalf("learn: %d (%s)", code, res)
	}
	code, res := get(t, srv, "/readyz")
	if code != 200 {
		t.Fatalf("readyz after learn: %d (%s)", code, res)
	}
	var ready map[string]any
	if err := json.Unmarshal([]byte(res), &ready); err != nil || ready["status"] != "ready" {
		t.Fatalf("readyz body %q", res)
	}

	// healthz stays up while draining; readyz and the work endpoints
	// refuse with 503.
	api.beginDrain()
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Fatalf("healthz while draining: %d", code)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	}
	if code, _ := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2)); code != http.StatusServiceUnavailable {
		t.Fatalf("predict while draining: %d", code)
	}
	if code, _ := postJSON(t, srv, "/learn", string(body)); code != http.StatusServiceUnavailable {
		t.Fatalf("learn while draining: %d", code)
	}
}

// TestReadyzSnapshotModel pins the demo-mode case: a snapshot at
// generation 0 that already holds classes is ready.
func TestReadyzSnapshotModel(t *testing.T) {
	cls, err := hdc.New(testServingConfig())
	if err != nil {
		t.Fatal(err)
	}
	cls.Train("rest", testWindow(cls.Config(), 2))
	srv := serveTestAPI(t, newTestServer(t, cls.Serving(), 4, nil))
	if code, body := get(t, srv, "/readyz"); code != 200 {
		t.Fatalf("readyz on snapshot model: %d (%s)", code, body)
	}
}

// TestDebugSpansEndpoint drives one traced predict and one learn, then
// checks /debug/spans returns a Chrome trace with the request tree.
func TestDebugSpansEndpoint(t *testing.T) {
	_, srv := newHealthAPI(t, nil)
	body, _ := json.Marshal(learnRequest{Label: "rest", Window: testWindow(testServingConfig(), 2)})
	if code, res := postJSON(t, srv, "/learn", string(body)); code != 200 {
		t.Fatalf("learn: %d (%s)", code, res)
	}
	if code, res := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2)); code != 200 {
		t.Fatalf("predict: %d (%s)", code, res)
	}
	code, res := get(t, srv, "/debug/spans")
	if code != 200 {
		t.Fatalf("/debug/spans: %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(res), &doc); err != nil {
		t.Fatalf("/debug/spans is not valid trace JSON: %v", err)
	}
	names := map[string]bool{}
	span := map[string]float64{} // "pid name" → span index
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if idx, ok := ev.Args["span"].(float64); ok {
			span[fmt.Sprint(ev.Pid, ev.Name)] = idx
		}
	}
	for _, want := range []string{"request", "predict", "encode", "am.search", "learn.encode", "learn.publish"} {
		if !names[want] {
			t.Errorf("/debug/spans lacks a %q span (have %v)", want, names)
		}
	}
	// The predict tree is request → predict → {encode, am.search}.
	for _, ev := range doc.TraceEvents {
		parent := map[string]string{"predict": "request", "encode": "predict", "am.search": "predict"}[ev.Name]
		if parent == "" {
			continue
		}
		if got, want := ev.Args["parent"], span[fmt.Sprint(ev.Pid, parent)]; got != want {
			t.Errorf("%s span parent %v, want the %s span %v", ev.Name, got, parent, want)
		}
	}

	// Tracing disabled: 404 with a hint.
	_, plain := newHealthAPI(t, func(a *apiServer) { a.spans = nil })
	if code, res := get(t, plain, "/debug/spans"); code != http.StatusNotFound || !strings.Contains(res, "trace-requests") {
		t.Fatalf("/debug/spans disabled: %d (%s)", code, res)
	}
}

// TestRequestLogging pins the acceptance criterion: one /predict under
// debug level produces a request-id-tagged structured log line.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	_, srv := newHealthAPI(t, func(a *apiServer) {
		a.log = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	})

	body, _ := json.Marshal(learnRequest{Label: "rest", Window: testWindow(testServingConfig(), 2)})
	if code, res := postJSON(t, srv, "/learn", string(body)); code != 200 {
		t.Fatalf("learn: %d (%s)", code, res)
	}
	if code, res := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2)); code != 200 {
		t.Fatalf("predict: %d (%s)", code, res)
	}
	var sawPredict bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if entry["msg"] == "predict" {
			sawPredict = true
			if _, ok := entry["request"].(float64); !ok {
				t.Errorf("predict log line lacks a request id: %v", entry)
			}
			if entry["label"] != "rest" {
				t.Errorf("predict log line label %v", entry["label"])
			}
		}
	}
	if !sawPredict {
		t.Fatalf("no predict log line in:\n%s", buf.String())
	}
}

// syncBuffer lets handler goroutines log concurrently with the test's
// read of the captured output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeLoggerFlags pins the flag parsing of -log-level/-log-format.
func TestServeLoggerFlags(t *testing.T) {
	for _, ok := range []struct{ level, format string }{
		{"debug", "text"}, {"info", "json"}, {"warn", "text"}, {"error", "json"},
	} {
		if _, err := newServeLogger(ok.level, ok.format); err != nil {
			t.Errorf("(%s,%s): %v", ok.level, ok.format, err)
		}
	}
	if _, err := newServeLogger("verbose", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := newServeLogger("info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
