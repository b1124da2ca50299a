package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
)

// flightSummaryDoc mirrors the GET /debug/flight?summary=1 payload.
type flightSummaryDoc struct {
	Captures uint64 `json:"captures"`
	Entries  []struct {
		Seq        uint64  `json:"seq"`
		Request    uint64  `json:"request"`
		Model      string  `json:"model"`
		Generation uint64  `json:"generation"`
		Trigger    string  `json:"trigger"`
		DurationMs float64 `json:"duration_ms"`
		Spans      int     `json:"spans"`
	} `json:"entries"`
}

// flightCapture fetches the flight summary at url and fails unless it
// holds a capture whose trigger contains want. One fetch suffices: the
// handler captures before it answers.
func flightCapture(t *testing.T, srv interface {
	Client() *http.Client
}, url, want string) flightSummaryDoc {
	t.Helper()
	resp, err := srv.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc flightSummaryDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Entries {
		if strings.Contains(e.Trigger, want) {
			return doc
		}
	}
	t.Fatalf("no %q capture: %+v", want, doc)
	return doc
}

// TestFlightCapturesTimeout forces a 504 (1 ns predict deadline) and
// asserts the request's complete timeline — root and predict — lands
// in /debug/flight tagged with the model name.
func TestFlightCapturesTimeout(t *testing.T) {
	api, srv, _ := newRegistryTestAPI(t, t.TempDir())
	api.timelines = obs.NewTimelines(8, 64)
	api.flight = flight.NewRing(16, 64)
	api.timeout = time.Nanosecond

	cfg := testServingConfig()
	code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", code, body)
	}
	doc := flightCapture(t, srv, srv.URL+"/debug/flight?summary=1", "timeout")
	var found bool
	for _, e := range doc.Entries {
		if !strings.Contains(e.Trigger, "timeout") {
			continue
		}
		found = true
		if e.Model != "default" {
			t.Errorf("capture model %q, want default", e.Model)
		}
		if e.Spans < 2 {
			t.Errorf("capture holds %d spans, want the full timeline (>=2)", e.Spans)
		}
		if e.Request == 0 {
			t.Error("capture lost the request id")
		}
	}
	if !found {
		t.Fatalf("no timeout capture: %+v", doc)
	}

	// The full dump renders the same capture as a complete Chrome-trace
	// timeline: request root, predict, model@generation label.
	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	label := ""
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
		if ev.Name == "process_name" {
			label, _ = ev.Args["name"].(string)
		}
	}
	if !names["request"] || !names["predict"] {
		t.Fatalf("trace misses timeline spans: %v", names)
	}
	if !strings.Contains(label, "timeout") || !strings.Contains(label, "default@") {
		t.Fatalf("process label %q lacks trigger/model tags", label)
	}
}

// TestFlightCapturesRetry injects one predict panic through the fault
// hook: the predict still answers 200 after a retry, and the retry
// pins the timeline with model and scanned-generation tags.
func TestFlightCapturesRetry(t *testing.T) {
	api, srv, _ := newRegistryTestAPI(t, t.TempDir())
	api.timelines = obs.NewTimelines(8, 64)
	api.flight = flight.NewRing(16, 64)
	api.retryBackoff = 0
	var fired atomic.Bool
	api.beforePredict = func() {
		if !fired.Swap(true) {
			panic("injected predict fault")
		}
	}

	cfg := testServingConfig()
	code, body := doJSON(t, srv, "POST", "/models/default/predict", windowJSON(t, cfg, 16), nil)
	if code != http.StatusOK {
		t.Fatalf("retried predict status %d (%s)", code, body)
	}
	doc := flightCapture(t, srv, srv.URL+"/debug/flight?summary=1&model=default", "retry")
	e := doc.Entries[len(doc.Entries)-1]
	if e.Model != "default" || e.Generation == 0 {
		t.Fatalf("retry capture tags model=%q generation=%d", e.Model, e.Generation)
	}
	if e.Spans == 0 {
		t.Fatal("retry capture lost its timeline")
	}
	// The ?model= filter excludes everything else.
	resp, err := srv.Client().Get(srv.URL + "/debug/flight?summary=1&model=ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ghost flightSummaryDoc
	if err := json.NewDecoder(resp.Body).Decode(&ghost); err != nil {
		t.Fatal(err)
	}
	if len(ghost.Entries) != 0 {
		t.Fatalf("?model=ghost leaked %d entries", len(ghost.Entries))
	}
}

// TestFlightDisabled404 pins the disabled surface: without a ring the
// endpoint is an honest 404, matching /debug/spans.
func TestFlightDisabled404(t *testing.T) {
	_, srv := newTestAPI(t)
	code, body := get(t, srv, "/debug/flight")
	if code != http.StatusNotFound || !strings.Contains(body, "flight recorder disabled") {
		t.Fatalf("disabled flight: %d %s", code, body)
	}
}

// TestSpansModelFilter drives one predict through a registry server and
// checks /debug/spans?model= scoping in both directions.
func TestSpansModelFilter(t *testing.T) {
	api, srv, _ := newRegistryTestAPI(t, t.TempDir())
	api.timelines = obs.NewTimelines(8, 64)
	cfg := testServingConfig()
	if code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2)); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	if code, body := get(t, srv, "/debug/spans?model=default"); code != http.StatusOK ||
		!strings.Contains(body, "am.search") || !strings.Contains(body, "· default") {
		t.Fatalf("spans for default: %d %s", code, body)
	}
	if code, body := get(t, srv, "/debug/spans?model=ghost"); code != http.StatusOK ||
		strings.Contains(body, "am.search") {
		t.Fatalf("spans for ghost not empty: %d %s", code, body)
	}
}

// TestModelSLOEndpoint covers the read and write halves of
// /models/{name}/slo plus its error surface.
func TestModelSLOEndpoint(t *testing.T) {
	api, srv, _ := newRegistryTestAPI(t, t.TempDir())
	cfg := testServingConfig()

	// Disabled engine: honest 404.
	if code, body := get(t, srv, "/models/default/slo"); code != http.StatusNotFound ||
		!strings.Contains(body, "SLO engine disabled") {
		t.Fatalf("disabled slo: %d %s", code, body)
	}

	api.slo = sloeng.New(sloeng.Config{
		Default: sloeng.Objective{Latency: 50 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01},
	})
	if code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2)); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	code, body := get(t, srv, "/models/default/slo")
	if code != http.StatusOK {
		t.Fatalf("slo status: %d %s", code, body)
	}
	var st sloeng.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("slo payload not JSON: %v (%s)", err, body)
	}
	if st.Model != "default" || st.Objective.LatencyMs != 50 || st.TotalRequests < 1 {
		t.Fatalf("slo status %+v", st)
	}

	// Unknown model: the registry's 404, before any tracker springs up.
	if code, _ := get(t, srv, "/models/ghost/slo"); code != http.StatusNotFound {
		t.Fatalf("unknown model slo: %d", code)
	}

	// POST tightens the objective per tenant; the response reflects it.
	code, body = doJSON(t, srv, "POST", "/models/default/slo", `{"latency_ms": 5, "latency_target": 0.999}`, nil)
	if code != http.StatusOK {
		t.Fatalf("slo set: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Objective.LatencyMs != 5 || st.Objective.LatencyTarget != 0.999 || st.Objective.ErrorBudget != 0.01 {
		t.Fatalf("objective after set %+v", st.Objective)
	}
	if api.slo.SlowThreshold("default") != 5*time.Millisecond {
		t.Fatal("engine objective not updated")
	}

	// Bad bodies are 400s and change nothing.
	for _, bad := range []string{`{"latency_ms": -1}`, `{"latency_target": 2}`, `{"error_budget": 0}`, `{"nope": 1}`} {
		if code, _ := doJSON(t, srv, "POST", "/models/default/slo", bad, nil); code != http.StatusBadRequest {
			t.Errorf("bad body %s: code %d, want 400", bad, code)
		}
	}
	if api.slo.SlowThreshold("default") != 5*time.Millisecond {
		t.Fatal("bad body mutated the objective")
	}
}

// TestTailObservabilityAllocs pins the cost the SLO engine and flight
// recorder add to a healthy request: zero allocations on the
// non-capture path (trigger bits empty, latency under the objective).
func TestTailObservabilityAllocs(t *testing.T) {
	api := &apiServer{
		defaultModel: "default",
		flight:       flight.NewRing(8, 16),
		slo: sloeng.New(sloeng.Config{
			Default: sloeng.Objective{Latency: time.Hour, LatencyTarget: 0.99, ErrorBudget: 0.01},
		}),
	}
	api.slo.Record("default", time.Millisecond, false) // build the tracker
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		api.capture(nil, "default", 1, 0, start)
		api.recordSLO("", start, false)
	}); allocs != 0 {
		t.Fatalf("healthy-path observability allocates %v/op", allocs)
	}
	if api.flight.Captures() != 0 {
		t.Fatal("healthy path captured")
	}
}

// TestUnresolvedModelFaultObserved corrupts an evicted model's
// snapshot so its fault-in fails: each route answers 500, pins one
// error capture in the flight recorder and burns one error in the
// model's SLO, like any other server fault. An unknown model's 404
// records neither.
func TestUnresolvedModelFaultObserved(t *testing.T) {
	cfg := testServingConfig()
	for _, route := range []struct{ path, body string }{
		{"/predict", windowJSON(t, cfg, 2)},
		{"/learn", modelBody(cfg, 2, "rest")},
	} {
		t.Run(strings.TrimPrefix(route.path, "/"), func(t *testing.T) {
			dir := t.TempDir()
			reg, err := modreg.Open(modreg.Config{Dir: dir, ResidentBudget: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reg.Close() })
			if err := reg.Adopt("default", trainedServing(t)); err != nil {
				t.Fatal(err)
			}
			api := newRegistryAPIServer(reg, "default", cfg, 8, nil)
			api.timelines = obs.NewTimelines(8, 64)
			api.flight = flight.NewRing(16, 64)
			api.slo = sloeng.New(sloeng.Config{
				Default: sloeng.Objective{Latency: time.Hour, LatencyTarget: 0.99, ErrorBudget: 0.01},
			})
			srv := serveTestAPI(t, api)

			if code, body := doJSON(t, srv, "POST", "/models/ghost"+route.path, route.body, nil); code != http.StatusNotFound {
				t.Fatalf("unknown model: %d %s", code, body)
			}
			if n := api.flight.Captures(); n != 0 || len(api.slo.StatusAll()) != 0 {
				t.Fatalf("a 404 recorded %d captures and %d SLO trackers", n, len(api.slo.StatusAll()))
			}

			reg.EnforceBudget()
			if info, err := reg.ModelInfo("default"); err != nil || info.Resident {
				t.Fatalf("default model still resident (%+v, %v)", info, err)
			}
			if err := os.WriteFile(filepath.Join(dir, "default.snap"), []byte("PULPHD0"), 0o644); err != nil {
				t.Fatal(err)
			}
			if code, body := postJSON(t, srv, route.path, route.body); code != http.StatusInternalServerError {
				t.Fatalf("fault-in of a corrupt snapshot: %d %s, want 500", code, body)
			}
			if n := api.flight.Captures(); n != 1 {
				t.Fatalf("%d flight captures, want 1", n)
			}
			doc := flightCapture(t, srv, srv.URL+"/debug/flight?summary=1&model=default", "error")
			if e := doc.Entries[0]; e.Spans == 0 {
				t.Errorf("error capture lost its timeline: %+v", e)
			}
			if st := api.slo.Status("default"); st.TotalErrors != 1 || st.TotalRequests != 1 {
				t.Fatalf("SLO errors_total %d of %d requests, want 1 of 1", st.TotalErrors, st.TotalRequests)
			}
		})
	}
}
