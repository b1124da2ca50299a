package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
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
	api.spans = flight.NewRing(8, 64)
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
	api.spans = flight.NewRing(8, 64)
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
	api.spans = flight.NewRing(8, 64)
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
	c := call{start: time.Now(), root: obs.NoSpan, model: "default"}
	if allocs := testing.AllocsPerRun(1000, func() {
		api.finish(nil, &c, http.StatusOK, 1, 0, nil)
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
			api.spans = flight.NewRing(8, 64)
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

// TestRequestOutcomes drives every outcome of /predict and /learn
// through the handlers and checks the one rule finish applies on both
// routes: the flight recorder pins a 429 as shed, a 504 as timeout and
// any other 5xx as error, adds retry for a retried predict and slow
// for a request over its model's latency objective; the SLO engine
// counts a 2xx as good and a 429 or 5xx as bad and sees no other 4xx,
// so an unknown model gets no tracker; every request counts at
// admission, and the 4xx count as rejected.
func TestRequestOutcomes(t *testing.T) {
	cfg := testServingConfig()
	predict, learn := windowJSON(t, cfg, 2), modelBody(cfg, 2, "rest")
	cases := []struct {
		name, path, body string
		setup            func(t *testing.T, s outcomeServer)
		snapshotEvery    int // the registry's SnapshotEvery; 0 for the default
		code             int
		trigger          string // the flight capture's triggers; "" for none
		sloModel         string // the model whose SLO tracker records it; "" for none
		sloErrors        int64
		rejected         int64
		timeouts         int64
	}{
		{name: "predict/200", path: "/predict", body: predict, code: http.StatusOK, sloModel: "default"},
		{name: "predict/200-retried", path: "/predict", body: predict,
			setup: func(t *testing.T, s outcomeServer) {
				var fired atomic.Bool
				s.api.beforePredict = func() {
					if !fired.Swap(true) {
						panic("injected predict fault")
					}
				}
			},
			code: http.StatusOK, trigger: "retry", sloModel: "default"},
		{name: "predict/400", path: "/predict", body: `{"window":"x"}`, code: http.StatusBadRequest, rejected: 1},
		{name: "predict/400-slow", path: "/predict", body: `{"window":"x"}`,
			setup: func(t *testing.T, s outcomeServer) {
				s.api.slo = sloeng.New(sloeng.Config{Default: sloeng.Objective{Latency: 1, LatencyTarget: 0.99, ErrorBudget: 0.01}})
			},
			code: http.StatusBadRequest, trigger: "slow", rejected: 1},
		{name: "predict/404", path: "/models/ghost/predict", body: predict, code: http.StatusNotFound, rejected: 1},
		{name: "predict/409", path: "/models/empty/predict", body: predict,
			setup: func(t *testing.T, s outcomeServer) {
				if _, err := s.reg.Create("empty", cfg); err != nil {
					t.Fatal(err)
				}
			},
			code: http.StatusConflict, rejected: 1},
		{name: "predict/429", path: "/predict", body: predict,
			setup: func(t *testing.T, s outcomeServer) { s.api.inflight.Store(s.api.maxInflight) },
			code:  http.StatusTooManyRequests, trigger: "shed", sloModel: "default", sloErrors: 1, rejected: 1},
		{name: "predict/500-faultin", path: "/predict", body: predict, setup: corruptDefault,
			code: http.StatusInternalServerError, trigger: "error", sloModel: "default", sloErrors: 1},
		{name: "predict/504", path: "/predict", body: predict,
			setup: func(t *testing.T, s outcomeServer) { s.api.timeout = time.Nanosecond },
			code:  http.StatusGatewayTimeout, trigger: "timeout", sloModel: "default", sloErrors: 1, timeouts: 1},
		{name: "learn/200", path: "/learn", body: learn, code: http.StatusOK, sloModel: "default"},
		{name: "learn/400", path: "/learn", body: `{"label":"rest"}`, code: http.StatusBadRequest, rejected: 1},
		{name: "learn/404", path: "/models/ghost/learn", body: learn, code: http.StatusNotFound, rejected: 1},
		{name: "learn/500-faultin", path: "/learn", body: learn, setup: corruptDefault,
			code: http.StatusInternalServerError, trigger: "error", sloModel: "default", sloErrors: 1},
		// The learn is valid; the snapshot its cadence trips cannot be
		// written (os.Create fails on a directory, even as root).
		{name: "learn/500-snapshot", path: "/learn", body: learn, snapshotEvery: 1,
			setup: func(t *testing.T, s outcomeServer) {
				if err := os.Mkdir(filepath.Join(s.dir, "default.snap.tmp"), 0o755); err != nil {
					t.Fatal(err)
				}
			},
			code: http.StatusInternalServerError, trigger: "error", sloModel: "default", sloErrors: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			reg, err := modreg.Open(modreg.Config{Dir: dir, ResidentBudget: 1, SnapshotEvery: c.snapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reg.Close() })
			if err := reg.Adopt("default", trainedServing(t)); err != nil {
				t.Fatal(err)
			}
			m := &obs.ServingMetrics{}
			api := newRegistryAPIServer(reg, "default", cfg, 8, m)
			api.retryBackoff = 0
			api.spans = flight.NewRing(8, 64)
			api.flight = flight.NewRing(16, 64)
			api.slo = sloeng.New(sloeng.Config{
				Default: sloeng.Objective{Latency: time.Hour, LatencyTarget: 0.99, ErrorBudget: 0.01},
			})
			if c.setup != nil {
				c.setup(t, outcomeServer{api, reg, dir})
			}
			srv := serveTestAPI(t, api)

			if code, body := postJSON(t, srv, c.path, c.body); code != c.code {
				t.Fatalf("status %d, want %d (%s)", code, c.code, body)
			}
			var sum bytes.Buffer
			if err := api.flight.WriteSummary(&sum, ""); err != nil {
				t.Fatal(err)
			}
			var doc flightSummaryDoc
			if err := json.Unmarshal(sum.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			var triggers []string
			for _, e := range doc.Entries {
				triggers = append(triggers, e.Trigger)
			}
			if want := strings.Fields(c.trigger); !slices.Equal(triggers, want) {
				t.Errorf("flight captures %q, want %q", triggers, want)
			}
			all := api.slo.StatusAll()
			switch {
			case c.sloModel == "" && len(all) != 0:
				t.Errorf("SLO engine tracks %d models, want none", len(all))
			case c.sloModel != "" && (len(all) != 1 || all[0].Model != c.sloModel ||
				all[0].TotalRequests != 1 || all[0].TotalErrors != c.sloErrors):
				t.Errorf("SLO trackers %+v, want %s with 1 request and %d errors", all, c.sloModel, c.sloErrors)
			}
			if m.Requests.Value() != 1 || m.Rejected.Value() != c.rejected || m.Timeouts.Value() != c.timeouts {
				t.Errorf("requests/rejected/timeouts %d/%d/%d, want 1/%d/%d",
					m.Requests.Value(), m.Rejected.Value(), m.Timeouts.Value(), c.rejected, c.timeouts)
			}
		})
	}
}

// outcomeServer is what a TestRequestOutcomes case sets up before its
// request: the API server, its registry and the registry's directory.
type outcomeServer struct {
	api *apiServer
	reg *modreg.Registry
	dir string
}

// corruptDefault evicts the default model and truncates its snapshot,
// so the next request's fault-in fails.
func corruptDefault(t *testing.T, s outcomeServer) {
	s.reg.EnforceBudget()
	if err := os.WriteFile(filepath.Join(s.dir, "default.snap"), []byte("PULPHD0"), 0o644); err != nil {
		t.Fatal(err)
	}
}
