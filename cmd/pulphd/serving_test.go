package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
	modreg "pulphd/internal/registry"
	"pulphd/internal/stream"
)

// testServingConfig keeps the handler tests fast.
func testServingConfig() hdc.Config {
	cfg := hdc.EMGConfig()
	cfg.D = 640
	return cfg
}

// testWindow builds a full-shape window whose channels sit at the
// given level.
func testWindow(cfg hdc.Config, level float64) [][]float64 {
	w := make([][]float64, cfg.Window)
	for t := range w {
		row := make([]float64, cfg.Channels)
		for c := range row {
			row[c] = level
		}
		w[t] = row
	}
	return w
}

// trainedServing builds a 2-class model: "rest" at level 2, "fist" at
// level 16.
func trainedServing(t testing.TB) *hdc.Serving {
	t.Helper()
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		level float64
	}{{"rest", 2}, {"fist", 16}} {
		if err := sv.Learn(c.label, testWindow(sv.Config(), c.level)); err != nil {
			t.Fatal(err)
		}
	}
	return sv
}

// newTestServer builds an API server over an ephemeral registry whose
// default model is sv. Neither the dispatcher nor an HTTP front end is
// running yet.
func newTestServer(t *testing.T, sv *hdc.Serving, queueDepth, maxBatch int, m *obs.ServingMetrics) *apiServer {
	t.Helper()
	reg, err := modreg.Open(modreg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	return newRegistryAPIServer(reg, "default", testServingConfig(), queueDepth, maxBatch, m)
}

// serveTestAPI mounts api's routes behind an httptest server, closed
// at cleanup.
func serveTestAPI(t *testing.T, api *apiServer) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	api.register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newTestAPI builds a trained model behind a running API server and an
// httptest front end. Stop and close are hooked into t.Cleanup.
func newTestAPI(t *testing.T, queueDepth, maxBatch int) (*apiServer, *httptest.Server) {
	t.Helper()
	api := newTestServer(t, trainedServing(t), queueDepth, maxBatch, nil)
	api.start()
	t.Cleanup(api.stop)
	return api, serveTestAPI(t, api)
}

// served returns the Serving behind api's default model.
func served(t *testing.T, api *apiServer) *hdc.Serving {
	t.Helper()
	sv, err := api.reg.Serving(api.defaultModel)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
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

func windowJSON(t *testing.T, cfg hdc.Config, level float64) string {
	t.Helper()
	data, err := json.Marshal(predictRequest{Window: testWindow(cfg, level)})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestPredictHandler(t *testing.T) {
	_, srv := newTestAPI(t, 8, 4)
	cfg := testServingConfig()
	cases := []struct {
		name      string
		body      string
		wantCode  int
		wantLabel string
	}{
		{"rest window", windowJSON(t, cfg, 2), 200, "rest"},
		{"fist window", windowJSON(t, cfg, 16), 200, "fist"},
		{"empty body", "", 400, ""},
		{"not json", "not json", 400, ""},
		{"wrong shape", `{"window": [[1, 2]]}`, 400, ""},
		{"empty window", `{"window": []}`, 400, ""},
		{"unknown field", `{"win": [[1, 2, 3, 4]]}`, 400, ""},
		{"trailing data", windowJSON(t, cfg, 2) + "{}", 400, ""},
		{"huge number", `{"window": [[1e999, 2, 3, 4]]}`, 400, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, srv, "/predict", tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", code, tc.wantCode, body)
			}
			if tc.wantCode != 200 {
				var e map[string]string
				if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
					t.Fatalf("error response lacks an error field: %s", body)
				}
				return
			}
			var res predictResponse
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatal(err)
			}
			if res.Label != tc.wantLabel {
				t.Fatalf("label %q, want %q", res.Label, tc.wantLabel)
			}
			if res.Distance < 0 || res.Distance > cfg.D {
				t.Fatalf("distance %d out of range", res.Distance)
			}
		})
	}
	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: %d, want 405", resp.StatusCode)
	}
}

func TestLearnHandler(t *testing.T) {
	api, srv := newTestAPI(t, 8, 4)
	cfg := testServingConfig()
	gen := served(t, api).Generation()

	// Teach a third gesture, then predict it.
	body, err := json.Marshal(learnRequest{Label: "point", Window: testWindow(cfg, 9)})
	if err != nil {
		t.Fatal(err)
	}
	code, resBody := postJSON(t, srv, "/learn", string(body))
	if code != 200 {
		t.Fatalf("learn: status %d (%s)", code, resBody)
	}
	var res learnResponse
	if err := json.Unmarshal([]byte(resBody), &res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != gen+1 || res.Classes != 3 {
		t.Fatalf("learn response %+v, want generation %d and 3 classes", res, gen+1)
	}
	code, resBody = postJSON(t, srv, "/predict", windowJSON(t, cfg, 9))
	if code != 200 {
		t.Fatalf("predict after learn: status %d", code)
	}
	var pred predictResponse
	if err := json.Unmarshal([]byte(resBody), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "point" {
		t.Fatalf("learned gesture classified as %q", pred.Label)
	}
	if pred.Generation != gen+1 {
		t.Fatalf("predict reports generation %d, want %d", pred.Generation, gen+1)
	}

	for _, tc := range []struct{ name, body string }{
		{"empty label", `{"label": "", "window": [[1, 2, 3, 4]]}`},
		{"bad window", `{"label": "x", "window": [[1]]}`},
		{"not json", "{"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, body := postJSON(t, srv, "/learn", tc.body); code != 400 {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
		})
	}
}

// TestLearnReportsPublishedGeneration pins the generation and class
// count a /learn response reports to what that request published. The
// handler used to read the model's info after the learn applied, so a
// learn landing in between made two responses report the same, later
// generation. K concurrent learns, each teaching a new class, must
// report exactly the generations g0+1 … g0+K, each once, each with the
// class count its own publication produced.
func TestLearnReportsPublishedGeneration(t *testing.T) {
	api, srv := newTestAPI(t, 8, 4)
	sv := served(t, api)
	g0, c0 := sv.Generation(), sv.Classes()
	const k = 32
	gens := make([]uint64, k)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(learnRequest{Label: fmt.Sprintf("c%d", i), Window: testWindow(sv.Config(), 9)})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := srv.Client().Post(srv.URL+"/learn", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var res learnResponse
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("learn %d: status %d, decode error %v", i, resp.StatusCode, err)
				return
			}
			if want := c0 + int(res.Generation-g0); res.Classes != want {
				t.Errorf("learn %d reports generation %d with %d classes, want %d", i, res.Generation, res.Classes, want)
			}
			gens[i] = res.Generation
		}()
	}
	wg.Wait()
	slices.Sort(gens)
	for i, g := range gens {
		if g != g0+uint64(i)+1 {
			t.Fatalf("reported generations %v, want %d..%d each once", gens, g0+1, g0+k)
		}
	}
}

// TestPredictQueueOverflow pins the backpressure contract: with the
// dispatcher stalled and the queue full, /predict sheds load with 429
// and counts the rejection.
func TestPredictQueueOverflow(t *testing.T) {
	m := &obs.ServingMetrics{}
	api := newTestServer(t, trainedServing(t), 1, 1, m) // dispatcher never started
	api.queue <- &pendingPredict{}                      // fill the queue
	srv := serveTestAPI(t, api)

	code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, body)
	}
	if m.Rejected.Value() != 1 || m.Requests.Value() != 1 {
		t.Fatalf("rejected=%d requests=%d, want 1/1", m.Rejected.Value(), m.Requests.Value())
	}
}

// TestPredictNoModel pins the empty-model behavior: 409, not a panic.
func TestPredictNoModel(t *testing.T) {
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	api := newTestServer(t, sv, 4, 4, nil)
	api.start()
	defer api.stop()
	srv := serveTestAPI(t, api)
	code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusConflict {
		t.Fatalf("status %d, want 409 (%s)", code, body)
	}
}

// TestServingMetricsEndpoint checks the serving gauges and counters
// appear in /metrics and move with learn/predict traffic.
func TestServingMetricsEndpoint(t *testing.T) {
	h := enableHostMetrics()
	t.Cleanup(func() {
		hdc.SetMetrics(nil)
		hdc.SetServingMetrics(nil)
		stream.SetMetrics(nil)
		parallel.SetMetrics(nil)
	})
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Serving.RecordModel(sv.Generation(), sv.Classes())
	api := newTestServer(t, sv, 8, 4, h.Serving)
	api.start()
	defer api.stop()
	mux := newMetricsMux(h)
	api.register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i, label := range []string{"rest", "fist", "point"} {
		body, _ := json.Marshal(learnRequest{Label: label, Window: testWindow(sv.Config(), float64(2+7*i))})
		if code, res := postJSON(t, srv, "/learn", string(body)); code != 200 {
			t.Fatalf("learn %q: %d (%s)", label, code, res)
		}
	}
	if code, _ := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2)); code != 200 {
		t.Fatal("predict failed")
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(data)
	for _, want := range []string{
		"pulphd_serving_generation 3",
		"pulphd_serving_classes 3",
		"pulphd_serving_learns_total 3",
		"pulphd_serving_requests_total 4",
		"pulphd_serving_rejected_total 0",
		"pulphd_serving_batches_total 1",
		"pulphd_serving_batch_requests_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.Contains(line, "serving") {
				fmt.Println(line)
			}
		}
	}
}
