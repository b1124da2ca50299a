package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs"
	modreg "pulphd/internal/registry"
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
// default model is sv, admitting up to maxInflight concurrent
// predicts. No HTTP front end is running yet.
func newTestServer(t *testing.T, sv *hdc.Serving, maxInflight int, m *obs.ServingMetrics) *apiServer {
	t.Helper()
	reg, err := modreg.Open(modreg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	return newRegistryAPIServer(reg, "default", testServingConfig(), maxInflight, m)
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

// newTestAPI builds a trained model behind an API server and an
// httptest front end, closed at cleanup.
func newTestAPI(t *testing.T) (*apiServer, *httptest.Server) {
	t.Helper()
	api := newTestServer(t, trainedServing(t), 8, nil)
	return api, serveTestAPI(t, api)
}

// served returns the Serving behind api's default model.
func served(t *testing.T, api *apiServer) *hdc.Serving {
	t.Helper()
	sv, err := api.reg.Serving(nil, api.defaultModel)
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

// oversizedWindowJSON is a well-formed body whose window alone passes
// the 1 MiB request bound; fields is spliced in before the window.
func oversizedWindowJSON(fields string) string {
	return `{` + fields + `"window":[` + strings.Repeat(`[2,2,2,2],`, maxRequestBody/10) + `[2,2,2,2]]}`
}

func TestPredictHandler(t *testing.T) {
	_, srv := newTestAPI(t)
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
		{"trailing brace", `{"window":[[2,2,2,2]]}}`, 400, ""},
		{"trailing bracket and garbage", `{"window":[[2,2,2,2]]}]garbage`, 400, ""},
		{"null sample", `{"window":[[null,2,2,2]]}`, 400, ""},
		{"upper-case key", `{"Window":[[2,2,2,2]]}`, 200, "rest"},
		{"escaped key", "{\"w\\u0069ndow\":[[2,2,2,2]]}", 200, "rest"},
		{"duplicate key", `{"window":[[16,16,16,16]],"window":[[2,2,2,2]]}`, 200, "rest"},
		{"body over 1 MiB", oversizedWindowJSON(""), 400, ""},
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
	api, srv := newTestAPI(t)
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
		{"trailing object", `{"label":"z","window":[[5,5,5,5]]}{"label":"y"}`},
		{"trailing garbage", `{"label":"z","window":[[5,5,5,5]]}x`},
		{"null sample", `{"label":"z","window":[[5,null,5,5]]}`},
		{"body over 1 MiB", oversizedWindowJSON(`"label":"z",`)},
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
	api, srv := newTestAPI(t)
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

// goPredict posts body to /predict on its own goroutine and delivers
// the status code (0 on a transport error) on the returned channel.
func goPredict(t *testing.T, srv *httptest.Server, body string) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := srv.Client().Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// TestPredictQueueOverflow pins the backpressure contract: with as
// many predicts in flight as the bound allows, /predict sheds load
// with 429 and counts the rejection, and the stalled predict still
// answers once it resumes.
func TestPredictQueueOverflow(t *testing.T) {
	m := &obs.ServingMetrics{}
	api := newTestServer(t, trainedServing(t), 1, m)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	api.beforePredict = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	srv := serveTestAPI(t, api)
	body := windowJSON(t, testServingConfig(), 2)

	first := goPredict(t, srv, body)
	<-entered
	code, res := postJSON(t, srv, "/predict", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, res)
	}
	if m.Rejected.Value() != 1 || m.Requests.Value() != 2 {
		t.Fatalf("rejected=%d requests=%d, want 1/2", m.Rejected.Value(), m.Requests.Value())
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("stalled predict: status %d, want 200", code)
	}
}

// TestPredictsRunConcurrently pins that predicts classify on their own
// goroutines: two /predicts whose predicts each wait for the other to
// start must both get there and answer 200. Funnelling predicts
// through one goroutine would keep the second from starting until the
// first gave up waiting.
func TestPredictsRunConcurrently(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 8, nil)
	api.retries = 0
	var started atomic.Int32
	both := make(chan struct{})
	api.beforePredict = func() {
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(2 * time.Second):
			t.Error("a predict waited 2 s for the other to start")
		}
	}
	srv := serveTestAPI(t, api)
	body := windowJSON(t, testServingConfig(), 2)

	a, b := goPredict(t, srv, body), goPredict(t, srv, body)
	for i, code := range []int{<-a, <-b} {
		if code != http.StatusOK {
			t.Errorf("predict %d: status %d, want 200", i, code)
		}
	}
}

// TestEvictedModelIsReleased pins that serving a predict leaves no
// reference to the model behind: once the registry evicts it, the
// *hdc.Serving must become garbage. A per-model session cache keyed by
// the Serving would keep every evicted model reachable, growing memory
// past -resident-budget.
func TestEvictedModelIsReleased(t *testing.T) {
	reg, err := modreg.Open(modreg.Config{Dir: t.TempDir(), ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	released := make(chan struct{})
	func() {
		sv := trainedServing(t)
		runtime.SetFinalizer(sv, func(*hdc.Serving) { close(released) })
		if err := reg.Adopt("default", sv); err != nil {
			t.Fatal(err)
		}
	}()
	api := newRegistryAPIServer(reg, "default", testServingConfig(), 8, nil)
	srv := serveTestAPI(t, api)
	if code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2)); code != http.StatusOK {
		t.Fatalf("predict: status %d (%s)", code, body)
	}
	reg.EnforceBudget()
	if info, err := reg.ModelInfo("default"); err != nil || info.Resident {
		t.Fatalf("default model still resident after eviction (%+v, %v)", info, err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("evicted model still reachable after 50 GC cycles")
}

// TestPredictNoModel pins the empty-model behavior: 409, not a panic.
func TestPredictNoModel(t *testing.T) {
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	api := newTestServer(t, sv, 4, nil)
	srv := serveTestAPI(t, api)
	code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusConflict {
		t.Fatalf("status %d, want 409 (%s)", code, body)
	}
}

// TestServingMetricsEndpoint checks the serving counters and the
// default model's per-model gauges appear in /metrics and move with
// learn/predict traffic, and that a learn on another tenant leaves the
// default model's gauges alone.
func TestServingMetricsEndpoint(t *testing.T) {
	h := enableHostMetrics()
	t.Cleanup(func() {
		hdc.SetMetrics(nil)
		hdc.SetServingMetrics(nil)
	})
	reg, err := modreg.Open(modreg.Config{Metrics: h.Models})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	reg.RegisterMetrics(h.Registry)
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("other", testServingConfig()); err != nil {
		t.Fatal(err)
	}
	api := newRegistryAPIServer(reg, "default", testServingConfig(), 8, h.Serving)
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
	body, _ := json.Marshal(learnRequest{Label: "rest", Window: testWindow(sv.Config(), 2)})
	if code, res := postJSON(t, srv, "/models/other/learn", string(body)); code != 200 {
		t.Fatalf("learn on other: %d (%s)", code, res)
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
		`pulphd_model_generation{model="default"} 3`,
		`pulphd_model_classes{model="default"} 3`,
		fmt.Sprintf(`pulphd_model_resident_bytes{model="default"} %d`, sv.ResidentBytes()),
		`pulphd_model_generation{model="other"} 1`,
		"pulphd_serving_learns_total 4",
		"pulphd_serving_requests_total 5",
		"pulphd_serving_rejected_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.Contains(line, "serving") || strings.Contains(line, "pulphd_model_") {
				fmt.Println(line)
			}
		}
	}
}

// TestDemoModelMatchesPrepare pins the model -demo seeds a new default
// model with: trained on the demo subject's training windows alone, it
// encodes byte for byte like a classifier trained on
// experiments.Prepare's Subjects[0].Train. Without -demo the model
// starts empty.
func TestDemoModelMatchesPrepare(t *testing.T) {
	sv, err := newServingModel(true, 2018, hdc.BackendStored)
	if err != nil {
		t.Fatal(err)
	}
	proto := emg.DefaultProtocol()
	proto.Seed = 2018
	proto.Subjects = 1
	cls, err := hdc.New(hdc.EMGConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range experiments.Prepare(proto, 1).Subjects[0].Train {
		cls.Train(w.Label, w.Window)
	}
	got, _, err := model.EncodeServing(sv, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := model.EncodeServing(cls.Serving(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Classes() != 5 || !bytes.Equal(got, want) {
		t.Fatalf("demo model (%d classes, %d bytes) differs from the one Prepare's training split trains (%d bytes)",
			sv.Classes(), len(got), len(want))
	}
	empty, err := newServingModel(false, 2018, hdc.BackendStored)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Classes() != 0 {
		t.Fatalf("-demo=false model has %d classes, want 0", empty.Classes())
	}
}
