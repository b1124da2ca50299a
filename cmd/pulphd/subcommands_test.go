package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
)

// silenceStdout redirects os.Stdout to /dev/null for the test's
// duration, so subcommand summaries don't pollute the test log.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// TestTraceSubcommand drives "pulphd trace -o" end to end and parses
// the exported file as Chrome trace-event JSON: the acceptance check
// that the CLI artifact, not just the library writer, is loadable.
func TestTraceSubcommand(t *testing.T) {
	silenceStdout(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if code := runTrace([]string{"-o", path}); code != 0 {
		t.Fatalf("runTrace exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   int64          `json:"dur"`
			Pid   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatalf("degenerate trace: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	platforms := map[string]bool{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "process_name" {
				platforms[ev.Args["name"].(string)] = true
			}
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive duration %d", ev.Name, ev.Dur)
			}
			slices++
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(platforms) != len(experiments.TracePlatforms()) {
		t.Fatalf("trace names %d platforms, want %d: %v",
			len(platforms), len(experiments.TracePlatforms()), platforms)
	}
	if slices == 0 {
		t.Fatal("no kernel slices in trace")
	}
}

// TestServeEndpoints wires the host metrics exactly as "pulphd serve"
// does, drives one predict through a metrics-wired handler, and checks
// all three observability endpoints respond with moving numbers. No
// family of the stream, pool, fault or batch instrumentation that only
// a replay loop ever moved is exported.
func TestServeEndpoints(t *testing.T) {
	h := enableHostMetrics()
	t.Cleanup(func() {
		hdc.SetMetrics(nil)
		hdc.SetServingMetrics(nil)
	})
	api := newTestServer(t, trainedServing(t), 8, h.Serving)
	mux := newMetricsMux(h)
	api.register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2)); code != 200 {
		t.Fatalf("predict: status %d (%s)", code, body)
	}
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "\npulphd_predict_total 1\n") {
		t.Errorf("/metrics lacks pulphd_predict_total 1 after one predict:\n%s", metrics)
	}
	for _, gone := range []string{"pulphd_stream_", "pulphd_pool_", "pulphd_fault_", "pulphd_predict_batch_"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics exports a %s* family", gone)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["pulphd_metrics"]; !ok {
		t.Error("/debug/vars lacks pulphd_metrics")
	}

	if out := get("/debug/pprof/"); !strings.Contains(out, "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}
