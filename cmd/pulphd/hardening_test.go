package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/obs"
)

// TestPredictTimeout pins the per-request deadline: a predict stalled
// past its deadline answers 504 and counts the timeout, and fresh
// requests still get 200.
func TestPredictTimeout(t *testing.T) {
	m := &obs.ServingMetrics{}
	api := newTestServer(t, trainedServing(t), 4, m)
	api.timeout = 30 * time.Millisecond
	var stall atomic.Bool
	stall.Store(true)
	api.beforePredict = func() {
		if stall.Load() {
			time.Sleep(2 * api.timeout)
		}
	}
	srv := serveTestAPI(t, api)
	cfg := testServingConfig()

	code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stalled predict: status %d, want 504 (%s)", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Fatalf("504 body does not name the deadline: %s", body)
	}
	if m.Timeouts.Value() != 1 {
		t.Fatalf("timeouts counter %d, want 1", m.Timeouts.Value())
	}

	stall.Store(false)
	code, body = postJSON(t, srv, "/predict", windowJSON(t, cfg, 2))
	if code != http.StatusOK {
		t.Fatalf("after timeout: status %d, want 200 (%s)", code, body)
	}
	if m.Timeouts.Value() != 1 {
		t.Fatalf("timeouts counter moved to %d on a healthy request", m.Timeouts.Value())
	}
}

// TestPredictPanicRecovery pins the bounded-retry contract: a predict
// attempt that panics (here: the injected fault hook, once) is
// recovered and the retry succeeds — the caller sees a normal answer,
// the counters see the incident.
func TestPredictPanicRecovery(t *testing.T) {
	sv := trainedServing(t)
	m := &obs.ServingMetrics{}
	api := newTestServer(t, sv, 4, m)
	ctx, w := context.Background(), testWindow(sv.Config(), 2)
	if res := api.predictOne(ctx, nil, sv, w); res.err != nil || res.label != "rest" {
		t.Fatalf("healthy predict: %+v", res)
	}

	fired := false
	api.beforePredict = func() {
		if !fired {
			fired = true
			panic("injected predict fault")
		}
	}
	res := api.predictOne(ctx, nil, sv, w)
	if res.err != nil {
		t.Fatalf("predict after recovery failed: %v", res.err)
	}
	if res.label != "rest" || !res.retried {
		t.Fatalf("result %+v, want label rest after a retry", res)
	}
	if m.PanicsRecovered.Value() != 1 || m.Retries.Value() != 1 {
		t.Fatalf("panics=%d retries=%d, want 1/1", m.PanicsRecovered.Value(), m.Retries.Value())
	}
}

// TestPredictRetriesExhausted pins the failure shape when every retry
// panics: the request fails with errPredictPanic (mapped to 500 by the
// handler), the process survives, and the counters account for every
// attempt.
func TestPredictRetriesExhausted(t *testing.T) {
	sv := trainedServing(t)
	m := &obs.ServingMetrics{}
	api := newTestServer(t, sv, 4, m)
	api.retries = 1
	api.retryBackoff = 0
	api.beforePredict = func() { panic("injected predict fault") }

	res := api.predictOne(context.Background(), nil, sv, testWindow(sv.Config(), 2))
	if res.err == nil {
		t.Fatal("poisoned predict returned no error")
	}
	if !errors.Is(res.err, errPredictPanic) {
		t.Fatalf("error %v does not wrap errPredictPanic", res.err)
	}
	if m.PanicsRecovered.Value() != 2 || m.Retries.Value() != 1 {
		t.Fatalf("panics=%d retries=%d, want 2/1", m.PanicsRecovered.Value(), m.Retries.Value())
	}
}

// TestPredictPanicThroughHTTP drives the full HTTP path with a predict
// that panics on every attempt: /predict answers 500 once the bounded
// retries are spent, the recovered panics are counted, and the next
// healthy request is served normally.
func TestPredictPanicThroughHTTP(t *testing.T) {
	m := &obs.ServingMetrics{}
	api := newTestServer(t, trainedServing(t), 8, m)
	api.retryBackoff = 0
	var failing atomic.Bool
	failing.Store(true)
	api.beforePredict = func() {
		if failing.Load() {
			panic("injected predict fault")
		}
	}
	srv := serveTestAPI(t, api)
	cfg := testServingConfig()

	code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 16))
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking predict: status %d, want 500 (%s)", code, body)
	}
	if got := m.PanicsRecovered.Value(); got != int64(api.retries+1) {
		t.Fatalf("panics recovered %d, want %d", got, api.retries+1)
	}
	failing.Store(false)
	code, body = postJSON(t, srv, "/predict", windowJSON(t, cfg, 16))
	if code != http.StatusOK || !strings.Contains(body, `"label":"fist"`) {
		t.Fatalf("after the fault cleared: status %d (%s)", code, body)
	}
}
