package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/obs"
)

// This file pins the serving-path bugs the load harness exposed:
// the 429 shed path leaking span recorders, a predict misreporting
// which generation it scanned, the retry backoff overflowing into a
// negative sleep, and timeout storms churning recorders instead of
// recycling them.

// TestShedReleasesRecorder pins the 429 path's recorder hygiene: a
// shed request must end the request span it opened and file its
// recorder back into the timeline ring. Returning without either
// leaks a recorder per shed and leaves the ring empty exactly when
// load (and shedding) is highest.
func TestShedReleasesRecorder(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 1, nil)
	api.timelines = obs.NewTimelines(2, 16)
	api.inflight.Store(1) // one predict already in flight: everything sheds
	srv := serveTestAPI(t, api)

	for i := 0; i < 4; i++ {
		code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2))
		if code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d, want 429 (%s)", i, code, body)
		}
	}
	// Every shed request completed, so the ring must hold keep=2
	// timelines (the other two recorders were recycled through the
	// free list).
	if got := api.timelines.Requests(); got != 2 {
		t.Fatalf("timeline ring holds %d requests after 4 sheds, want 2 (recorders leaked)", got)
	}
	// The filed timelines must be complete span trees with the request
	// root present.
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if !json.Valid(w.Body.Bytes()) || !strings.Contains(w.Body.String(), `"request"`) {
		t.Fatalf("shed timeline export lacks the request span: %s", w.Body.String())
	}
}

// TestPredictReportsScannedGeneration pins the generation a predict
// response carries to the generation its atomic load actually scanned.
// Reading the model's generation before the predict misreports it
// whenever a /learn publishes in between. The fault hook interleaves
// deterministically: just before the second predict it publishes a
// learn through the registry, so that predict scans (and must report)
// the new id while the first reports the old one.
func TestPredictReportsScannedGeneration(t *testing.T) {
	sv := trainedServing(t)
	api := newTestServer(t, sv, 8, nil)
	srv := serveTestAPI(t, api)

	genBefore := sv.Generation()
	var attempts atomic.Int32
	api.beforePredict = func() {
		if attempts.Add(1) == 2 {
			if err := api.reg.Learn("default", "point", testWindow(sv.Config(), 9)); err != nil {
				t.Errorf("interleaved learn: %v", err)
			}
		}
	}

	predict := func(level float64) predictResponse {
		t.Helper()
		code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), level))
		if code != http.StatusOK {
			t.Fatalf("predict: status %d (%s)", code, body)
		}
		var res predictResponse
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := predict(2)
	r2 := predict(16)
	genAfter := sv.Generation()
	if genAfter != genBefore+1 {
		t.Fatalf("learn did not publish: generation %d → %d", genBefore, genAfter)
	}
	if r1.Generation != genBefore {
		t.Fatalf("first request reports generation %d, want %d", r1.Generation, genBefore)
	}
	// Request 2 scanned the newly published model and must say so.
	if r2.Generation != genAfter {
		t.Fatalf("second request scanned generation %d but reports %d", genAfter, r2.Generation)
	}
}

// TestRetryBackoffSaturates pins the backoff schedule at the overflow
// boundary: doubling stops at maxRetryBackoff and a huge attempt count
// can never shift time.Duration negative (a negative Sleep returns
// immediately — a hot retry loop exactly when the model is panicking).
func TestRetryBackoffSaturates(t *testing.T) {
	api := &apiServer{retryBackoff: 2 * time.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 2 * time.Millisecond},
		{1, 4 * time.Millisecond},
		{7, 256 * time.Millisecond},
		{8, 512 * time.Millisecond},
		{9, maxRetryBackoff}, // 1024 ms would exceed the 1 s cap
		{62, maxRetryBackoff},
		{63, maxRetryBackoff},
		{1 << 20, maxRetryBackoff},
	} {
		if got := api.backoff(tc.attempt); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	for attempt := 0; attempt < 200; attempt++ {
		if got := api.backoff(attempt); got < 0 {
			t.Fatalf("backoff(%d) = %v, negative", attempt, got)
		}
	}
	api.retryBackoff = 0
	if got := api.backoff(5); got != 0 {
		t.Errorf("backoff with zero base = %v, want 0", got)
	}
	api.retryBackoff = time.Nanosecond
	if got := api.backoff(100); got != maxRetryBackoff {
		t.Errorf("backoff(100) from 1ns = %v, want saturation at %v", got, maxRetryBackoff)
	}
}

// TestTimeoutStormRecorderHygiene pins that a sustained deadline storm
// — every request at a 1 ns timeout — leaves the timeline ring
// healthy: each handler recycles its recorder before answering (no
// allocate-per-request churn, ring at its keep bound) and the span
// export stays a valid trace. Runs under -race in CI.
func TestTimeoutStormRecorderHygiene(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 64, nil)
	api.timeout = time.Nanosecond
	api.timelines = obs.NewTimelines(4, 64)
	srv := serveTestAPI(t, api)

	const storm = 30
	got504 := 0
	for i := 0; i < storm; i++ {
		code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2))
		switch code {
		case http.StatusGatewayTimeout:
			got504++
		case http.StatusOK:
			// The context's deadline timer can fire after the predict
			// returns; both outcomes must keep the ring healthy.
		default:
			t.Fatalf("storm request %d: status %d, want 504 or 200 (%s)", i, code, body)
		}
	}
	if got504 == 0 {
		t.Fatal("storm produced no 504s; timeout path not exercised")
	}
	if got := api.timelines.Requests(); got != 4 {
		t.Fatalf("timeline ring holds %d requests, want 4 (timed-out recorders not recycled)", got)
	}
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("span export after storm is not valid JSON: %s", w.Body.String())
	}
}
