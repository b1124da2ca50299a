package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/obs/flight"
)

// This file pins the serving-path bugs the load harness exposed:
// the 429 shed path dropping request timelines, a predict misreporting
// which generation it scanned, the retry backoff overflowing into a
// negative sleep, and timeout storms leaving the timeline ring short.

// requireCompleteRequests fails unless ring holds want request
// timelines, each a complete span tree: the request root first and
// every span ended.
func requireCompleteRequests(t *testing.T, ring *flight.Ring, want int) {
	t.Helper()
	held := ring.Snapshot("")
	if len(held) != want {
		t.Fatalf("/debug/spans ring holds %d request timelines, want %d", len(held), want)
	}
	for _, e := range held {
		if len(e.Spans) == 0 || e.Spans[0].Name != "request" {
			t.Fatalf("timeline of request %d lacks its request root: %+v", e.ID, e.Spans)
		}
		for _, sp := range e.Spans {
			if sp.End == 0 {
				t.Fatalf("timeline of request %d holds the unended span %q", e.ID, sp.Name)
			}
		}
	}
}

// TestShedReleasesRecorder pins the 429 path's recorder hygiene: a
// shed request must end the request span it opened and copy its
// timeline into the /debug/spans ring. Returning without either leaves
// the ring empty exactly when load (and shedding) is highest.
func TestShedReleasesRecorder(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 1, nil)
	api.spans = flight.NewRing(2, 16)
	api.inflight.Store(1) // one predict already in flight: everything sheds
	srv := serveTestAPI(t, api)

	for i := 0; i < 4; i++ {
		code, body := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2))
		if code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d, want 429 (%s)", i, code, body)
		}
	}
	// Every shed request completed, so the ring must hold min(4, keep=2)
	// complete timelines.
	requireCompleteRequests(t, api.spans, 2)
	// The export carries the request root too.
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
// — every request at a 1 ns timeout — leaves the /debug/spans ring
// healthy: each handler copies its complete timeline before answering
// (ring at its keep bound) and the span export stays a valid trace.
// Runs under -race in CI.
func TestTimeoutStormRecorderHygiene(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 64, nil)
	api.timeout = time.Nanosecond
	api.spans = flight.NewRing(4, 64)
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
	requireCompleteRequests(t, api.spans, 4)
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("span export after storm is not valid JSON: %s", w.Body.String())
	}
}
