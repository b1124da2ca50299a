package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulphd/internal/obs"
)

// This file pins the serving-path bugs the load harness exposed:
// the 429 shed path leaking span recorders, the per-batch generation
// snapshot misreporting which model a predict scanned, the retry
// backoff overflowing into a negative sleep, and timeout storms
// churning recorders instead of recycling them.

// TestShedReleasesRecorder pins the 429 path's recorder hygiene: a
// shed request must end the request/queue.wait spans it opened and
// file its recorder back into the timeline ring. Pre-fix, the handler
// returned without either, so every shed leaked a recorder and the
// ring stayed empty exactly when load (and shedding) was highest.
func TestShedReleasesRecorder(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 1, 1, nil) // dispatcher never started
	api.timelines = obs.NewTimelines(2, 16)
	api.queue <- &pendingPredict{} // fill the queue: everything sheds
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
	// The filed timelines must be complete span trees: request and
	// queue.wait both present and ended.
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	spans := w.Body.String()
	for _, want := range []string{`"request"`, `"queue.wait"`} {
		if !json.Valid(w.Body.Bytes()) || !strings.Contains(spans, want) {
			t.Fatalf("shed timeline export lacks %s: %s", want, spans)
		}
	}
}

// TestPredictReportsScannedGeneration pins the generation a predict
// response carries to the generation its atomic load actually scanned.
// The dispatcher used to snapshot Serving.Generation() once per batch;
// a /learn publishing mid-batch then made later requests in the batch
// report a generation older than the model that classified them. The
// fault hook interleaves deterministically: before the second
// request's predict it publishes a learn through the registry, so the
// second request in the same batch scans (and must report) the new id.
func TestPredictReportsScannedGeneration(t *testing.T) {
	sv := trainedServing(t)
	api := newTestServer(t, sv, 8, 8, nil)

	genBefore := sv.Generation()
	attempts := 0 // dispatcher goroutine only
	api.beforePredict = func() {
		if attempts++; attempts == 2 {
			if err := api.reg.Learn("default", "point", testWindow(sv.Config(), 9)); err != nil {
				t.Errorf("mid-batch learn: %v", err)
			}
		}
	}

	// Queue both requests before the dispatcher starts so they form
	// one batch, processed in order.
	p1 := &pendingPredict{window: testWindow(sv.Config(), 2), sv: sv, done: make(chan predictResult, 1)}
	p2 := &pendingPredict{window: testWindow(sv.Config(), 16), sv: sv, done: make(chan predictResult, 1)}
	api.queue <- p1
	api.queue <- p2
	api.start()
	t.Cleanup(api.stop)

	r1, r2 := <-p1.done, <-p2.done
	if r1.err != nil || r2.err != nil {
		t.Fatalf("batch predicts failed: %v / %v", r1.err, r2.err)
	}
	genAfter := sv.Generation()
	if genAfter != genBefore+1 {
		t.Fatalf("learn did not publish: generation %d → %d", genBefore, genAfter)
	}
	// Request 1 loaded the old generation before the learn landed.
	if r1.generation != genBefore {
		t.Fatalf("first request reports generation %d, want %d", r1.generation, genBefore)
	}
	// Request 2 scanned the newly published model and must say so.
	if r2.generation != genAfter {
		t.Fatalf("second request scanned generation %d but reports %d", genAfter, r2.generation)
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

// TestCompleteReleasesOnce pins the recorder-ownership handshake: of
// the two sides (handler, dispatcher) exactly the second completion
// releases the recorder — never both, never neither.
func TestCompleteReleasesOnce(t *testing.T) {
	api := &apiServer{timelines: obs.NewTimelines(4, 8)}
	rec := api.timelines.Acquire(1)
	p := &pendingPredict{rec: rec, root: rec.Start("request", obs.NoSpan)}
	api.complete(p)
	if got := api.timelines.Requests(); got != 0 {
		t.Fatalf("first completion released the recorder (ring holds %d)", got)
	}
	api.complete(p)
	if got := api.timelines.Requests(); got != 1 {
		t.Fatalf("second completion did not release exactly once (ring holds %d)", got)
	}
}

// TestTimeoutStormRecorderHygiene pins that a sustained deadline storm
// — every request abandoned by its handler at a 1 ns timeout — leaves
// the timeline ring healthy: the dispatcher's completion recycles each
// abandoned recorder (no allocate-per-request churn, ring fills to its
// keep bound) and the span export stays a valid trace. Runs under
// -race in CI, so the handler/dispatcher recorder handoff is also
// exercised for data races.
func TestTimeoutStormRecorderHygiene(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 64, 8, nil)
	api.timeout = time.Nanosecond
	api.timelines = obs.NewTimelines(4, 64)
	api.start()
	t.Cleanup(api.stop)
	srv := serveTestAPI(t, api)

	const storm = 30
	got504 := 0
	for i := 0; i < storm; i++ {
		code, _ := postJSON(t, srv, "/predict", windowJSON(t, testServingConfig(), 2))
		switch code {
		case http.StatusGatewayTimeout:
			got504++
		case http.StatusOK:
			// The dispatcher occasionally wins the race against a 1 ns
			// timer; both outcomes must keep the ring healthy.
		default:
			t.Fatalf("storm request %d: status %d, want 504 or 200", i, code)
		}
	}
	if got504 == 0 {
		t.Fatal("storm produced no 504s; timeout path not exercised")
	}
	// Every storm request is eventually completed by both sides, so
	// all recorders are released: the ring must fill to keep=4.
	deadline := time.Now().Add(5 * time.Second)
	for api.timelines.Requests() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("timeline ring holds %d requests, want 4 (abandoned recorders not recycled)",
				api.timelines.Requests())
		}
		time.Sleep(5 * time.Millisecond)
	}
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("span export after storm is not valid JSON: %s", w.Body.String())
	}
}
