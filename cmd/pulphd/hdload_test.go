package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pulphd/internal/load"
	"pulphd/internal/obs/flight"
)

// TestHDLoadAgainstRealServer drives the real apiServer through the
// load harness end to end: a closed-loop phase with a learn mix must
// complete with healthy counts, and a phase's worth of concurrent
// traffic must leave the /debug/spans ring full at its keep bound.
func TestHDLoadAgainstRealServer(t *testing.T) {
	sv := trainedServing(t)
	api := newTestServer(t, sv, 64, nil)
	api.spans = flight.NewRing(4, 64)
	srv := serveTestAPI(t, api)

	cfg := sv.Config()
	predict, err := json.Marshal(predictRequest{Window: testWindow(cfg, 2)})
	if err != nil {
		t.Fatal(err)
	}
	learn, err := json.Marshal(learnRequest{Label: "fist", Window: testWindow(cfg, 16)})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := load.NewStaticTraffic([][]byte{predict}, [][]byte{learn})
	if err != nil {
		t.Fatal(err)
	}

	genBefore := sv.Generation()
	res, err := load.RunPhase(context.Background(), load.Options{
		Target:      srv.URL,
		Concurrency: 8,
		Duration:    400 * time.Millisecond,
		Warmup:      50 * time.Millisecond,
		LearnFrac:   0.05,
		Traffic:     traffic,
		Client:      srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("harness sent nothing against a live server")
	}
	// Queue depth 64 under concurrency 8 with no deadline pressure:
	// everything should succeed.
	if res.OK != res.Sent {
		t.Fatalf("sent=%d ok=%d (429=%d 504=%d 500=%d other=%d)",
			res.Sent, res.OK, res.Shed429, res.Timeout504, res.Err500, res.OtherErr)
	}
	if res.Learns == 0 || res.LearnsOK != res.Learns {
		t.Fatalf("learn mix failed: learns=%d ok=%d", res.Learns, res.LearnsOK)
	}
	if res.P50Ms <= 0 || res.P999Ms < res.P99Ms || res.P99Ms < res.P50Ms {
		t.Fatalf("quantiles implausible: p50=%.3f p99=%.3f p999=%.3f", res.P50Ms, res.P99Ms, res.P999Ms)
	}
	if res.GoodputRPS <= 0 {
		t.Fatal("goodput not measured")
	}
	// The learn mix must have published new generations mid-phase.
	if sv.Generation() <= genBefore {
		t.Fatalf("generation %d after a phase with learns, want > %d", sv.Generation(), genBefore)
	}

	// Recorder hygiene after sustained concurrent load: once in-flight
	// work drains, the ring holds exactly its keep limit and the span
	// export is a valid trace (see TestShedReleasesRecorder for the
	// targeted 429 regression).
	deadline := time.Now().Add(5 * time.Second)
	for api.spans.Len() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("timeline ring holds %d requests after the load phase, want keep=4",
				api.spans.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	var events map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
		t.Fatalf("span export after the load phase is not valid JSON: %v", err)
	}
}
