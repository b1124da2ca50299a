package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestFetchFlight covers the harness side of the flight recorder: a
// summary document round-trips into FlightEvents, the ?model= filter is
// forwarded, a 404 (no recorder) degrades to no events, and other
// failures surface as errors.
func TestFetchFlight(t *testing.T) {
	var gotModel string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/flight" || r.URL.Query().Get("summary") != "1" {
			http.NotFound(w, r)
			return
		}
		gotModel = r.URL.Query().Get("model")
		w.Write([]byte(`{"captures":3,"entries":[
			{"seq":1,"request":11,"model":"emg","generation":2,"trigger":"timeout","duration_ms":7.5,"spans":3},
			{"seq":2,"request":12,"model":"emg","trigger":"shed","duration_ms":0.1,"spans":1}
		]}`))
	}))
	defer srv.Close()

	client := &http.Client{Timeout: time.Second}
	events, err := FetchFlight(context.Background(), client, srv.URL, "emg")
	if err != nil {
		t.Fatal(err)
	}
	if gotModel != "emg" {
		t.Errorf("model filter %q not forwarded", gotModel)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Seq != 1 || e.Request != 11 || e.Model != "emg" || e.Generation != 2 ||
		e.Trigger != "timeout" || e.DurationMs != 7.5 || e.Spans != 3 {
		t.Fatalf("event fields lost in transit: %+v", e)
	}

	// A server without a recorder answers 404: no events, no error.
	off := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer off.Close()
	events, err = FetchFlight(context.Background(), client, off.URL, "")
	if err != nil || events != nil {
		t.Fatalf("404 should degrade silently, got %v / %v", events, err)
	}

	// A genuinely broken server is an error.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()
	if _, err := FetchFlight(context.Background(), client, broken.URL, ""); err == nil {
		t.Fatal("500 should be an error")
	}
}

// TestWorstOffenders pins the per-phase slicing: only events past
// sinceSeq count, ordering is worst-duration first (sequence breaks
// ties), and the list truncates to n.
func TestWorstOffenders(t *testing.T) {
	events := []FlightEvent{
		{Seq: 1, DurationMs: 99}, // previous phase — excluded
		{Seq: 2, DurationMs: 1},
		{Seq: 3, DurationMs: 5},
		{Seq: 4, DurationMs: 5},
		{Seq: 5, DurationMs: 12},
	}
	got := WorstOffenders(events, 1, 3)
	if len(got) != 3 {
		t.Fatalf("got %d offenders, want 3", len(got))
	}
	if got[0].Seq != 5 || got[1].Seq != 3 || got[2].Seq != 4 {
		t.Fatalf("order wrong: %+v", got)
	}
	if len(WorstOffenders(events, 5, 3)) != 0 {
		t.Fatal("sinceSeq at the newest capture should yield nothing")
	}
	if m := maxSeq(events); m != 5 {
		t.Fatalf("maxSeq %d, want 5", m)
	}
	if m := maxSeq(nil); m != 0 {
		t.Fatalf("maxSeq(nil) %d, want 0", m)
	}
}
