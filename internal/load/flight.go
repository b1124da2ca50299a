package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
)

// This file is the harness side of the serving tier's flight recorder:
// after each phase, hdload fetches /debug/flight?summary=1 and attaches
// the phase's worst tail events — timeouts, sheds, errors, retries,
// over-SLO requests — to the phase row in BENCH_serving.json.
// A capacity regression then ships its own forensics: the report says
// not just "p999 doubled" but which requests paid it and why.

// FlightEvent is one tail-event capture attached to a phase result,
// mirroring the /debug/flight summary entry.
type FlightEvent struct {
	Seq        uint64  `json:"seq"`
	Request    uint64  `json:"request"`
	Model      string  `json:"model,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	Trigger    string  `json:"trigger"`
	DurationMs float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
}

// flightSummary is the /debug/flight?summary=1 envelope.
type flightSummary struct {
	Captures uint64        `json:"captures"`
	Entries  []FlightEvent `json:"entries"`
}

// FetchFlight reads the target's flight-recorder summary, optionally
// scoped to one model. A 404 (recorder disabled, or an older server)
// is not an error — it returns no events, so the harness degrades
// gracefully against any server generation.
func FetchFlight(ctx context.Context, client *http.Client, target, model string) ([]FlightEvent, error) {
	u := target + "/debug/flight?summary=1"
	if model != "" {
		u += "&model=" + url.QueryEscape(model)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("flight fetch: status %d", resp.StatusCode)
	}
	var doc flightSummary
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("flight fetch: %w", err)
	}
	return doc.Entries, nil
}

// WorstOffenders keeps the n slowest events captured after sinceSeq —
// the per-phase slice of a recorder that accumulates across the whole
// sweep — ordered worst first.
func WorstOffenders(events []FlightEvent, sinceSeq uint64, n int) []FlightEvent {
	fresh := make([]FlightEvent, 0, len(events))
	for _, e := range events {
		if e.Seq > sinceSeq {
			fresh = append(fresh, e)
		}
	}
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].DurationMs != fresh[j].DurationMs {
			return fresh[i].DurationMs > fresh[j].DurationMs
		}
		return fresh[i].Seq < fresh[j].Seq
	})
	if len(fresh) > n {
		fresh = fresh[:n]
	}
	return fresh
}

// maxSeq returns the highest capture sequence number among events.
func maxSeq(events []FlightEvent) uint64 {
	var m uint64
	for _, e := range events {
		if e.Seq > m {
			m = e.Seq
		}
	}
	return m
}
