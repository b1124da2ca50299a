// Package flight keeps copies of finished request timelines in a
// fixed-size ring. pulphd serve runs two. The flight recorder holds
// the last N tail events — requests that timed out, errored, were
// shed, needed a panic retry or ran slower than their model's latency
// objective — dumpable as Chrome trace JSON (GET /debug/flight) and
// written to disk automatically on an SLO burn-rate breach. The
// /debug/spans ring holds the last N timelines of every request. A
// request records its spans into a recorder that is pooled with its
// wire buffers, and its timeline is copied into the rings before the
// recorder is reused, so an entry keeps the handler→encode→search
// detail, model name and generation after the request is gone.
//
// Capture copies into preallocated slots under one short mutex: no
// allocation once the ring is warm, no recorder to hand back, and
// dump readers never block the serving path for longer than one entry
// copy.
package flight

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"pulphd/internal/obs"
)

// Trigger is the bitmask of reasons a request's timeline was pinned.
type Trigger uint32

// Trigger bits, one per entry in the tail-event taxonomy (DESIGN.md
// §14). A capture may carry several: a retried request that still
// timed out is TrigRetry|TrigTimeout.
const (
	// TrigTimeout marks a request answered 504 at its deadline.
	TrigTimeout Trigger = 1 << iota
	// TrigError marks any other 5xx (retries exhausted, a model that
	// failed to fault in, a closed registry).
	TrigError
	// TrigShed marks a 429 shed by the in-flight predict bound.
	TrigShed
	// TrigRetry marks a request that needed at least one predict retry
	// after a recovered panic.
	TrigRetry
	// TrigSlow marks a request slower than its model's latency
	// objective.
	TrigSlow
)

// triggerNames orders the bit names for String.
var triggerNames = []struct {
	bit  Trigger
	name string
}{
	{TrigTimeout, "timeout"},
	{TrigError, "error"},
	{TrigShed, "shed"},
	{TrigRetry, "retry"},
	{TrigSlow, "slow"},
}

// String renders the set bits pipe-joined ("timeout|retry"), "none"
// for zero. Dump-path only; it allocates.
func (t Trigger) String() string {
	if t == 0 {
		return "none"
	}
	var parts []string
	for _, tn := range triggerNames {
		if t&tn.bit != 0 {
			parts = append(parts, tn.name)
		}
	}
	return strings.Join(parts, "|")
}

// Entry is one captured tail event: the request's identity, why it
// was pinned, and a copy of its span timeline.
type Entry struct {
	Seq        uint64 // 1-based capture sequence number
	ID         uint64 // request id (0 when tracing was off)
	Model      string // resolved tenant model ("" on legacy routes)
	Generation uint64 // model generation that served the request
	Trigger    Trigger
	UnixNanos  int64 // wall time at the request's end: start + Duration
	Duration   time.Duration
	Dropped    int // spans the recorder had to drop
	Spans      []obs.Span
}

// Ring is the flight recorder. All methods are safe for concurrent
// use and nil-safe — a nil *Ring records nothing, so servers built
// without one pay a single pointer compare.
type Ring struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	seq     uint64
}

// NewRing returns a recorder keeping the last keep captures of up to
// spanCap spans each, fully preallocated. keep < 1 returns nil (the
// disabled recorder).
func NewRing(keep, spanCap int) *Ring {
	if keep < 1 {
		return nil
	}
	if spanCap < 1 {
		spanCap = 1
	}
	r := &Ring{entries: make([]Entry, keep)}
	for i := range r.entries {
		r.entries[i].Spans = make([]obs.Span, 0, spanCap)
	}
	return r
}

// Capture pins one finished request into the ring: metadata always,
// plus a copy of rec's spans when tracing ran (rec may be nil). The
// request started at start and ran for dur; the ring reads no clock
// of its own. The caller must be done writing spans, and may reuse
// rec once Capture returns. A zero trigger captures too (rendered
// "none"): the /debug/spans ring keeps every request, so the flight
// recorder's callers skip untriggered requests themselves.
// Allocation-free: span copies land in the slot's preallocated backing
// array (overflow beyond its capacity is counted in Dropped).
func (r *Ring) Capture(rec *obs.Spans, model string, generation uint64, trig Trigger, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := &r.entries[r.next]
	r.next = (r.next + 1) % len(r.entries)
	r.seq++
	e.Seq = r.seq
	e.Model = model
	e.Generation = generation
	e.Trigger = trig
	e.UnixNanos = start.Add(dur).UnixNano()
	e.Duration = dur
	e.ID = 0
	e.Dropped = 0
	e.Spans = e.Spans[:0]
	if rec != nil {
		e.ID = rec.ID
		e.Dropped = rec.Dropped()
		n := rec.Len()
		if over := n - cap(e.Spans); over > 0 {
			e.Dropped += over
			n = cap(e.Spans)
		}
		for i := 0; i < n; i++ {
			e.Spans = append(e.Spans, rec.Span(i))
		}
	}
	r.mu.Unlock()
}

// Captures returns how many tail events have ever been captured.
func (r *Ring) Captures() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns how many captures the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.seq)
	if n > len(r.entries) {
		n = len(r.entries)
	}
	return n
}

// Snapshot returns deep copies of the held captures, oldest first,
// optionally scoped to one model ("" keeps all). Dump path: allocates.
func (r *Ring) Snapshot(model string) []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := int(r.seq)
	if held > len(r.entries) {
		held = len(r.entries)
	}
	start := r.next - held
	if start < 0 {
		start += len(r.entries)
	}
	out := make([]Entry, 0, held)
	for i := 0; i < held; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if model != "" && e.Model != model {
			continue
		}
		e.Spans = append([]obs.Span(nil), e.Spans...)
		out = append(out, e)
	}
	return out
}

// Summary is the compact per-capture record of ?summary=1 — what
// hdload attaches to capacity reports as tail-event evidence.
type Summary struct {
	Seq        uint64  `json:"seq"`
	Request    uint64  `json:"request"`
	Model      string  `json:"model"`
	Generation uint64  `json:"generation"`
	Trigger    string  `json:"trigger"`
	UnixNanos  int64   `json:"unix_ns"`
	DurationMs float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
}

// Summaries returns the held captures as compact summaries, oldest
// first, optionally scoped to one model.
func (r *Ring) Summaries(model string) []Summary {
	entries := r.Snapshot(model)
	out := make([]Summary, 0, len(entries))
	for _, e := range entries {
		out = append(out, Summary{
			Seq:        e.Seq,
			Request:    e.ID,
			Model:      e.Model,
			Generation: e.Generation,
			Trigger:    e.Trigger.String(),
			UnixNanos:  e.UnixNanos,
			DurationMs: float64(e.Duration) / 1e6,
			Spans:      len(e.Spans),
		})
	}
	return out
}

// summaryDoc is the ?summary=1 JSON envelope.
type summaryDoc struct {
	Captures uint64    `json:"captures"`
	Entries  []Summary `json:"entries"`
}

// WriteSummary renders the compact JSON summary of the held captures.
func (r *Ring) WriteSummary(w io.Writer, model string) error {
	doc := summaryDoc{Captures: r.Captures(), Entries: r.Summaries(model)}
	if doc.Entries == nil {
		doc.Entries = []Summary{}
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteChromeTrace renders the held captures as Chrome trace-event
// JSON through the obs span encoder, one process per capture labelled
// with sequence number, trigger, model and generation; every slice
// also carries those tags in its args.
func (r *Ring) WriteChromeTrace(w io.Writer, model string) error {
	var evs []obs.TraceEvent
	for i, e := range r.Snapshot(model) {
		trig := e.Trigger.String()
		label := "flight " + strconv.FormatUint(e.Seq, 10) + " · " + trig
		if e.Model != "" {
			label += " · " + e.Model + "@" + strconv.FormatUint(e.Generation, 10)
		}
		evs = obs.AppendSpanEvents(evs, i+1, label, "flight", e.Spans, map[string]any{
			"request": e.ID, "model": e.Model, "generation": e.Generation, "trigger": trig,
		})
	}
	return obs.EncodeChromeTrace(w, evs)
}
