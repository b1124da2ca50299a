package obs

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: a
// span recorder that rides a context.Context through the serving path
// (HTTP handler → model resolve → encode → AM search, or learn encode
// → generation publish), a bounded ring of completed request
// timelines, and the one Chrome trace-event encoder for span timelines
// (AppendSpanEvents), which renders them for Perfetto.
//
// The recorder is built for the serving hot path: Start reserves a
// slot with one atomic add and writes it without locks (each span is
// written only by the goroutine that started it), End and Annotate
// touch only that slot, and a full recorder drops spans instead of
// growing. Every method is nil-safe, so instrumented code pays one
// pointer compare when request tracing is disabled and allocates
// nothing either way.

// SpanID identifies one span within a Spans recorder.
type SpanID int32

// NoSpan is the parent of root spans and the id handed out by a nil
// or full recorder; every Spans method accepts it and no-ops.
const NoSpan SpanID = -1

// spanAttrs is the fixed number of attribute slots per span. Fixed
// size keeps Annotate allocation-free.
const spanAttrs = 2

// Attr is one span attribute. Values are int64 — the serving path
// annotates sizes, class counts and generation ids, never strings.
type Attr struct {
	Key   string
	Value int64
}

// Span is one recorded interval. Start and End are nanoseconds since
// the recorder's epoch; End == 0 marks a span never ended.
type Span struct {
	Name   string
	Parent SpanID
	Start  int64
	End    int64
	Attrs  [spanAttrs]Attr
}

// Spans records one request's span tree into a fixed-capacity slot
// array. One goroutine starts the root; any number of goroutines may
// Start/End concurrently (slot reservation is a single atomic add).
// The zero value is unusable — build recorders with NewSpans or
// borrow them from a Timelines ring.
type Spans struct {
	// ID tags the recorder with the request id it traces.
	ID uint64
	// Model tags the recorder with the tenant model the request
	// resolved to. Set it once, before any concurrent span writers
	// start; exporters use it for per-tenant (?model=) filtering and
	// process labels.
	Model string

	epoch   int64 // unix nanos at Reset
	n       atomic.Int32
	dropped atomic.Int32
	spans   []Span
	parent  SpanID       // subtree attachment point, see SetParent
	now     func() int64 // unix-nano clock, swappable in tests
}

// NewSpans returns a recorder with capacity for cap spans.
func NewSpans(cap int) *Spans {
	if cap < 1 {
		cap = 1
	}
	s := &Spans{spans: make([]Span, cap), now: func() int64 { return time.Now().UnixNano() }}
	s.Reset(0)
	return s
}

// Reset re-arms the recorder for a new request: clears every recorded
// span, restarts the epoch, and tags the recorder with id.
func (s *Spans) Reset(id uint64) {
	if s == nil {
		return
	}
	n := int(s.n.Load())
	if n > len(s.spans) {
		n = len(s.spans)
	}
	for i := 0; i < n; i++ {
		s.spans[i] = Span{}
	}
	s.n.Store(0)
	s.dropped.Store(0)
	s.ID = id
	s.Model = ""
	s.parent = NoSpan
	s.epoch = s.now()
}

// SetParent stages the span that subtrees started by downstream layers
// attach under. The handler stages the request root before calling
// into the registry and model layers; only the goroutine driving the
// request may call it.
func (s *Spans) SetParent(id SpanID) {
	if s == nil {
		return
	}
	s.parent = id
}

// Parent returns the staged attachment point (NoSpan by default, and
// for a nil recorder).
func (s *Spans) Parent() SpanID {
	if s == nil {
		return NoSpan
	}
	return s.parent
}

// Start opens a span under parent (NoSpan for a root). It never
// blocks and never allocates; when the recorder is full the span is
// dropped and NoSpan returned.
func (s *Spans) Start(name string, parent SpanID) SpanID {
	if s == nil {
		return NoSpan
	}
	idx := s.n.Add(1) - 1
	if int(idx) >= len(s.spans) {
		s.dropped.Add(1)
		return NoSpan
	}
	sp := &s.spans[idx]
	sp.Name = name
	sp.Parent = parent
	sp.Start = s.now() - s.epoch
	sp.End = 0
	sp.Attrs = [spanAttrs]Attr{}
	return SpanID(idx)
}

// End closes the span. Ending NoSpan (or a span twice) is harmless.
func (s *Spans) End(id SpanID) {
	if s == nil || id < 0 || int(id) >= len(s.spans) {
		return
	}
	s.spans[id].End = s.now() - s.epoch
}

// Annotate attaches key=value to the span, filling the first free
// attribute slot; further annotations on a full span are dropped.
func (s *Spans) Annotate(id SpanID, key string, value int64) {
	if s == nil || id < 0 || int(id) >= len(s.spans) {
		return
	}
	for i := range s.spans[id].Attrs {
		if s.spans[id].Attrs[i].Key == "" {
			s.spans[id].Attrs[i] = Attr{Key: key, Value: value}
			return
		}
	}
}

// Len returns the number of recorded (non-dropped) spans.
func (s *Spans) Len() int {
	if s == nil {
		return 0
	}
	n := int(s.n.Load())
	if n > len(s.spans) {
		n = len(s.spans)
	}
	return n
}

// Dropped returns how many spans did not fit the recorder.
func (s *Spans) Dropped() int {
	if s == nil {
		return 0
	}
	return int(s.dropped.Load())
}

// Span returns a copy of recorded span i (0 ≤ i < Len()).
func (s *Spans) Span(i int) Span { return s.spans[i] }

// spansKey carries a *Spans through a context.Context.
type spansKey struct{}

// WithSpans returns a context carrying the recorder; instrumented
// layers below retrieve it with SpansFrom.
func WithSpans(ctx context.Context, s *Spans) context.Context {
	return context.WithValue(ctx, spansKey{}, s)
}

// SpansFrom returns the recorder carried by ctx, or nil when request
// tracing is disabled — every Spans method accepts the nil.
func SpansFrom(ctx context.Context) *Spans {
	s, _ := ctx.Value(spansKey{}).(*Spans)
	return s
}

// Timelines keeps the most recent completed request recorders in a
// bounded ring for export, and recycles evicted recorders so a steady
// request stream reuses a fixed set of Spans instead of allocating.
type Timelines struct {
	mu      sync.Mutex
	keep    int
	spanCap int
	done    []*Spans // ring, oldest first once full
	next    int
	free    []*Spans
}

// NewTimelines returns a ring keeping the last keep requests, each
// with capacity for spanCap spans.
func NewTimelines(keep, spanCap int) *Timelines {
	if keep < 1 {
		keep = 1
	}
	if spanCap < 1 {
		spanCap = 1
	}
	return &Timelines{keep: keep, spanCap: spanCap}
}

// Acquire returns a reset recorder tagged with id — recycled from an
// evicted one when available. A nil Timelines returns nil, which
// disables recording down the whole path.
func (t *Timelines) Acquire(id uint64) *Spans {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var s *Spans
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if s == nil {
		s = NewSpans(t.spanCap)
	}
	s.Reset(id)
	return s
}

// Release files a completed recorder into the ring, evicting (and
// recycling) the oldest once keep are held. The caller must be done
// writing spans: from here the recorder may be read by an exporter at
// any time.
func (t *Timelines) Release(s *Spans) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	if len(t.done) < t.keep {
		t.done = append(t.done, s)
	} else {
		t.free = append(t.free, t.done[t.next])
		t.done[t.next] = s
		t.next = (t.next + 1) % t.keep
	}
	t.mu.Unlock()
}

// Requests returns how many completed request timelines are held.
func (t *Timelines) Requests() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// snapshotLocked returns the held recorders oldest-first.
func (t *Timelines) snapshot() []*Spans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Spans, 0, len(t.done))
	for i := 0; i < len(t.done); i++ {
		out = append(out, t.done[(t.next+i)%len(t.done)])
	}
	return out
}

// appendHeld renders the held recorders oldest-first, one trace
// process each ("request <id> · <model>"), only those tagged with
// model when it is non-empty. It holds t.mu for the whole render:
// Release recycles an evicted recorder through the free list, where
// Acquire resets it, so a recorder must not leave the ring while it is
// being read. Handlers wait on the lock only while an export copies
// spans into events, never while it writes them out.
func (t *Timelines) appendHeld(evs []TraceEvent, model string) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	pid := 1
	for i := range t.done {
		rec := t.done[(t.next+i)%len(t.done)]
		if model != "" && rec.Model != model {
			continue
		}
		label := "request " + strconv.FormatUint(rec.ID, 10)
		if rec.Model != "" {
			label += " · " + rec.Model
		}
		evs = AppendSpanEvents(evs, pid, label, "request", rec.spans[:rec.Len()], nil)
		pid++
	}
	return evs
}

// AppendSpanEvents renders one span timeline as trace process pid: a
// process_name row carrying label, then one complete ("X") slice per
// span, every one on thread 0. A slice's args hold its span index and
// parent, then the entries of args (nil for none), then the span's own
// attributes; cat tags every slice. Span timestamps are nanoseconds
// and the trace-event unit is microseconds, so durations render in µs
// (the simulator's cycle traces map one cycle to one µs — the shared
// timeline is for shape, not unit algebra). /debug/spans,
// /debug/flight and flight breach dumps all render through it.
func AppendSpanEvents(evs []TraceEvent, pid int, label, cat string, spans []Span, args map[string]any) []TraceEvent {
	evs = append(evs, TraceEvent{
		Name: "process_name", Phase: "M", Pid: pid,
		Args: map[string]any{"name": label},
	})
	for i, sp := range spans {
		end := sp.End
		if end < sp.Start {
			end = sp.Start // never-ended span: zero-length slice
		}
		a := map[string]any{"span": i, "parent": int(sp.Parent)}
		for k, v := range args {
			a[k] = v
		}
		for _, at := range sp.Attrs {
			if at.Key != "" {
				a[at.Key] = at.Value
			}
		}
		dur := (end - sp.Start) / 1e3
		if dur < 1 {
			dur = 1 // sub-µs spans still visible
		}
		evs = append(evs, TraceEvent{
			Name: sp.Name, Phase: "X", Ts: sp.Start / 1e3, Dur: dur,
			Pid: pid, Cat: cat, Args: a,
		})
	}
	return evs
}

// WriteChromeTrace renders the held request timelines as Chrome
// trace-event JSON; a non-empty model keeps only the requests whose
// recorder is tagged with it — the ?model= filter of /debug/spans.
func (t *Timelines) WriteChromeTrace(w io.Writer, model string) error {
	return EncodeChromeTrace(w, t.appendHeld(nil, model))
}
