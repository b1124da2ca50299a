package obs

import (
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: a
// span recorder that the serving path passes down as an argument
// (HTTP handler → model resolve → encode → AM search, or learn encode
// → WAL append → generation publish), and the one Chrome trace-event
// encoder for span timelines (AppendSpanEvents), which renders them
// for Perfetto. A finished timeline is copied into a flight.Ring:
// /debug/spans keeps the most recent ones, /debug/flight the tail
// events.
//
// The recorder is built for the serving hot path: Start reserves a
// slot with one atomic add and writes it without locks (each span is
// written only by the goroutine that started it), End and Annotate
// touch only that slot, and a full recorder drops spans instead of
// growing. Span times are monotonic nanoseconds since the recorder's
// epoch. Every method is nil-safe, so instrumented code pays one
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
// The zero value is unusable — build recorders with NewSpans.
type Spans struct {
	// ID tags the recorder with the request id it traces.
	ID uint64

	epoch   int64 // clock reading at Reset
	n       atomic.Int32
	dropped atomic.Int32
	spans   []Span
	parent  SpanID       // subtree attachment point, see SetParent
	now     func() int64 // span clock, swappable in tests
}

// spanBase is the origin of the span clock. Span times are only ever
// differences from a recorder's epoch, so the clock reads monotonic
// time since spanBase, which is cheaper than reading the wall clock.
var spanBase = time.Now()

// sinceBase is the span clock: nanoseconds since spanBase.
func sinceBase() int64 { return int64(time.Since(spanBase)) }

// NewSpans returns a recorder with capacity for cap spans.
func NewSpans(cap int) *Spans {
	if cap < 1 {
		cap = 1
	}
	s := &Spans{spans: make([]Span, cap), now: sinceBase}
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

// AppendSpanEvents renders one span timeline as trace process pid: a
// process_name row carrying label, then one complete ("X") slice per
// span, every one on thread 0. A slice's args hold its span index and
// parent, then the entries of args (nil for none), then the span's own
// attributes; cat tags every slice. Span timestamps are nanoseconds
// and the trace-event unit is microseconds, so durations render in µs
// (the simulator's cycle traces map one cycle to one µs — the shared
// timeline is for shape, not unit algebra). flight.Ring renders
// /debug/spans, /debug/flight and breach dumps through it.
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
