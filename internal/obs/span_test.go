package obs

import (
	"bytes"
	"sync"
	"testing"
)

// fixedClock returns a now() hook ticking step nanoseconds per call.
func fixedClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

func TestSpansNilSafety(t *testing.T) {
	var s *Spans
	s.Reset(1)
	s.SetParent(3)
	if id := s.Start("x", NoSpan); id != NoSpan {
		t.Fatalf("nil Start = %d, want NoSpan", id)
	}
	s.End(0)
	s.Annotate(0, "k", 1)
	if s.Len() != 0 || s.Dropped() != 0 || s.Parent() != NoSpan {
		t.Fatal("nil recorder reports state")
	}
	var tl *Timelines
	if tl.Acquire(1) != nil {
		t.Fatal("nil Timelines handed out a recorder")
	}
	tl.Release(nil)
	if tl.Requests() != 0 {
		t.Fatal("nil Timelines holds requests")
	}
}

func TestSpansRecordTree(t *testing.T) {
	s := NewSpans(8)
	s.now = fixedClock(100)
	s.Reset(7) // epoch = 100
	root := s.Start("request", NoSpan)
	child := s.Start("encode", root)
	s.Annotate(child, "classes", 5)
	s.Annotate(child, "gen", 2)
	s.Annotate(child, "dropped", 9) // third attr: dropped
	s.End(child)
	s.End(root)

	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	got := s.Span(int(child))
	if got.Name != "encode" || got.Parent != root {
		t.Fatalf("child span %+v", got)
	}
	if got.Attrs[0] != (Attr{"classes", 5}) || got.Attrs[1] != (Attr{"gen", 2}) {
		t.Fatalf("attrs %+v (third annotation must be dropped)", got.Attrs)
	}
	if got.Start >= got.End {
		t.Fatalf("span times %d..%d", got.Start, got.End)
	}
	rootSpan := s.Span(int(root))
	if rootSpan.End <= got.End {
		t.Fatal("root ended before its child")
	}
}

func TestSpansDropWhenFull(t *testing.T) {
	s := NewSpans(2)
	a := s.Start("a", NoSpan)
	b := s.Start("b", a)
	c := s.Start("c", b)
	if a == NoSpan || b == NoSpan {
		t.Fatal("capacity-covered spans dropped")
	}
	if c != NoSpan {
		t.Fatalf("overflow span got id %d", c)
	}
	if s.Len() != 2 || s.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 2/1", s.Len(), s.Dropped())
	}
	s.End(c) // harmless
	s.Annotate(c, "", 0)
	s.Reset(9)
	if s.Len() != 0 || s.Dropped() != 0 || s.ID != 9 {
		t.Fatal("Reset did not re-arm")
	}
}

// TestSpansChromeTraceGolden pins the exporter byte-for-byte on a
// fixed clock: the process label, complete slices with µs timestamps
// on thread 0, and parent/attr args.
func TestSpansChromeTraceGolden(t *testing.T) {
	s := NewSpans(8)
	s.now = fixedClock(2000)             // 2 µs per clock read
	s.Reset(42)                          // epoch = 2000
	root := s.Start("request", NoSpan)   // start 2000
	enc := s.Start("encode", root)       // start 4000
	s.End(enc)                           // end 6000
	search := s.Start("am.search", root) // start 8000
	s.Annotate(search, "classes", 5)
	s.End(search) // end 10000
	s.End(root)   // end 12000

	tl := NewTimelines(4, 8)
	tl.Release(s)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"request 42"}},` +
		`{"name":"request","ph":"X","ts":2,"dur":10,"pid":1,"tid":0,"cat":"request","args":{"parent":-1,"span":0}},` +
		`{"name":"encode","ph":"X","ts":4,"dur":2,"pid":1,"tid":0,"cat":"request","args":{"parent":0,"span":1}},` +
		`{"name":"am.search","ph":"X","ts":8,"dur":2,"pid":1,"tid":0,"cat":"request","args":{"classes":5,"parent":0,"span":2}}` +
		`],"displayTimeUnit":"ns"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestTimelinesRingRecycles(t *testing.T) {
	tl := NewTimelines(2, 4)
	var first *Spans
	for i := uint64(1); i <= 5; i++ {
		s := tl.Acquire(i)
		if i == 1 {
			first = s
		}
		s.Start("r", NoSpan)
		tl.Release(s)
	}
	if tl.Requests() != 2 {
		t.Fatalf("ring holds %d, want 2", tl.Requests())
	}
	held := tl.snapshot()
	if held[0].ID != 4 || held[1].ID != 5 {
		t.Fatalf("ring holds ids %d,%d; want oldest-first 4,5", held[0].ID, held[1].ID)
	}
	// The recorder evicted first (request 1's) must have been recycled
	// by a later Acquire instead of thrown away: it is the one that
	// came back for request 4, sitting in the ring now.
	if held[0] != first {
		t.Error("evicted recorder was never recycled")
	}
	if held[0].Len() != 1 {
		t.Fatalf("recycled recorder kept %d spans across Reset", held[0].Len())
	}
}

// TestTimelinesRecycleDistinct pins the recycle discipline concurrent
// handlers depend on: a recorder is never simultaneously live in two
// places — every Acquire hands out
// a recorder distinct from every other outstanding one and from every
// recorder held in the done ring.
func TestTimelinesRecycleDistinct(t *testing.T) {
	tl := NewTimelines(3, 4)
	live := map[*Spans]bool{}
	var out []*Spans
	for i := uint64(1); i <= 6; i++ {
		s := tl.Acquire(i)
		if live[s] {
			t.Fatalf("Acquire(%d) returned a recorder already outstanding", i)
		}
		live[s] = true
		out = append(out, s)
	}
	for _, s := range out {
		tl.Release(s)
	}
	// 6 released into keep=3: 3 in the ring, 3 recycled to the free
	// list. Re-acquiring must hand back only free-list recorders, never
	// one the ring still exports.
	held := map[*Spans]bool{}
	for _, s := range tl.snapshot() {
		held[s] = true
	}
	for i := uint64(10); i < 13; i++ {
		s := tl.Acquire(i)
		if held[s] {
			t.Fatalf("Acquire(%d) returned a recorder still held in the done ring", i)
		}
	}
}

// TestSpansConcurrentStart hammers slot reservation from many
// goroutines: every non-dropped id is unique and the drop accounting
// adds up.
func TestSpansConcurrentStart(t *testing.T) {
	const goroutines, each = 8, 50
	s := NewSpans(100) // less than goroutines*each: forces drops
	var wg sync.WaitGroup
	ids := make([][]SpanID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := s.Start("s", NoSpan)
				if id != NoSpan {
					s.Annotate(id, "i", int64(i))
					s.End(id)
					ids[g] = append(ids[g], id)
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[SpanID]bool{}
	total := 0
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("span id %d handed out twice", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != s.Len() {
		t.Fatalf("recorded %d spans, Len() = %d", total, s.Len())
	}
	if s.Len()+s.Dropped() != goroutines*each {
		t.Fatalf("Len+Dropped = %d, want %d", s.Len()+s.Dropped(), goroutines*each)
	}
}
