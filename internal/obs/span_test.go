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

	var buf bytes.Buffer
	evs := AppendSpanEvents(nil, 1, "request 42", "request", s.spans[:s.Len()], nil)
	if err := EncodeChromeTrace(&buf, evs); err != nil {
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

// BenchmarkSpansStartEnd times one span's Start and End, two reads
// of the span clock; a traced predict pays four such pairs plus the
// recorder's Reset. The recorder is re-armed every 64 spans, as each
// request re-arms its own.
func BenchmarkSpansStartEnd(b *testing.B) {
	s := NewSpans(64)
	b.ReportAllocs()
	for i := range b.N {
		if i%64 == 0 {
			s.Reset(uint64(i))
		}
		s.End(s.Start("encode", NoSpan))
	}
}
