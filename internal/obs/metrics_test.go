package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilSafety pins the central contract: every metric type and
// domain bundle is a no-op through a nil pointer — instrumented hot
// paths must never have to check for enablement beyond that.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	h.ObserveNanos(42)
	if s := h.Snapshot(); s.Count != 0 || s.SumNs != 0 {
		t.Fatal("nil histogram holds observations")
	}
	var im *InferenceMetrics
	im.RecordPredict(time.Millisecond)
	im.RecordStages(time.Millisecond, time.Millisecond)
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var svm *ServingMetrics
	svm.RecordPublish(time.Millisecond)
	svm.RecordRequest(true)
	svm.RecordRequest(false)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge %d, want 42", got)
	}
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge %d after Set, want 5", got)
	}
}

func TestServingMetrics(t *testing.T) {
	var m ServingMetrics
	m.RecordPublish(time.Millisecond)
	m.RecordRequest(true)
	m.RecordRequest(true)
	m.RecordRequest(false)
	if m.Learns.Value() != 1 || m.LearnNanos.Snapshot().Count != 1 {
		t.Fatalf("learns %d, latency count %d, want 1 and 1", m.Learns.Value(), m.LearnNanos.Snapshot().Count)
	}
	if m.Requests.Value() != 3 || m.Rejected.Value() != 1 {
		t.Fatalf("requests/rejected %d/%d, want 3/1 (Requests counts rejected too)", m.Requests.Value(), m.Rejected.Value())
	}
}

// TestHistogramSnapshotConsistentUnderWrites hammers a histogram from
// writer goroutines while snapshotting it: every snapshot must satisfy
// the structural invariant Σ Counts == Count (the cumulative +Inf
// bucket the Prometheus exposition derives), whatever instant it was
// taken at. Run with -race this also proves the export path is
// data-race-free against concurrent updates.
func TestHistogramSnapshotConsistentUnderWrites(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			ns := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveNanos(ns)
				ns = ns*1664525 + 1013904223
				if ns < 0 {
					ns = -ns
				}
			}
		}(int64(w + 1))
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d inconsistent: Σcounts=%d Count=%d", i, sum, s.Count)
		}
	}
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {255, 0}, {256, 1}, {511, 1}, {512, 2},
		{1 << 20, 13}, {1 << 62, HistogramBuckets - 1}, {-5, 0},
	}
	for _, tc := range cases {
		var one Histogram
		one.ObserveNanos(tc.ns)
		if got := one.Snapshot().Counts; got[tc.bucket] != 1 {
			t.Errorf("%d ns exports to %v, want bucket %d", tc.ns, got, tc.bucket)
		}
		h.ObserveNanos(tc.ns)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	// Bounds are monotone and the last is +Inf.
	prev := int64(-1)
	for i := 0; i < HistogramBuckets-1; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %d not increasing", i, b)
		}
		prev = b
	}
	if BucketBound(HistogramBuckets-1) != -1 {
		t.Fatal("last bucket is not +Inf")
	}
	if m := s.Mean(); m <= 0 {
		t.Fatalf("mean %f", m)
	}
}

// TestObserveAllocationFree pins the hot-path contract: recording
// into live metrics allocates nothing.
func TestObserveAllocationFree(t *testing.T) {
	h := NewHostMetrics()
	allocs := testing.AllocsPerRun(100, func() {
		h.Inference.RecordPredict(1500 * time.Nanosecond)
		h.Inference.RecordStages(time.Microsecond, 2*time.Microsecond)
		h.Serving.RecordRequest(true)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %v times per run, want 0", allocs)
	}
}

func TestPrometheusExposition(t *testing.T) {
	h := NewHostMetrics()
	h.Inference.RecordPredict(1500 * time.Nanosecond)
	h.Serving.RecordPublish(time.Microsecond)
	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pulphd_predict_total counter",
		"pulphd_predict_total 1",
		"pulphd_serving_learns_total 1",
		"# TYPE pulphd_predict_latency_ns histogram",
		`pulphd_predict_latency_ns_bucket{le="+Inf"} 1`,
		"pulphd_predict_latency_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Histogram bucket counts must be cumulative: the +Inf bucket of
	// the learn histogram equals its count.
	if !strings.Contains(out, `pulphd_serving_learn_latency_ns_bucket{le="+Inf"} 1`) {
		t.Error("learn histogram +Inf bucket is not cumulative")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("x_total", "", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterCounter("x_total", "", &c)
}

func TestSnapshotAndExpvar(t *testing.T) {
	h := NewHostMetrics()
	h.Serving.RecordPublish(2 * time.Millisecond)
	snap := h.Registry.Snapshot()
	if got := snap["pulphd_serving_learns_total"]; got != int64(1) {
		t.Fatalf("snapshot learns %v", got)
	}
	hist, ok := snap["pulphd_serving_learn_latency_ns"].(map[string]any)
	if !ok || hist["count"] != int64(1) {
		t.Fatalf("snapshot histogram %v", snap["pulphd_serving_learn_latency_ns"])
	}
	// Publishing twice under one name must not panic.
	h.Registry.PublishExpvar("pulphd_test_metrics")
	h.Registry.PublishExpvar("pulphd_test_metrics")
	if len(h.Registry.sortedNames()) < 10 {
		t.Fatalf("registry holds %d names", len(h.Registry.sortedNames()))
	}
}
