package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus is a strict text-format (0.0.4) parser covering the
// subset the registry emits: # HELP / # TYPE lines and samples with an
// optional {k="v",...} label set. It unescapes HELP text and label
// values, so a write→parse cycle must hand back the original strings.
func parsePrometheus(t *testing.T, text string) (samples []promSample, help map[string]string, types map[string]string) {
	t.Helper()
	help, types = map[string]string{}, map[string]string{}
	unescapeHelp := strings.NewReplacer(`\\`, `\`, `\n`, "\n")
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			help[name] = unescapeHelp.Replace(text)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: TYPE %s declared twice", ln+1, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment: %q", ln+1, line)
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.name = rest[:i]
			rest = rest[i+1:]
			for {
				eq := strings.IndexByte(rest, '=')
				if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
					t.Fatalf("line %d: malformed label in %q", ln+1, line)
				}
				key := rest[:eq]
				rest = rest[eq+2:]
				var val strings.Builder
				i := 0
				for ; i < len(rest); i++ {
					if rest[i] == '\\' {
						i++
						if i >= len(rest) {
							t.Fatalf("line %d: dangling escape", ln+1)
						}
						switch rest[i] {
						case '\\':
							val.WriteByte('\\')
						case '"':
							val.WriteByte('"')
						case 'n':
							val.WriteByte('\n')
						default:
							t.Fatalf("line %d: bad escape \\%c", ln+1, rest[i])
						}
						continue
					}
					if rest[i] == '"' {
						break
					}
					val.WriteByte(rest[i])
				}
				if i >= len(rest) {
					t.Fatalf("line %d: unterminated label value", ln+1)
				}
				s.labels[key] = val.String()
				rest = rest[i+1:]
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if strings.HasPrefix(rest, "} ") {
					rest = rest[2:]
					break
				}
				t.Fatalf("line %d: malformed label set in %q", ln+1, line)
			}
		} else {
			name, after, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: sample without value: %q", ln+1, line)
			}
			s.name, rest = name, after
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, rest, err)
		}
		s.value = v
		samples = append(samples, s)
	}
	return samples, help, types
}

// TestPrometheusRoundTrip scrapes a fully populated host registry and
// re-parses the exposition: every line must conform, every registered
// metric must appear under a TYPE, histograms must keep their
// cumulative-bucket invariant, and hostile label values and HELP text
// must survive the escape/unescape cycle byte-for-byte.
func TestPrometheusRoundTrip(t *testing.T) {
	h := NewHostMetrics()
	RegisterRuntimeMetrics(h.Registry)

	// Populate everything, including hostile label values.
	h.Inference.RecordPredict(300 * time.Nanosecond)
	h.Inference.RecordStages(time.Microsecond, 2*time.Microsecond)
	hostile := "cl\\ass\n\"A\""
	h.Serving.RecordPublish(time.Microsecond)
	h.Serving.RecordRequest(true)
	var plain Gauge
	plain.Set(4096)
	h.Registry.RegisterGauge("pulphd_test_bytes", "a plain gauge family", &plain)
	labelled := NewGaugeVec("model")
	labelled.With("emg").Set(875)
	h.Registry.RegisterGaugeVec("pulphd_test_permille", "a labelled gauge family", labelled)
	h.Models.RecordOp("emg", "learn")
	h.Models.RecordOp(hostile, hostile)
	h.Models.RecordWALAppend()
	h.Models.RecordSnapshot(time.Millisecond)
	h.Models.RecordEviction()
	h.Models.RecordFaultIn(3, 2*time.Millisecond)
	h.Models.RecordWALFsync(500 * time.Microsecond)
	h.Registry.RegisterGaugeVecFunc("pulphd_model_slo_test_milli", "scrape-time labeled gauges", "model",
		func() []GaugeCell {
			return []GaugeCell{{Value: hostile, Gauge: 1500}, {Value: "emg", Gauge: 250}}
		})

	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, help, types := parsePrometheus(t, buf.String())

	// Every registered name appears with a TYPE; histogram series use
	// the _bucket/_sum/_count suffixes of their family.
	byName := map[string][]promSample{}
	for _, s := range samples {
		family := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.name, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("sample %s has no TYPE line", s.name)
		}
		byName[family] = append(byName[family], s)
	}
	for _, name := range h.Registry.sortedNames() {
		if len(byName[name]) == 0 {
			t.Errorf("registered metric %s missing from exposition", name)
		}
		if help[name] == "" {
			t.Errorf("registered metric %s has no HELP", name)
		}
	}

	// The hostile two-label counter cell survived the round trip.
	found := false
	for _, s := range byName["pulphd_model_requests_total"] {
		if s.labels["model"] == hostile && s.labels["op"] == hostile {
			found = true
			if s.value != 1 {
				t.Errorf("hostile cell value %v, want 1", s.value)
			}
		}
	}
	if !found {
		t.Errorf("hostile label value did not survive the round trip:\n%s", buf.String())
	}

	// Histogram invariants: le bounds strictly increase, counts are
	// cumulative and end at +Inf == _count.
	for family, kind := range types {
		if kind != "histogram" {
			continue
		}
		var prevLE, prevCum float64
		var lastCum, count float64
		buckets := 0
		first := true
		for _, s := range byName[family] {
			switch s.name {
			case family + "_bucket":
				le := s.labels["le"]
				var bound float64
				if le == "+Inf" {
					bound = float64(1 << 62)
				} else {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("%s: bad le %q", family, le)
					}
					bound = b
				}
				if !first && (bound <= prevLE || s.value < prevCum) {
					t.Errorf("%s: bucket le=%s not cumulative/increasing", family, le)
				}
				prevLE, prevCum, lastCum = bound, s.value, s.value
				first = false
				buckets++
			case family + "_count":
				count = s.value
			}
		}
		if buckets != HistogramBuckets {
			t.Errorf("%s: %d buckets, want %d", family, buckets, HistogramBuckets)
		}
		if lastCum != count {
			t.Errorf("%s: +Inf bucket %v != count %v", family, lastCum, count)
		}
	}

	// The registry-lifecycle seconds histograms: typed histogram, bounds
	// rendered in seconds (the first le is well under a second), and the
	// recorded durations land in _sum at seconds scale.
	wantSum := map[string]float64{
		"pulphd_registry_wal_fsync_seconds": 500e-6,
		"pulphd_registry_faultin_seconds":   2e-3,
	}
	for family, recorded := range wantSum {
		if types[family] != "histogram" {
			t.Errorf("%s: TYPE %q, want histogram", family, types[family])
		}
		var sum, count float64
		firstLE := -1.0
		for _, s := range byName[family] {
			switch s.name {
			case family + "_sum":
				sum = s.value
			case family + "_count":
				count = s.value
			case family + "_bucket":
				if firstLE < 0 && s.labels["le"] != "+Inf" {
					b, err := strconv.ParseFloat(s.labels["le"], 64)
					if err != nil {
						t.Fatalf("%s: bad le %q", family, s.labels["le"])
					}
					firstLE = b
				}
			}
		}
		if count != 1 {
			t.Errorf("%s: count %v, want 1", family, count)
		}
		if sum < recorded*0.999 || sum > recorded*1.001 {
			t.Errorf("%s: sum %v, want ~%v (seconds scale)", family, sum, recorded)
		}
		if firstLE <= 0 || firstLE >= 1 {
			t.Errorf("%s: first le %v, want a sub-second bound", family, firstLE)
		}
	}

	// The scrape-time gauge-vec-func family renders labeled cells, with
	// hostile label values escaped and recovered.
	cells := map[string]float64{}
	for _, s := range byName["pulphd_model_slo_test_milli"] {
		cells[s.labels["model"]] = s.value
	}
	if types["pulphd_model_slo_test_milli"] != "gauge" {
		t.Errorf("gauge-vec-func TYPE %q, want gauge", types["pulphd_model_slo_test_milli"])
	}
	if cells[hostile] != 1500 || cells["emg"] != 250 {
		t.Errorf("gauge-vec-func cells %+v", cells)
	}

	// HELP escaping round-trips through the parser (registry HELP text
	// is plain today; pin the escaper directly on hostile input).
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("escapeHelp = %q", got)
	}
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}

	// Content type is the 0.0.4 text exposition.
	if PrometheusContentType != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", PrometheusContentType)
	}

	// The gauges exposed what was recorded: a plain gauge, one cell of
	// a labelled gauge, and a scrape-time runtime gauge func.
	want := map[string]float64{
		"pulphd_test_bytes":    4096,
		"pulphd_test_permille": 875,
	}
	for name, v := range want {
		ss := byName[name]
		if len(ss) != 1 || ss[0].value != v {
			t.Errorf("%s = %+v, want %v", name, ss, v)
		}
	}
	if ss := byName["pulphd_go_goroutines"]; len(ss) != 1 || ss[0].value < 1 {
		t.Errorf("pulphd_go_goroutines = %+v, want one sample ≥ 1", ss)
	}
}

// TestDriftMonitor pins the rolling-window arithmetic, including wrap.
func TestDriftMonitor(t *testing.T) {
	d := new(DriftMonitor)
	if d.RollingAccuracyPermille() != -1 {
		t.Fatal("empty monitor should report -1 (no signal)")
	}
	d.RecordFeedback("a", "a")
	d.RecordFeedback("a", "b")
	if got := d.RollingAccuracyPermille(); got != 500 {
		t.Fatalf("rolling accuracy %d, want 500", got)
	}
	// Fill a whole window with agreements: the early miss ages out.
	for i := 0; i < driftWindow; i++ {
		d.RecordFeedback("x", "x")
	}
	if got := d.RollingAccuracyPermille(); got != 1000 {
		t.Fatalf("rolling accuracy after wrap %d, want 1000", got)
	}

	// Nil monitor: every method is a no-op.
	var nd *DriftMonitor
	nd.RecordFeedback("a", "b")
	if nd.RollingAccuracyPermille() != -1 {
		t.Fatal("nil monitor reports state")
	}
}

// TestCounterVec pins cell identity and sorted snapshots.
func TestCounterVec(t *testing.T) {
	v := NewCounterVec("predicted", "actual")
	if n1, n2 := v.LabelNames(); n1 != "predicted" || n2 != "actual" {
		t.Fatalf("label names %q,%q", n1, n2)
	}
	c := v.With("b", "b")
	c.Inc()
	if v.With("b", "b") != c {
		t.Fatal("With returned a different counter for the same labels")
	}
	v.With("a", "z").Add(2)
	snap := v.Snapshot()
	if len(snap) != 2 || snap[0].Values != [2]string{"a", "z"} || snap[1].Count != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	var nv *CounterVec
	nv.With("x", "y").Inc() // nil family hands out nil counters
	if nv.Snapshot() != nil {
		t.Fatal("nil family has cells")
	}
}

// TestRuntimeMetricsRegister checks the runtime gauges register and
// produce sane values (goroutines ≥ 1, heap goal > 0).
func TestRuntimeMetricsRegister(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	snap := r.Snapshot()
	if g, ok := snap["pulphd_go_goroutines"].(int64); !ok || g < 1 {
		t.Errorf("goroutines gauge = %v", snap["pulphd_go_goroutines"])
	}
	if g, ok := snap["pulphd_go_heap_goal_bytes"].(int64); !ok || g <= 0 {
		t.Errorf("heap goal gauge = %v", snap["pulphd_go_heap_goal_bytes"])
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pulphd_go_goroutines", "pulphd_go_heap_objects_bytes", "pulphd_go_gc_cycles", "pulphd_go_gc_pause_cpu_ns"} {
		if !strings.Contains(buf.String(), fmt.Sprintf("# TYPE %s gauge", name)) {
			t.Errorf("exposition lacks %s", name)
		}
	}
}
