package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry binds named metrics for export. Registration is for setup
// time (it takes a lock and may allocate); reads happen on the export
// path only, so instrumented hot paths never touch the registry.
type Registry struct {
	mu            sync.Mutex
	counters      []namedCounter
	gauges        []namedGauge
	gaugeFuncs    []namedGaugeFunc
	vecs          []namedCounterVec
	gaugeVecs     []namedGaugeVec
	gaugeVecFuncs []namedGaugeVecFunc
	hists         []namedHistogram
	names         map[string]bool
}

type namedCounter struct {
	name, help string
	c          *Counter
}

type namedGauge struct {
	name, help string
	g          *Gauge
}

type namedGaugeFunc struct {
	name, help string
	fn         func() int64
}

type namedCounterVec struct {
	name, help string
	v          *CounterVec
}

type namedGaugeVec struct {
	name, help string
	v          *GaugeVec
}

// namedHistogram is one histogram family. Every Histogram observes
// nanoseconds; seconds families scale their bounds and sum on export.
type namedHistogram struct {
	name, help string
	h          *Histogram
	seconds    bool
}

// format renders a nanosecond bound or sum in the family's unit.
func (h namedHistogram) format(ns int64) string {
	if h.seconds {
		return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(ns, 10)
}

type namedGaugeVecFunc struct {
	name, help, label string
	fn                func() []GaugeCell
}

// escapeHelp escapes a HELP string for the Prometheus text exposition
// format (version 0.0.4): backslashes and line feeds.
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace

// escapeLabel escapes a label value: backslashes, double quotes and
// line feeds.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
}

// RegisterCounter exposes c under name (Prometheus convention:
// snake_case with a _total suffix for counters).
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.counters = append(r.counters, namedCounter{name, help, c})
}

// RegisterGauge exposes g under name (Prometheus convention: no
// _total suffix; gauges move both ways).
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gauges = append(r.gauges, namedGauge{name, help, g})
}

// RegisterGaugeFunc exposes fn as a gauge sampled at scrape time —
// the hook the runtime/metrics collector and the drift monitor hang
// their derived values on. fn must be safe for concurrent calls.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gaugeFuncs = append(r.gaugeFuncs, namedGaugeFunc{name, help, fn})
}

// RegisterCounterVec exposes the labelled counter family v under name.
func (r *Registry) RegisterCounterVec(name, help string, v *CounterVec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.vecs = append(r.vecs, namedCounterVec{name, help, v})
}

// RegisterGaugeVec exposes the labelled gauge family v under name —
// the per-model series of the model registry.
func (r *Registry) RegisterGaugeVec(name, help string, v *GaugeVec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gaugeVecs = append(r.gaugeVecs, namedGaugeVec{name, help, v})
}

// RegisterGaugeVecFunc exposes a labelled gauge family computed at
// scrape time — the hook the SLO engine's burn-rate families hang on.
// fn must be safe for concurrent calls; cells carry int64 values, so
// ratios are exported in milli/permille encodings.
func (r *Registry) RegisterGaugeVecFunc(name, help, label string, fn func() []GaugeCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gaugeVecFuncs = append(r.gaugeVecFuncs, namedGaugeVecFunc{name, help, label, fn})
}

// RegisterHistogram exposes h under name; bucket bounds are exported
// in nanoseconds (suffix the name _ns to keep the unit visible).
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.registerHistogram(namedHistogram{name, help, h, false})
}

// RegisterSecondsHistogram exposes h — which observes durations in
// nanoseconds like every obs.Histogram — with bucket bounds and sum
// scaled to seconds on export, so Prometheus-convention `_seconds`
// names carry their conventional unit.
func (r *Registry) RegisterSecondsHistogram(name, help string, h *Histogram) {
	r.registerHistogram(namedHistogram{name, help, h, true})
}

func (r *Registry) registerHistogram(h namedHistogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(h.name)
	r.hists = append(r.hists, h)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). HELP text and label values
// are escaped per the format, so arbitrary class labels (quotes,
// backslashes, line feeds) survive a parser round trip.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	writeHelp := func(name, help string) error {
		if help == "" {
			return nil
		}
		_, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
		return err
	}
	for _, c := range r.counters {
		if err := writeHelp(c.name, c.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.c.Value()); err != nil {
			return err
		}
	}
	for _, v := range r.vecs {
		if err := writeHelp(v.name, v.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", v.name); err != nil {
			return err
		}
		k1, k2 := v.v.LabelNames()
		for _, s := range v.v.Snapshot() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\",%s=\"%s\"} %d\n",
				v.name, k1, escapeLabel(s.Values[0]), k2, escapeLabel(s.Values[1]), s.Count); err != nil {
				return err
			}
		}
	}
	for _, g := range r.gauges {
		if err := writeHelp(g.name, g.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.g.Value()); err != nil {
			return err
		}
	}
	for _, g := range r.gaugeFuncs {
		if err := writeHelp(g.name, g.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.fn()); err != nil {
			return err
		}
	}
	for _, v := range r.gaugeVecs {
		if err := writeHelp(v.name, v.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", v.name); err != nil {
			return err
		}
		label := v.v.LabelName()
		for _, s := range v.v.Snapshot() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
				v.name, label, escapeLabel(s.Value), s.Gauge); err != nil {
				return err
			}
		}
	}
	for _, v := range r.gaugeVecFuncs {
		if err := writeHelp(v.name, v.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", v.name); err != nil {
			return err
		}
		for _, s := range v.fn() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
				v.name, v.label, escapeLabel(s.Value), s.Gauge); err != nil {
				return err
			}
		}
	}
	for _, h := range r.hists {
		if err := writeHelp(h.name, h.help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
			return err
		}
		s := h.h.Snapshot()
		cum := int64(0)
		for i, n := range s.Counts {
			cum += n
			le := "+Inf"
			if b := BucketBound(i); b >= 0 {
				le = h.format(b + 1)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, h.format(s.SumNs), h.name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the registry state as a plain map, the expvar
// payload.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.vecs)+len(r.hists))
	for _, c := range r.counters {
		out[c.name] = c.c.Value()
	}
	for _, g := range r.gauges {
		out[g.name] = g.g.Value()
	}
	for _, g := range r.gaugeFuncs {
		out[g.name] = g.fn()
	}
	for _, v := range r.vecs {
		cells := map[string]int64{}
		for _, s := range v.v.Snapshot() {
			cells[s.Values[0]+"/"+s.Values[1]] = s.Count
		}
		out[v.name] = cells
	}
	for _, v := range r.gaugeVecs {
		cells := map[string]int64{}
		for _, s := range v.v.Snapshot() {
			cells[s.Value] = s.Gauge
		}
		out[v.name] = cells
	}
	for _, v := range r.gaugeVecFuncs {
		cells := map[string]int64{}
		for _, s := range v.fn() {
			cells[s.Value] = s.Gauge
		}
		out[v.name] = cells
	}
	for _, h := range r.hists {
		s := h.h.Snapshot()
		out[h.name] = map[string]any{
			"count":   s.Count,
			"sum_ns":  s.SumNs,
			"mean_ns": s.Mean(),
		}
	}
	return out
}

// PublishExpvar publishes the registry under the given expvar name.
// Safe to call more than once (expvar forbids re-publishing a name;
// subsequent calls are no-ops).
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// PrometheusContentType is the exposition-format media type scrapers
// content-negotiate on (text format, version 0.0.4).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the Prometheus text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = r.WritePrometheus(w)
	})
}

// Names returns every registered metric name, sorted. It exists for
// coverage tooling — the operations-handbook test diffs this list
// against docs/OPERATIONS.md so no metric family ships undocumented.
func (r *Registry) Names() []string { return r.sortedNames() }

// sortedNames returns every registered metric name, for tests.
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.names))
	for n := range r.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HostMetrics is the metric set `pulphd serve` exports, registered
// under the canonical pulphd_* names (documented in
// docs/OPERATIONS.md §4). Wire it with hdc.SetMetrics(h.Inference) and
// hdc.SetServingMetrics(h.Serving); hand Models to the model registry.
type HostMetrics struct {
	Inference *InferenceMetrics
	Serving   *ServingMetrics
	// Models is the multi-tenant model-registry bundle (durability
	// counters, their latencies and the per-model operation counts);
	// hand it to registry.Config.Metrics.
	Models   *RegistryMetrics
	Registry *Registry
}

// NewHostMetrics builds the full host metric set.
func NewHostMetrics() *HostMetrics {
	h := &HostMetrics{
		Inference: &InferenceMetrics{},
		Serving:   &ServingMetrics{},
		Models:    NewRegistryMetrics(),
		Registry:  NewRegistry(),
	}
	r := h.Registry
	r.RegisterCounter("pulphd_predict_total", "Predict calls", &h.Inference.Predicts)
	r.RegisterHistogram("pulphd_predict_latency_ns", "Predict latency in nanoseconds", &h.Inference.PredictNanos)
	r.RegisterHistogram("pulphd_predict_encode_latency_ns", "per-request window-encode stage latency in nanoseconds", &h.Inference.EncodeNanos)
	r.RegisterHistogram("pulphd_predict_search_latency_ns", "per-request AM-search stage latency in nanoseconds", &h.Inference.SearchNanos)
	r.RegisterCounter("pulphd_serving_learns_total", "generation publications by Learn", &h.Serving.Learns)
	r.RegisterHistogram("pulphd_serving_learn_latency_ns", "Learn publish latency in nanoseconds", &h.Serving.LearnNanos)
	r.RegisterCounter("pulphd_serving_requests_total", "/predict and /learn requests, rejected ones included", &h.Serving.Requests)
	r.RegisterCounter("pulphd_serving_rejected_total", "/predict and /learn requests refused with a 4xx status, or 503 while draining", &h.Serving.Rejected)
	r.RegisterCounter("pulphd_serving_timeouts_total", "/predict requests answered 504 because their deadline passed or the client left first", &h.Serving.Timeouts)
	r.RegisterCounter("pulphd_serving_retries_total", "predict attempts retried after a recovered panic", &h.Serving.Retries)
	r.RegisterCounter("pulphd_serving_panics_recovered_total", "predict panics recovered instead of crashing the process", &h.Serving.PanicsRecovered)
	r.RegisterCounter("pulphd_registry_evictions_total", "models evicted to disk under the resident-bytes budget", &h.Models.Evictions)
	r.RegisterCounter("pulphd_registry_fault_ins_total", "cold models loaded back from snapshot + WAL on first request", &h.Models.FaultIns)
	r.RegisterCounter("pulphd_registry_wal_appends_total", "online learning records appended to per-model write-ahead logs", &h.Models.WALAppends)
	r.RegisterCounter("pulphd_registry_wal_replayed_records_total", "WAL records replayed onto snapshots during fault-in/recovery", &h.Models.WALReplayed)
	r.RegisterCounter("pulphd_registry_snapshots_total", "per-model snapshot writes", &h.Models.Snapshots)
	r.RegisterHistogram("pulphd_registry_snapshot_latency_ns", "per-model snapshot write latency in nanoseconds", &h.Models.SnapshotNanos)
	r.RegisterSecondsHistogram("pulphd_registry_wal_fsync_seconds", "fsync latency on durable WAL appends in seconds", &h.Models.WALFsyncNanos)
	r.RegisterSecondsHistogram("pulphd_registry_faultin_seconds", "cold-model fault-in latency (snapshot read + WAL replay) in seconds", &h.Models.FaultInNanos)
	r.RegisterCounterVec("pulphd_model_requests_total", "registry operations by (model, op)", h.Models.ModelRequests)
	return h
}
