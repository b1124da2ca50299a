// Package slo is the per-tenant service-level-objective engine of the
// serving tier. Each registry model gets a Tracker holding its latency
// and error objectives, an obs.Histogram of its request latencies (the
// p50/p99/p999 of its Status), and a ring of coarse 10-second buckets
// that two sliding windows — fast (5 m) and slow (1 h) — are summed
// from at read time. Burn rate is the classic multi-window
// formulation: the fraction of the error budget consumed per unit
// budget (bad-event fraction ÷ budget), and a breach fires only when
// BOTH windows burn above the threshold, so short blips and long slow
// leaks are separated from pageable incidents.
//
// The record path is built for the serving hot loop: one RLock'd map
// lookup, a handful of atomic adds, no allocation. Breach evaluation
// is throttled (CheckEvery, default 1 s) so its window sums and the
// OnBreach callback stay off the per-request path. Burn rates and
// breaches need only the window sums; the latency quantiles, which
// scan the whole histogram, are computed only for Status and for a
// breach that fires.
package slo

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/obs"
)

// BucketSeconds is the ring-bucket width. Window sums see request
// counts at this granularity; finer would cost ring size, coarser
// would blur the fast window.
const BucketSeconds = 10

// Bucket counts per window: the slow 1-hour window is the whole ring,
// the fast 5-minute window its most recent slice.
const (
	slowBuckets = 3600 / BucketSeconds
	fastBuckets = 300 / BucketSeconds
)

// FastWindow and SlowWindow are the two burn-rate windows.
const (
	FastWindow = fastBuckets * BucketSeconds * time.Second
	SlowWindow = slowBuckets * BucketSeconds * time.Second
)

// Objective is one model's service-level objective: LatencyTarget of
// requests must finish within Latency, and at most ErrorBudget of them
// may fail. A zero Latency (or a target outside (0,1)) disables the
// latency objective; a non-positive ErrorBudget disables the error
// objective.
type Objective struct {
	Latency       time.Duration
	LatencyTarget float64
	ErrorBudget   float64
}

// latencyBudget returns the allowed slow-request fraction, 0 when the
// latency objective is disabled.
func (o Objective) latencyBudget() float64 {
	if o.Latency <= 0 || o.LatencyTarget <= 0 || o.LatencyTarget >= 1 {
		return 0
	}
	return 1 - o.LatencyTarget
}

// bucket is one 10-second counting slot. stamp holds epoch+1 (0 means
// never written); a recorder landing in a recycled slot CASes the
// stamp forward and zeroes the counts. The reset is approximate under
// contention — a racing add can land before the zeroing — which is
// fine for burn rates over hundreds of events and keeps the path
// lock-free.
type bucket struct {
	stamp atomic.Int64
	reqs  atomic.Int64
	errs  atomic.Int64
	slow  atomic.Int64
}

// Tracker accumulates one model's SLO state.
type Tracker struct {
	obj        atomic.Pointer[Objective]
	buckets    [slowBuckets]bucket
	lat        obs.Histogram
	totalReqs  atomic.Int64
	totalErrs  atomic.Int64
	lastCheck  atomic.Int64 // unix nanos of the last breach evaluation
	lastBreach atomic.Int64 // unix nanos of the last fired breach
	breaches   atomic.Int64
	breached   atomic.Bool // latched by the evaluator until burn clears
}

// Window is one computed burn-rate window.
type Window struct {
	Seconds     int64   `json:"seconds"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Slow        int64   `json:"slow"`
	ErrorBurn   float64 `json:"error_burn"`
	LatencyBurn float64 `json:"latency_burn"`
	Burn        float64 `json:"burn"`
}

// ObjectiveJSON is the wire form of an Objective.
type ObjectiveJSON struct {
	LatencyMs     float64 `json:"latency_ms"`
	LatencyTarget float64 `json:"latency_target"`
	ErrorBudget   float64 `json:"error_budget"`
}

// Status is one model's full SLO state — the GET /models/{name}/slo
// payload.
type Status struct {
	Model            string        `json:"model"`
	Objective        ObjectiveJSON `json:"objective"`
	BurnThreshold    float64       `json:"burn_threshold"`
	Fast             Window        `json:"fast_5m"`
	Slow             Window        `json:"slow_1h"`
	Breached         bool          `json:"breached"`
	Breaches         int64         `json:"breaches_total"`
	LastBreachUnixNs int64         `json:"last_breach_unix_ns,omitempty"`
	TotalRequests    int64         `json:"requests_total"`
	TotalErrors      int64         `json:"errors_total"`
	P50Ms            float64       `json:"p50_ms"`
	P99Ms            float64       `json:"p99_ms"`
	P999Ms           float64       `json:"p999_ms"`
}

// Config parameterizes an Engine. The zero value gets sane defaults
// from New.
type Config struct {
	// Default is the objective models start with until SetObjective
	// overrides them.
	Default Objective
	// BurnThreshold is the burn rate both windows must exceed to count
	// as a breach (default 2: burning the budget at twice the rate that
	// exactly exhausts it over the window).
	BurnThreshold float64
	// MinEvents gates breaches on the fast window holding at least this
	// many requests, so a single early failure cannot page (default 10).
	MinEvents int64
	// CheckEvery throttles breach evaluation per model (default 1 s;
	// negative means evaluate on every Record — tests only).
	CheckEvery time.Duration
	// Cooldown is the minimum gap between OnBreach firings per model
	// (default 1 m).
	Cooldown time.Duration
	// Now is the unix-nano clock, swappable in tests.
	Now func() int64
	// OnBreach fires (outside any engine lock) when a model's burn rate
	// crosses BurnThreshold in both windows.
	OnBreach func(model string, st Status)
}

// Engine tracks SLO state for every model that has recorded traffic.
// All methods are safe for concurrent use and nil-safe, so a server
// built without an engine records nothing.
type Engine struct {
	cfg      Config
	checkGap int64 // CheckEvery in nanos, 0 = every Record
	mu       sync.RWMutex
	trackers map[string]*Tracker
}

// New returns an engine with defaults filled in.
func New(cfg Config) *Engine {
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 2
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 10
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = time.Second
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	e := &Engine{cfg: cfg, trackers: map[string]*Tracker{}}
	if cfg.CheckEvery > 0 {
		e.checkGap = cfg.CheckEvery.Nanoseconds()
	}
	return e
}

// tracker returns the model's tracker, creating it on first use.
func (e *Engine) tracker(model string) *Tracker {
	e.mu.RLock()
	t := e.trackers[model]
	e.mu.RUnlock()
	if t != nil {
		return t
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t = e.trackers[model]; t == nil {
		t = &Tracker{}
		obj := e.cfg.Default
		t.obj.Store(&obj)
		e.trackers[model] = t
	}
	return t
}

// Record folds one finished request into the model's SLO state. The
// non-breach path is allocation-free after the model's first request.
func (e *Engine) Record(model string, dur time.Duration, failed bool) {
	if e == nil {
		return
	}
	t := e.tracker(model)
	obj := *t.obj.Load()
	now := e.cfg.Now()
	epoch := now / (BucketSeconds * 1e9)
	b := &t.buckets[epoch%slowBuckets]
	stamp := epoch + 1
	if s := b.stamp.Load(); s != stamp && b.stamp.CompareAndSwap(s, stamp) {
		b.reqs.Store(0)
		b.errs.Store(0)
		b.slow.Store(0)
	}
	b.reqs.Add(1)
	t.totalReqs.Add(1)
	if failed {
		b.errs.Add(1)
		t.totalErrs.Add(1)
	}
	if obj.Latency > 0 && dur > obj.Latency {
		b.slow.Add(1)
	}
	t.lat.Observe(dur)
	e.maybeCheck(model, t, now, epoch)
}

// maybeCheck runs the throttled breach evaluation from the window
// sums; a breach that fires hands OnBreach the full Status.
func (e *Engine) maybeCheck(model string, t *Tracker, now, epoch int64) {
	last := t.lastCheck.Load()
	if now-last < e.checkGap {
		return
	}
	if !t.lastCheck.CompareAndSwap(last, now) {
		return
	}
	st := e.status(model, t, epoch)
	over := st.Fast.Burn >= e.cfg.BurnThreshold &&
		st.Slow.Burn >= e.cfg.BurnThreshold &&
		st.Fast.Requests >= e.cfg.MinEvents
	t.breached.Store(over)
	if !over || e.cfg.OnBreach == nil {
		return
	}
	lastFire := t.lastBreach.Load()
	if now-lastFire < e.cfg.Cooldown.Nanoseconds() || !t.lastBreach.CompareAndSwap(lastFire, now) {
		return
	}
	t.breaches.Add(1)
	st.Breaches = t.breaches.Load()
	st.LastBreachUnixNs = now
	st.Breached = true
	e.cfg.OnBreach(model, t.withQuantiles(st))
}

// window sums the ring buckets whose epoch falls inside the last n
// buckets ending at epoch, and derives burn rates against obj.
func (t *Tracker) window(epoch int64, n int, obj Objective) Window {
	w := Window{Seconds: int64(n) * BucketSeconds}
	min := epoch - int64(n) + 1
	for i := range t.buckets {
		b := &t.buckets[i]
		s := b.stamp.Load()
		if s == 0 {
			continue
		}
		if e := s - 1; e < min || e > epoch {
			continue
		}
		w.Requests += b.reqs.Load()
		w.Errors += b.errs.Load()
		w.Slow += b.slow.Load()
	}
	if w.Requests > 0 {
		if obj.ErrorBudget > 0 {
			w.ErrorBurn = float64(w.Errors) / float64(w.Requests) / obj.ErrorBudget
		}
		if lb := obj.latencyBudget(); lb > 0 {
			w.LatencyBurn = float64(w.Slow) / float64(w.Requests) / lb
		}
	}
	w.Burn = w.ErrorBurn
	if w.LatencyBurn > w.Burn {
		w.Burn = w.LatencyBurn
	}
	return w
}

// status computes a model's Status at the given epoch from its window
// sums, without the latency quantiles.
func (e *Engine) status(model string, t *Tracker, epoch int64) Status {
	obj := *t.obj.Load()
	return Status{
		Model: model,
		Objective: ObjectiveJSON{
			LatencyMs:     float64(obj.Latency) / 1e6,
			LatencyTarget: obj.LatencyTarget,
			ErrorBudget:   obj.ErrorBudget,
		},
		BurnThreshold:    e.cfg.BurnThreshold,
		Fast:             t.window(epoch, fastBuckets, obj),
		Slow:             t.window(epoch, slowBuckets, obj),
		Breached:         t.breached.Load(),
		Breaches:         t.breaches.Load(),
		LastBreachUnixNs: t.lastBreach.Load(),
		TotalRequests:    t.totalReqs.Load(),
		TotalErrors:      t.totalErrs.Load(),
	}
}

// withQuantiles adds the latency quantiles of t's histogram to st; a
// nil t (no recorded traffic) leaves them zero.
func (t *Tracker) withQuantiles(st Status) Status {
	if t != nil {
		st.P50Ms = float64(t.lat.Quantile(0.50)) / 1e6
		st.P99Ms = float64(t.lat.Quantile(0.99)) / 1e6
		st.P999Ms = float64(t.lat.Quantile(0.999)) / 1e6
	}
	return st
}

// Status returns the model's current SLO state. A model with no
// recorded traffic reports the default objective and empty windows.
func (e *Engine) Status(model string) Status {
	if e == nil {
		return Status{Model: model}
	}
	st, t := e.lookup(model)
	return t.withQuantiles(st)
}

// lookup returns the model's Status without the latency quantiles,
// and its tracker (nil for a model with no recorded traffic).
func (e *Engine) lookup(model string) (Status, *Tracker) {
	e.mu.RLock()
	t := e.trackers[model]
	e.mu.RUnlock()
	now := e.cfg.Now()
	epoch := now / (BucketSeconds * 1e9)
	if t == nil {
		obj := e.cfg.Default
		return Status{
			Model: model,
			Objective: ObjectiveJSON{
				LatencyMs:     float64(obj.Latency) / 1e6,
				LatencyTarget: obj.LatencyTarget,
				ErrorBudget:   obj.ErrorBudget,
			},
			BurnThreshold: e.cfg.BurnThreshold,
			Fast:          Window{Seconds: fastBuckets * BucketSeconds},
			Slow:          Window{Seconds: slowBuckets * BucketSeconds},
		}, nil
	}
	return e.status(model, t, epoch), t
}

// StatusAll returns every tracked model's status, sorted by name,
// without the latency quantiles (Status computes those): the burn and
// breach state the pulphd_model_slo_* families export.
func (e *Engine) StatusAll() []Status {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	names := make([]string, 0, len(e.trackers))
	for name := range e.trackers {
		names = append(names, name)
	}
	e.mu.RUnlock()
	sort.Strings(names)
	out := make([]Status, 0, len(names))
	for _, name := range names {
		st, _ := e.lookup(name)
		out = append(out, st)
	}
	return out
}

// SetObjective overrides one model's objective (creating its tracker),
// the per-tenant half of "per-tenant objectives".
func (e *Engine) SetObjective(model string, obj Objective) {
	if e == nil {
		return
	}
	t := e.tracker(model)
	t.obj.Store(&obj)
}

// Objective returns the model's effective objective (the engine
// default when the model has no tracker yet).
func (e *Engine) Objective(model string) Objective {
	if e == nil {
		return Objective{}
	}
	e.mu.RLock()
	t := e.trackers[model]
	e.mu.RUnlock()
	if t == nil {
		return e.cfg.Default
	}
	return *t.obj.Load()
}

// SlowThreshold returns the model's latency objective — the per-model
// "slower than this pins the timeline" bound of the flight recorder.
// Zero when disabled or on a nil engine.
func (e *Engine) SlowThreshold(model string) time.Duration {
	if e == nil {
		return 0
	}
	e.mu.RLock()
	t := e.trackers[model]
	e.mu.RUnlock()
	if t == nil {
		return e.cfg.Default.Latency
	}
	return t.obj.Load().Latency
}

// Forget drops a deleted model's tracker so its series leave the
// exposition.
func (e *Engine) Forget(model string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	delete(e.trackers, model)
	e.mu.Unlock()
}

// burnCells renders one burn-rate gauge family; milli-units keep the
// registry's int64 gauge contract while preserving 3 decimals.
func (e *Engine) burnCells(fast bool) []obs.GaugeCell {
	out := make([]obs.GaugeCell, 0, 4)
	for _, st := range e.StatusAll() {
		burn := st.Slow.Burn
		if fast {
			burn = st.Fast.Burn
		}
		out = append(out, obs.GaugeCell{Value: st.Model, Gauge: int64(burn * 1000)})
	}
	return out
}

// RegisterMetrics exposes the engine as the pulphd_model_slo_* gauge
// families, computed at scrape time.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.RegisterGaugeVecFunc("pulphd_model_slo_burn_fast_milli",
		"5m-window SLO burn rate by model, in 1/1000 (1000 = burning exactly the budget)",
		"model", func() []obs.GaugeCell { return e.burnCells(true) })
	r.RegisterGaugeVecFunc("pulphd_model_slo_burn_slow_milli",
		"1h-window SLO burn rate by model, in 1/1000",
		"model", func() []obs.GaugeCell { return e.burnCells(false) })
	r.RegisterGaugeVecFunc("pulphd_model_slo_breached",
		"1 while the model's burn rate exceeds the threshold in both windows",
		"model", func() []obs.GaugeCell {
			out := make([]obs.GaugeCell, 0, 4)
			for _, st := range e.StatusAll() {
				v := int64(0)
				if st.Breached {
					v = 1
				}
				out = append(out, obs.GaugeCell{Value: st.Model, Gauge: v})
			}
			return out
		})
	r.RegisterGaugeVecFunc("pulphd_model_slo_breaches_total",
		"SLO burn-rate breaches fired by model since start",
		"model", func() []obs.GaugeCell {
			out := make([]obs.GaugeCell, 0, 4)
			for _, st := range e.StatusAll() {
				out = append(out, obs.GaugeCell{Value: st.Model, Gauge: st.Breaches})
			}
			return out
		})
}
