package slo

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/obs"
)

// fakeClock is a settable unix-nano clock for deterministic windows.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) set(t time.Duration)     { c.ns.Store(int64(t)) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// newTestEngine builds an engine on a fake clock that evaluates
// breaches on every Record (CheckEvery < 0).
func newTestEngine(cfg Config, clk *fakeClock) *Engine {
	cfg.Now = clk.now
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = -1
	}
	return New(cfg)
}

// t0 places the clock well past epoch zero so bucket stamps are
// unambiguous and cooldown comparisons against 0 behave.
const t0 = 100 * time.Hour

func TestDefaultsFilled(t *testing.T) {
	e := New(Config{})
	if e.cfg.BurnThreshold != 2 || e.cfg.MinEvents != 10 ||
		e.cfg.CheckEvery != time.Second || e.cfg.Cooldown != time.Minute || e.cfg.Now == nil {
		t.Fatalf("defaults not filled: %+v", e.cfg)
	}
}

func TestStatusUntrackedModel(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{Default: Objective{Latency: 25 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01}}, clk)
	st := e.Status("ghost")
	if st.Model != "ghost" || st.Objective.LatencyMs != 25 || st.Objective.ErrorBudget != 0.01 {
		t.Fatalf("untracked status %+v", st)
	}
	if st.Fast.Requests != 0 || st.Fast.Seconds != 300 || st.Slow.Seconds != 3600 {
		t.Fatalf("untracked windows %+v / %+v", st.Fast, st.Slow)
	}
	if e.StatusAll() != nil && len(e.StatusAll()) != 0 {
		t.Fatalf("StatusAll before traffic: %v", e.StatusAll())
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.Record("m", time.Millisecond, true)
	e.SetObjective("m", Objective{})
	e.Forget("m")
	if e.SlowThreshold("m") != 0 || e.StatusAll() != nil {
		t.Fatal("nil engine leaked state")
	}
	if st := e.Status("m"); st.Model != "m" {
		t.Fatalf("nil engine status %+v", st)
	}
	if (e.Objective("m") != Objective{}) {
		t.Fatal("nil engine objective")
	}
}

// TestBurnRates pins the window sums and the error/latency burn math:
// burn = bad fraction ÷ budget, the window's burn the max of the two.
func TestBurnRates(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{
		Default: Objective{Latency: 10 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01},
	}, clk)
	for i := 0; i < 100; i++ {
		failed := i < 10        // 10% errors → error burn 10
		dur := time.Millisecond // fast
		if i < 20 {
			dur = 20 * time.Millisecond // 20% slow → latency burn 20
		}
		e.Record("emg", dur, failed)
	}
	st := e.Status("emg")
	if st.Fast.Requests != 100 || st.Fast.Errors != 10 || st.Fast.Slow != 20 {
		t.Fatalf("fast window %+v", st.Fast)
	}
	if st.Slow.Requests != 100 {
		t.Fatalf("slow window %+v", st.Slow)
	}
	approx := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
	if !approx(st.Fast.ErrorBurn, 10) || !approx(st.Fast.LatencyBurn, 20) || !approx(st.Fast.Burn, 20) {
		t.Fatalf("burns %+v", st.Fast)
	}
	if st.TotalRequests != 100 || st.TotalErrors != 10 {
		t.Fatalf("totals %d/%d", st.TotalRequests, st.TotalErrors)
	}
	// The latency histogram saw every duration: p50 near 1ms, p99 near 20ms.
	if st.P50Ms < 0.9 || st.P50Ms > 1.2 || st.P99Ms < 18 || st.P99Ms > 22 {
		t.Fatalf("quantiles p50=%v p99=%v", st.P50Ms, st.P99Ms)
	}
}

// TestWindowAging moves the clock: traffic older than 5 minutes leaves
// the fast window but stays in the slow one; past an hour it is gone
// from both (and its ring buckets recycle for new epochs).
func TestWindowAging(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{Default: Objective{ErrorBudget: 0.01}}, clk)
	for i := 0; i < 50; i++ {
		e.Record("emg", time.Millisecond, true)
	}
	clk.advance(6 * time.Minute)
	e.Record("emg", time.Millisecond, false)
	st := e.Status("emg")
	if st.Fast.Requests != 1 || st.Fast.Errors != 0 {
		t.Fatalf("fast window after 6m %+v", st.Fast)
	}
	if st.Slow.Requests != 51 || st.Slow.Errors != 50 {
		t.Fatalf("slow window after 6m %+v", st.Slow)
	}
	clk.advance(time.Hour + time.Minute)
	st = e.Status("emg")
	if st.Fast.Requests != 0 || st.Slow.Requests != 0 {
		t.Fatalf("windows after 1h+ %+v / %+v", st.Fast, st.Slow)
	}
	// A record landing in a recycled bucket zeroes the stale counts.
	e.Record("emg", time.Millisecond, false)
	st = e.Status("emg")
	if st.Slow.Requests != 1 || st.Slow.Errors != 0 {
		t.Fatalf("recycled bucket %+v", st.Slow)
	}
}

// TestBreachFireAndCooldown drives an error storm through the engine:
// the breach fires once when both windows burn over threshold with
// enough events, the cooldown suppresses re-fires, and the latch
// clears when the burn does.
func TestBreachFireAndCooldown(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	var fired []Status
	e := newTestEngine(Config{
		Default:       Objective{ErrorBudget: 0.01},
		BurnThreshold: 2,
		MinEvents:     10,
		Cooldown:      30 * time.Second,
		OnBreach: func(model string, st Status) {
			if model != "emg" {
				t.Errorf("breach model %q", model)
			}
			fired = append(fired, st)
		},
	}, clk)
	// 9 failures: burn is enormous but MinEvents gates the page.
	for i := 0; i < 9; i++ {
		e.Record("emg", time.Millisecond, true)
	}
	if len(fired) != 0 {
		t.Fatalf("breach fired under MinEvents: %d", len(fired))
	}
	// The 10th crosses the gate; the rest sit inside the cooldown.
	for i := 0; i < 10; i++ {
		e.Record("emg", time.Millisecond, true)
	}
	if len(fired) != 1 {
		t.Fatalf("breach fired %d times, want 1", len(fired))
	}
	if !fired[0].Breached || fired[0].Breaches != 1 || fired[0].LastBreachUnixNs != int64(t0) {
		t.Fatalf("breach status %+v", fired[0])
	}
	// The breach hands over the full Status, latency quantiles included.
	if fired[0].P50Ms < 0.9 || fired[0].P999Ms < fired[0].P50Ms {
		t.Fatalf("breach status quantiles p50=%v p999=%v", fired[0].P50Ms, fired[0].P999Ms)
	}
	if !e.Status("emg").Breached {
		t.Fatal("breached latch not set")
	}
	// Past the cooldown the still-burning model pages again.
	clk.advance(31 * time.Second)
	e.Record("emg", time.Millisecond, true)
	if len(fired) != 2 || fired[1].Breaches != 2 {
		t.Fatalf("post-cooldown fires %d", len(fired))
	}
	// Everything ages out; one healthy request clears the latch.
	clk.advance(2 * time.Hour)
	e.Record("emg", time.Millisecond, false)
	if e.Status("emg").Breached {
		t.Fatal("breached latch stuck after burn cleared")
	}
	if len(fired) != 2 {
		t.Fatalf("breach fired while healthy: %d", len(fired))
	}
}

func TestSetObjectivePerTenant(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	def := Objective{Latency: 50 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01}
	e := newTestEngine(Config{Default: def}, clk)
	if th := e.SlowThreshold("a"); th != 50*time.Millisecond {
		t.Fatalf("default slow threshold %v", th)
	}
	e.SetObjective("a", Objective{Latency: 5 * time.Millisecond, LatencyTarget: 0.999, ErrorBudget: 0.001})
	if th := e.SlowThreshold("a"); th != 5*time.Millisecond {
		t.Fatalf("tenant slow threshold %v", th)
	}
	if e.SlowThreshold("b") != 50*time.Millisecond {
		t.Fatal("tenant objective leaked to another model")
	}
	if e.Objective("a").ErrorBudget != 0.001 || e.Objective("b") != def {
		t.Fatal("Objective lookup wrong")
	}
	// The tightened objective reclassifies slowness immediately.
	e.Record("a", 10*time.Millisecond, false)
	if st := e.Status("a"); st.Fast.Slow != 1 {
		t.Fatalf("slow count under tenant objective %+v", st.Fast)
	}
	e.Forget("a")
	if e.SlowThreshold("a") != 50*time.Millisecond {
		t.Fatal("Forget did not drop the tracker")
	}
}

func TestStatusAllSorted(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{}, clk)
	for _, m := range []string{"zeta", "alpha", "mid"} {
		e.Record(m, time.Millisecond, false)
	}
	all := e.StatusAll()
	if len(all) != 3 || all[0].Model != "alpha" || all[1].Model != "mid" || all[2].Model != "zeta" {
		t.Fatalf("StatusAll order %+v", all)
	}
}

// TestRegisterMetrics scrapes the four gauge families through a real
// obs registry.
func TestRegisterMetrics(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{
		Default:       Objective{ErrorBudget: 0.01},
		BurnThreshold: 2,
		MinEvents:     5,
		Cooldown:      time.Second,
		OnBreach:      func(string, Status) {},
	}, clk)
	for i := 0; i < 10; i++ {
		e.Record("emg", time.Millisecond, true)
	}
	r := obs.NewRegistry()
	e.RegisterMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`pulphd_model_slo_burn_fast_milli{model="emg"} 100000`,
		`pulphd_model_slo_burn_slow_milli{model="emg"} 100000`,
		`pulphd_model_slo_breached{model="emg"} 1`,
		`pulphd_model_slo_breaches_total{model="emg"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestRecordAllocs pins the hot path: after a model's first request,
// Record (including its throttled breach check) allocates nothing.
func TestRecordAllocs(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{
		Default:   Objective{Latency: 10 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01},
		MinEvents: 1 << 60, // breaches never fire, checks still run
	}, clk)
	e.Record("emg", time.Millisecond, false)
	if allocs := testing.AllocsPerRun(1000, func() {
		clk.advance(time.Millisecond)
		e.Record("emg", 20*time.Millisecond, true)
	}); allocs != 0 {
		t.Fatalf("Record allocates %v/op", allocs)
	}
}

// TestConcurrentRecord hammers one tracker from many goroutines while
// statuses and objective swaps race it — the -race lane's meat.
func TestConcurrentRecord(t *testing.T) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{
		Default:  Objective{Latency: time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01},
		OnBreach: func(string, Status) {},
		Cooldown: time.Nanosecond,
	}, clk)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Record("emg", time.Duration(i)*time.Microsecond, i%7 == 0)
				if i%100 == 0 {
					clk.advance(time.Second)
					e.SetObjective("emg", Objective{Latency: time.Duration(g+1) * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01})
					_ = e.Status("emg")
					_ = e.StatusAll()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Status("emg"); st.TotalRequests != goroutines*per {
		t.Fatalf("lost records: %d, want %d", st.TotalRequests, goroutines*per)
	}
}

// BenchmarkScrapeSLOFamilies times one render of the four
// pulphd_model_slo_* families, as a /metrics scrape does, with nine
// tracked models holding a spread of latencies.
func BenchmarkScrapeSLOFamilies(b *testing.B) {
	clk := &fakeClock{}
	clk.set(t0)
	e := newTestEngine(Config{
		Default:    Objective{Latency: 50 * time.Millisecond, LatencyTarget: 0.99, ErrorBudget: 0.01},
		CheckEvery: time.Hour,
	}, clk)
	for m := range 9 {
		for i := range 1000 {
			e.Record(fmt.Sprintf("model-%d", m), time.Duration(100+37*i)*time.Microsecond, i%50 == 0)
		}
	}
	r := obs.NewRegistry()
	e.RegisterMetrics(r)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
