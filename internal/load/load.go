// Package load is the serving-tier load harness behind
// `pulphd hdload`: it drives a live `pulphd serve` instance over HTTP
// with realistic EMG session traffic and measures the capacity
// envelope the paper's real-time claim implies — tail latency and
// goodput as the arrival rate sweeps through the saturation knee.
//
// Two generator modes cover the two questions a capacity study asks:
//
//   - Open loop (fixed arrival rate, unbounded concurrency): requests
//     fire on a fixed schedule whether or not earlier ones returned,
//     exactly like independent clients. Queueing delay is visible —
//     past the knee, latency and shed (429) rates blow up instead of
//     the generator politely slowing down (coordinated omission).
//   - Closed loop (fixed concurrency, optional think time): N sessions
//     each await their answer before the next window, like N wearable
//     devices streaming gestures. Measures per-stream latency and the
//     throughput ceiling at a given parallelism.
//
// Latencies are recorded into obs.Histogram, the log-linear histogram
// /metrics and the SLO engine use too, so the reported p50/p99/p999
// are quantiles within ~1.6%, never averages. Results are written
// both as a human table and as machine-readable JSON
// (benchmarks/BENCH_serving.json, see report.go) so the serving
// capacity trajectory is tracked across PRs, and an SLO expression
// ("p99<20ms,errors<1%,knee>500") turns a sweep into a pass/fail
// capacity gate for CI.
package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/obs"
)

// Options configures one measured phase against a live server.
type Options struct {
	// Target is the server base URL, e.g. http://localhost:8099.
	Target string
	// Targets, when non-empty, spreads requests round-robin over
	// several base URLs (driving a replica set directly, or several
	// fronts) and reports per-target goodput alongside the aggregate.
	// Target is ignored when set.
	Targets []string
	// Rate > 0 selects open-loop mode: arrivals per second on a fixed
	// schedule, unbounded concurrency.
	Rate float64
	// Concurrency > 0 selects closed-loop mode: this many workers,
	// each firing its next request only after the previous answered.
	Concurrency int
	// Think is the closed-loop pause between a worker's answer and its
	// next request (0: none).
	Think time.Duration
	// Duration is the measured interval; Warmup runs the same traffic
	// beforehand without recording, so connection setup and first-touch
	// costs stay out of the quantiles.
	Duration time.Duration
	Warmup   time.Duration
	// LearnFrac is the fraction of requests sent to /learn instead of
	// /predict (0: pure predict traffic). Learns are counted separately
	// and excluded from the latency quantiles — a generation publish is
	// orders of magnitude above a predict and would drown the tail.
	LearnFrac float64
	// Model, when set, targets a named registry model via the
	// /models/{name}/predict and /models/{name}/learn routes instead of
	// the legacy single-model paths.
	Model string
	// Timeout bounds one request on the client side; a timed-out
	// request counts as a transport error, not a 504.
	Timeout time.Duration
	// Traffic supplies the request bodies; required.
	Traffic *Traffic
	// Client overrides the HTTP client (tests); nil builds one sized
	// for open-loop fan-out.
	Client *http.Client
}

// Result is one measured phase — the unit the report and the SLO gate
// consume. Latency quantiles cover successful /predict responses only.
type Result struct {
	Mode        string  `json:"mode"`
	OfferedRPS  float64 `json:"offered_rps,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`
	ThinkMs     float64 `json:"think_ms,omitempty"`
	DurationSec float64 `json:"duration_sec"`

	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Shed429    int64   `json:"shed_429"`
	Timeout504 int64   `json:"timeout_504"`
	Err500     int64   `json:"err_500"`
	OtherErr   int64   `json:"other_err"`
	Learns     int64   `json:"learns"`
	LearnsOK   int64   `json:"learns_ok"`
	GoodputRPS float64 `json:"goodput_rps"`
	ErrorPct   float64 `json:"error_pct"`

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`

	// Flight holds the worst tail events the server's flight recorder
	// captured during this phase (fetched from /debug/flight after the
	// phase; empty when the server runs without a recorder).
	Flight []FlightEvent `json:"flight,omitempty"`

	// PerTarget breaks the aggregate down by endpoint in multi-target
	// mode (Options.Targets); empty for a single target.
	PerTarget []TargetResult `json:"per_target,omitempty"`
}

// TargetResult is one endpoint's share of a multi-target phase.
type TargetResult struct {
	Target     string  `json:"target"`
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	GoodputRPS float64 `json:"goodput_rps"`
}

// runner is the shared state of one phase's workers.
type runner struct {
	opts   Options
	client *http.Client
	start  time.Time

	sent, ok, shed, timeout, e500, other atomic.Int64
	learns, learnsOK                     atomic.Int64
	hist                                 obs.Histogram
	wg                                   sync.WaitGroup

	// perTarget holds one counter pair per Options.Targets entry,
	// indexed like Targets (requests round-robin by sequence number).
	perTarget []targetCounters
}

type targetCounters struct {
	sent, ok atomic.Int64
}

// NewClient returns an HTTP client sized for open-loop fan-out: far
// more idle connections per host than the default two, so a burst past
// the knee reuses connections instead of churning TIME_WAIT sockets.
func NewClient(timeout time.Duration) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 1024
	return &http.Client{Transport: t, Timeout: timeout}
}

// RunPhase executes one phase and returns its measurements. ctx
// cancels in-flight requests early (the phase then reports what it
// saw).
func RunPhase(ctx context.Context, opts Options) (Result, error) {
	if opts.Traffic == nil {
		return Result{}, fmt.Errorf("load: Options.Traffic is required")
	}
	if len(opts.Targets) == 0 && opts.Target == "" {
		return Result{}, fmt.Errorf("load: Options.Target (or Targets) is required")
	}
	if len(opts.Targets) == 0 {
		opts.Targets = []string{opts.Target}
	}
	if (opts.Rate > 0) == (opts.Concurrency > 0) {
		return Result{}, fmt.Errorf("load: exactly one of Rate (open loop) and Concurrency (closed loop) must be set")
	}
	if opts.Duration <= 0 {
		return Result{}, fmt.Errorf("load: Duration must be positive")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	r := &runner{opts: opts, client: opts.Client, perTarget: make([]targetCounters, len(opts.Targets))}
	if r.client == nil {
		r.client = NewClient(opts.Timeout)
	}
	r.start = time.Now()
	if opts.Rate > 0 {
		r.openLoop(ctx)
	} else {
		r.closedLoop(ctx)
	}
	r.wg.Wait()
	return r.result(), nil
}

// learnEvery converts LearnFrac into a deterministic cadence: every
// n-th request is a learn. 0 disables learns.
func (r *runner) learnEvery() int64 {
	if r.opts.LearnFrac <= 0 {
		return 0
	}
	n := int64(1/r.opts.LearnFrac + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// openLoop fires requests on the fixed arrival schedule, one goroutine
// per request, never waiting for answers — arrivals that fall behind
// schedule (a stalled scheduler, a GC pause) fire immediately so the
// offered rate holds.
func (r *runner) openLoop(ctx context.Context) {
	interval := time.Duration(float64(time.Second) / r.opts.Rate)
	total := r.opts.Warmup + r.opts.Duration
	every := r.learnEvery()
	for n := int64(0); ; n++ {
		target := r.start.Add(time.Duration(n) * interval)
		if d := time.Until(target); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		elapsed := time.Since(r.start)
		if elapsed >= total || ctx.Err() != nil {
			return
		}
		record := elapsed >= r.opts.Warmup
		isLearn := every > 0 && n%every == every-1
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.fire(ctx, isLearn, record, n)
		}()
	}
}

// closedLoop runs Concurrency workers, each awaiting its answer (plus
// think time) before the next request.
func (r *runner) closedLoop(ctx context.Context) {
	total := r.opts.Warmup + r.opts.Duration
	every := r.learnEvery()
	var seq atomic.Int64
	for w := 0; w < r.opts.Concurrency; w++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				elapsed := time.Since(r.start)
				if elapsed >= total || ctx.Err() != nil {
					return
				}
				n := seq.Add(1) - 1
				isLearn := every > 0 && n%every == every-1
				r.fire(ctx, isLearn, elapsed >= r.opts.Warmup, n)
				if r.opts.Think > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(r.opts.Think):
					}
				}
			}
		}()
	}
}

// fire sends one request and accounts its outcome. Warmup requests
// (record=false) exercise the server but leave every counter alone.
func (r *runner) fire(ctx context.Context, isLearn, record bool, seq int64) {
	path, body := "/predict", r.opts.Traffic.PredictBody(seq)
	if isLearn {
		path, body = "/learn", r.opts.Traffic.LearnBody(seq)
	}
	if r.opts.Model != "" {
		path = "/models/" + r.opts.Model + path
	}
	ti := int(seq % int64(len(r.opts.Targets)))
	if ti < 0 {
		ti = 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.opts.Targets[ti]+path, bytes.NewReader(body))
	if err != nil {
		if record {
			r.sent.Add(1)
			r.other.Add(1)
		}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// A stable per-stream session key: against the front tier this is
	// the consistent-hash affinity key, so the harness looks like many
	// independent device streams instead of one client hashing to one
	// replica. Plain serve instances ignore the header.
	req.Header.Set("X-PULPHD-Session", "hdload-"+strconv.FormatInt(seq%256, 10))
	t0 := time.Now()
	resp, err := r.client.Do(req)
	elapsed := time.Since(t0)
	if !record {
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return
	}
	r.sent.Add(1)
	r.perTarget[ti].sent.Add(1)
	if isLearn {
		r.learns.Add(1)
	}
	if err != nil {
		r.other.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		r.ok.Add(1)
		r.perTarget[ti].ok.Add(1)
		if isLearn {
			r.learnsOK.Add(1)
		} else {
			r.hist.Observe(elapsed)
		}
	case http.StatusTooManyRequests:
		r.shed.Add(1)
	case http.StatusGatewayTimeout:
		r.timeout.Add(1)
	case http.StatusInternalServerError:
		r.e500.Add(1)
	default:
		r.other.Add(1)
	}
}

// result assembles the phase measurements.
func (r *runner) result() Result {
	res := Result{
		DurationSec: r.opts.Duration.Seconds(),
		Sent:        r.sent.Load(),
		OK:          r.ok.Load(),
		Shed429:     r.shed.Load(),
		Timeout504:  r.timeout.Load(),
		Err500:      r.e500.Load(),
		OtherErr:    r.other.Load(),
		Learns:      r.learns.Load(),
		LearnsOK:    r.learnsOK.Load(),
		P50Ms:       ms(r.hist.Quantile(0.50)),
		P99Ms:       ms(r.hist.Quantile(0.99)),
		P999Ms:      ms(r.hist.Quantile(0.999)),
		MaxMs:       ms(r.hist.Max()),
	}
	if r.opts.Rate > 0 {
		res.Mode = "open"
		res.OfferedRPS = r.opts.Rate
	} else {
		res.Mode = "closed"
		res.Concurrency = r.opts.Concurrency
		res.ThinkMs = ms(r.opts.Think)
	}
	if res.DurationSec > 0 {
		res.GoodputRPS = float64(res.OK) / res.DurationSec
	}
	if res.Sent > 0 {
		res.ErrorPct = 100 * float64(res.Sent-res.OK) / float64(res.Sent)
	}
	if len(r.opts.Targets) > 1 {
		for i, t := range r.opts.Targets {
			tr := TargetResult{Target: t, Sent: r.perTarget[i].sent.Load(), OK: r.perTarget[i].ok.Load()}
			if res.DurationSec > 0 {
				tr.GoodputRPS = float64(tr.OK) / res.DurationSec
			}
			res.PerTarget = append(res.PerTarget, tr)
		}
	}
	return res
}

// ms converts a duration to float milliseconds for the report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
