package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
)

// modelHeader routes a legacy /predict or /learn request to a named
// registry model without changing its path (X-PULPHD-Model on the
// wire). It is spelled in canonical MIME form, so Header.Get finds it
// without allocating the canonical key.
const modelHeader = "X-Pulphd-Model"

// This file is the HTTP front end of the online-learning serving
// layer over the model registry: POST /predict classifies windows
// against the current model generation, POST /learn folds
// label-corrected windows back in. Every predict runs on its own
// handler goroutine through the model's pooled sessions, so
// concurrent requests classify on every CPU at once; a bound on the
// predicts in flight sheds load with 429 instead of piling work onto
// saturated CPUs.
//
// The handlers serve many named models:
// /models/{name}/predict and /models/{name}/learn route by path, the
// legacy /predict and /learn routes accept an X-PULPHD-Model header or
// fall through to the default model, and /models hosts the admin
// surface (list, create, delete). Learns are write-ahead logged before
// they apply (when the registry has a state directory), so
// acknowledged learns survive a crash.

// maxRequestBody bounds a request body; the EMG operating point needs
// a few KB per window, so 1 MiB leaves room for much larger models.
const maxRequestBody = 1 << 20

// errNoModel is returned for predicts against a model with no classes
// (nothing learned yet).
var errNoModel = errors.New("model has no classes yet; POST /learn first")

// errReadOnly refuses mutating routes on a replica.
var errReadOnly = errors.New("replica is read-only; send learns and model admin to the front or the primary")

// errPredictPanic marks a predict that kept panicking after the
// bounded retries — answered 500, never a process crash.
var errPredictPanic = errors.New("internal error during predict")

// errDeadline marks a predict whose context was done (deadline
// expired, client gone) before its answer was ready — answered 504.
var errDeadline = errors.New("predict deadline exceeded")

// errShed answers a predict shed by the in-flight bound (429).
var errShed = errors.New("too many predicts in flight; retry")

// predictResult is one predict's outcome: the answer, the generation
// it scanned, and whether it needed a retry after a recovered panic.
type predictResult struct {
	label      string
	distance   int
	generation uint64
	retried    bool
	err        error
}

// apiServer serves the HTTP API over the model registry.
type apiServer struct {
	// inflight counts predicts between admission and answer;
	// maxInflight is the bound past which new ones shed with 429.
	inflight    atomic.Int64
	maxInflight int64
	m           *obs.ServingMetrics

	// reg is the multi-tenant model registry; defaultModel names the
	// model the legacy /predict and /learn routes serve, and baseConfig
	// is the geometry POST /models creates new models with.
	reg          *modreg.Registry
	defaultModel string
	baseConfig   hdc.Config

	// beforePredict, when non-nil, runs on the handler goroutine
	// before every predict attempt. Tests set it to inject panics, to
	// stall predicts and to interleave learns; production leaves it
	// nil.
	beforePredict func()

	// timeout bounds one predict from arrival to answer (0: none): a
	// predict whose context is done before its answer is ready gets
	// 504. retries and retryBackoff bound the re-attempts after a
	// recovered predict panic; backoff doubles per attempt.
	timeout      time.Duration
	retries      int
	retryBackoff time.Duration

	// log receives the structured request log; spans, when non-nil,
	// turns request tracing on and keeps a copy of the most recent
	// request span trees for /debug/spans. Both are optional and set
	// before serving.
	log   *slog.Logger
	spans *flight.Ring

	// slo is the per-tenant SLO engine (burn rates, breach callback)
	// and flight the tail-event recorder that /debug/flight dumps.
	// Both optional, set before serving, and nil-safe throughout.
	slo    *sloeng.Engine
	flight *flight.Ring

	// readOnly refuses every mutating route with 403 — the replica
	// role: model state arrives only through the sync loop, so a learn
	// accepted here would be silently overwritten by the next cycle.
	readOnly bool

	// nextID tags every request with a process-unique id (log lines
	// and span timelines correlate on it). draining flips once at
	// shutdown: new work is refused with 503 while in-flight requests
	// finish under http.Server.Shutdown.
	nextID   atomic.Uint64
	draining atomic.Bool
}

// newRegistryAPIServer builds the server over a model registry. The
// legacy /predict and /learn routes serve defaultModel; the /models
// routes serve every tenant. baseConfig is the geometry POST /models
// creates models with. maxInflight is the backpressure bound: past
// that many predicts in flight, further ones get 429.
func newRegistryAPIServer(reg *modreg.Registry, defaultModel string, baseConfig hdc.Config,
	maxInflight int, m *obs.ServingMetrics) *apiServer {
	return &apiServer{
		maxInflight:  int64(max(maxInflight, 1)),
		m:            m,
		reg:          reg,
		defaultModel: defaultModel,
		baseConfig:   baseConfig,
		retries:      2,
		retryBackoff: 2 * time.Millisecond,
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// beginDrain refuses new work with 503 while requests already in
// flight complete — the first step of graceful shutdown, before
// http.Server.Shutdown waits the handlers out.
func (s *apiServer) beginDrain() {
	s.draining.Store(true)
}

// maxRetryBackoff caps the doubling predict-retry backoff: past it
// every further attempt waits this long instead of doubling again.
const maxRetryBackoff = time.Second

// backoff returns the sleep before retrying after failed attempt
// `attempt`: retryBackoff doubled per attempt, saturating at
// maxRetryBackoff. The shift is checked before it happens, so a large
// -predict-retries can never overflow time.Duration into a negative
// sleep (a negative Sleep returns immediately, turning the backoff
// into a hot retry loop exactly when the model is panicking).
func (s *apiServer) backoff(attempt int) time.Duration {
	b := s.retryBackoff
	if b <= 0 {
		return 0
	}
	if attempt >= 63 || b > maxRetryBackoff>>uint(attempt) {
		return maxRetryBackoff
	}
	return b << uint(attempt)
}

// predictOne classifies one window with bounded retries: a predict
// that panics (a poisoned model) is recovered and the attempt repeats
// after a doubling backoff. When the retry budget is spent the request
// fails with errPredictPanic (a 500) — the process never dies with it.
// A context done before the answer is ready fails it with errDeadline;
// the predict runs either way (it costs microseconds), so a timed-out
// request's timeline on rec still shows its encode and search. The
// reported generation is the one the predict's own atomic load
// scanned, because a /learn can publish at any moment.
func (s *apiServer) predictOne(ctx context.Context, rec *obs.Spans, sv *hdc.Serving, window [][]float64) predictResult {
	if sv.Classes() == 0 {
		return predictResult{err: errNoModel}
	}
	for attempt := 0; ; attempt++ {
		label, dist, gen, err := s.tryPredict(rec, sv, window)
		if err == nil {
			res := predictResult{label: label, distance: dist, generation: gen, retried: attempt > 0}
			if ctx.Err() != nil {
				res.err = errDeadline
			}
			return res
		}
		if attempt >= s.retries {
			return predictResult{retried: attempt > 0,
				err: fmt.Errorf("%w: %v", errPredictPanic, err)}
		}
		s.m.RecordRetry()
		if d := s.backoff(attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			return predictResult{retried: true, err: errDeadline}
		}
	}
}

// tryPredict runs one predict attempt, converting a panic into an
// error. The pooled session the panicking predict held never goes
// back to the pool, so its half-written scratch is never reused.
func (s *apiServer) tryPredict(rec *obs.Spans, sv *hdc.Serving, window [][]float64) (label string, dist int, gen uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.RecordPanicRecovered()
			s.log.Warn("predict panic recovered", "panic", r)
			err = fmt.Errorf("recovered: %v", r)
		}
	}()
	if s.beforePredict != nil {
		s.beforePredict()
	}
	label, dist, gen = sv.PredictTraced(rec, window)
	return label, dist, gen, nil
}

// register installs the serving endpoints on mux.
func (s *apiServer) register(mux *http.ServeMux) {
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/learn", s.handleLearn)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("POST /models/{model}/predict", s.handlePredict)
	mux.HandleFunc("POST /models/{model}/learn", s.handleLearn)
	mux.HandleFunc("GET /models", s.handleModelsList)
	mux.HandleFunc("POST /models", s.handleModelCreate)
	mux.HandleFunc("GET /models/{model}", s.handleModelInfo)
	mux.HandleFunc("DELETE /models/{model}", s.handleModelDelete)
	mux.HandleFunc("GET /models/{model}/slo", s.handleModelSLO)
	mux.HandleFunc("POST /models/{model}/slo", s.handleModelSLOSet)
}

// registryErrCode maps registry errors onto HTTP statuses: the input
// the registry rejected is the client's (400), any error it does not
// name is fallback.
func registryErrCode(err error, fallback int) int {
	switch {
	case errors.Is(err, modreg.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, modreg.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, modreg.ErrExists):
		return http.StatusConflict
	case errors.Is(err, modreg.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// handleHealthz is liveness: the process is up and handling HTTP.
func (s *apiServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the server answers 200 once the default
// model (or the ?model= one) is published with something /predict can
// classify against — a generation ≥ 1 (something learned) or a
// snapshot that already holds classes — and flips back to 503 while
// draining, so load balancers stop routing before shutdown completes.
func (s *apiServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	if name := r.URL.Query().Get("model"); name != "" {
		s.handleModelReadyz(w, r, name)
		return
	}
	s.handleRegistryReadyz(w)
}

// handleModelReadyz gates readiness on one model reaching a minimum
// generation: GET /readyz?model=NAME&min_generation=G answers 200
// only once NAME is ready to classify AND its generation is ≥ G —
// how a front (or an operator's curl loop) waits for an acknowledged
// learn to land on a replica before routing the session there.
func (s *apiServer) handleModelReadyz(w http.ResponseWriter, r *http.Request, name string) {
	var minGen uint64
	if g := r.URL.Query().Get("min_generation"); g != "" {
		var err error
		if minGen, err = strconv.ParseUint(g, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_generation: %w", err))
			return
		}
	}
	info, err := s.reg.ModelInfo(name)
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	ready := (info.Generation > 0 || info.Classes > 0) && info.Generation >= minGen
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"model":          name,
		"generation":     info.Generation,
		"min_generation": minGen,
		"ready":          ready,
	})
}

// modelReadiness is one model's row in the registry-backed /readyz:
// its Info plus the per-model ready verdict (something to classify
// against — a published generation or snapshot classes).
type modelReadiness struct {
	modreg.Info
	Ready bool `json:"ready"`
}

// handleRegistryReadyz reports per-model readiness. The top-level
// verdict (and the status code load balancers act on) is the default
// model's, matching what the legacy /predict route can serve; the
// models array carries every tenant's own verdict.
func (s *apiServer) handleRegistryReadyz(w http.ResponseWriter) {
	infos := s.reg.List()
	models := make([]modelReadiness, 0, len(infos))
	ready := false
	for _, info := range infos {
		mr := modelReadiness{Info: info, Ready: info.Generation > 0 || info.Classes > 0}
		if info.Name == s.defaultModel {
			ready = mr.Ready
		}
		models = append(models, mr)
	}
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":  status,
		"default": s.defaultModel,
		"models":  models,
	})
}

// handleSpans exports the retained request timelines as Chrome
// trace-event JSON (load in ui.perfetto.dev); ?model= scopes the dump
// to one tenant's requests.
func (s *apiServer) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		httpError(w, http.StatusNotFound, errors.New("request tracing disabled; serve with -trace-requests > 0"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteChromeTrace(w, r.URL.Query().Get("model"))
}

// handleFlight exports the flight recorder's captured tail events:
// Chrome trace-event JSON by default, ?summary=1 for the compact form
// hdload attaches to capacity reports, ?model= scoped to one tenant.
func (s *apiServer) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		httpError(w, http.StatusNotFound, errors.New("flight recorder disabled; serve with -flight > 0"))
		return
	}
	model := r.URL.Query().Get("model")
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("summary") != "" {
		s.flight.WriteSummary(w, model)
		return
	}
	s.flight.WriteChromeTrace(w, model)
}

// handleModelSLO answers GET /models/{model}/slo with the model's SLO
// status: objective, dual-window burn rates, breach state, latency
// quantiles.
func (s *apiServer) handleModelSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		httpError(w, http.StatusNotFound, errors.New("SLO engine disabled; serve with -slo-latency > 0"))
		return
	}
	name := r.PathValue("model")
	if _, err := s.reg.ModelInfo(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slo.Status(name))
}

// sloObjectiveRequest is the POST /models/{model}/slo body; absent
// fields keep their current value.
type sloObjectiveRequest struct {
	LatencyMs     *float64 `json:"latency_ms"`
	LatencyTarget *float64 `json:"latency_target"`
	ErrorBudget   *float64 `json:"error_budget"`
}

// handleModelSLOSet answers POST /models/{model}/slo: adjust one
// tenant's objective (latency bound, latency target, error budget) at
// runtime and return the resulting status.
func (s *apiServer) handleModelSLOSet(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		httpError(w, http.StatusNotFound, errors.New("SLO engine disabled; serve with -slo-latency > 0"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	name := r.PathValue("model")
	if _, err := s.reg.ModelInfo(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req sloObjectiveRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	obj := s.slo.Objective(name)
	if req.LatencyMs != nil {
		if *req.LatencyMs <= 0 {
			httpError(w, http.StatusBadRequest, errors.New("latency_ms must be positive"))
			return
		}
		obj.Latency = time.Duration(*req.LatencyMs * float64(time.Millisecond))
	}
	if req.LatencyTarget != nil {
		if *req.LatencyTarget <= 0 || *req.LatencyTarget >= 1 {
			httpError(w, http.StatusBadRequest, errors.New("latency_target must be in (0, 1)"))
			return
		}
		obj.LatencyTarget = *req.LatencyTarget
	}
	if req.ErrorBudget != nil {
		if *req.ErrorBudget <= 0 || *req.ErrorBudget >= 1 {
			httpError(w, http.StatusBadRequest, errors.New("error_budget must be in (0, 1)"))
			return
		}
		obj.ErrorBudget = *req.ErrorBudget
	}
	s.slo.SetObjective(name, obj)
	s.log.Info("model SLO updated", "model", name,
		"latency", obj.Latency, "latency_target", obj.LatencyTarget, "error_budget", obj.ErrorBudget)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slo.Status(name))
}

// httpError responds with a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// requestSpans is the span capacity of a request's recorder and of
// each entry of the /debug/spans and flight rings.
const requestSpans = 64

// call is one /predict or /learn between begin and finish.
type call struct {
	id    uint64
	start time.Time
	// ctx is the request's context, which the predict deadline derives
	// from. rec is its span recorder when request tracing is on (nil
	// otherwise), passed down through model resolution, predict and
	// learn; root is the request span their spans hang under.
	ctx  context.Context
	rec  *obs.Spans
	root obs.SpanID
	// name is the model the request routed to explicitly ("" on a
	// legacy route without the header), model the one that serves it,
	// and sv its serving state (nil when it did not resolve).
	name, model string
	sv          *hdc.Serving
}

// begin opens a /predict or /learn: it counts the request as
// admitted, tags it with an id, starts its span recorder and request
// root span, and resolves the model it addresses — the {model} path
// segment, the X-PULPHD-Model header, or the default. The recorder is
// the one pooled with the request's wire buffers wb, built on first
// use; it starts here, before the model resolves, so a cold model's
// fault-in (snapshot read, WAL replay) shows up as registry.faultin /
// registry.recover spans in the timeline of the request that paid for
// it. Every request begun ends in finish, also when begin returns an
// error, and wb goes back to its pool only after finish.
func (s *apiServer) begin(r *http.Request, wb *wireBuf) (call, error) {
	s.m.RecordRequest(true)
	c := call{id: s.nextID.Add(1), start: time.Now(), ctx: r.Context(), root: obs.NoSpan}
	c.name = r.PathValue("model")
	if c.name == "" {
		c.name = r.Header.Get(modelHeader)
	}
	if c.model = c.name; c.model == "" {
		c.model = s.defaultModel
	}
	if s.spans != nil {
		if wb.rec == nil {
			wb.rec = obs.NewSpans(requestSpans)
		}
		c.rec = wb.rec
		c.rec.Reset(c.id)
		c.root = c.rec.Start("request", obs.NoSpan)
		c.rec.Annotate(c.root, "id", int64(c.id))
		c.rec.SetParent(c.root)
	}
	var err error
	c.sv, err = s.reg.Serving(c.rec, c.model)
	return c, err
}

// finish ends a request begun by begin, by one rule on both routes.
// It closes the request span, copies the timeline into the
// /debug/spans ring, and pins it into the flight recorder as shed
// (429), timeout (504) or error (any other 5xx), plus the caller's
// trig bits and slow when the request outran its model's latency
// objective. It records the outcome with the SLO engine: a 2xx as
// good, a 429 or 5xx as bad, and no other 4xx, so an unknown model
// gets no tracker. A 4xx counts as rejected and a 504 as a timeout.
// gen is the generation that served the request. A non-nil err is
// answered with code; otherwise the caller writes the answer after
// finish returns, so a client holding its answer finds its timeline in
// /debug/spans.
func (s *apiServer) finish(w http.ResponseWriter, c *call, code int, gen uint64, trig flight.Trigger, err error) {
	c.rec.End(c.root)
	dur := time.Since(c.start)
	switch {
	case code == http.StatusTooManyRequests:
		trig |= flight.TrigShed
	case code == http.StatusGatewayTimeout:
		trig |= flight.TrigTimeout
		s.m.RecordTimeout()
	case code >= 500:
		trig |= flight.TrigError
	}
	if th := s.slo.SlowThreshold(c.model); th > 0 && dur > th {
		trig |= flight.TrigSlow
	}
	s.spans.Capture(c.rec, c.model, gen, 0, c.start, dur)
	if trig != 0 {
		s.flight.Capture(c.rec, c.model, gen, trig, c.start, dur)
	}
	if code < 400 || code >= 500 || code == http.StatusTooManyRequests {
		s.slo.Record(c.model, dur, code >= 400)
	}
	if code >= 400 && code < 500 {
		s.m.RecordRejected()
	}
	if err == nil {
		return
	}
	if s.log.Enabled(c.ctx, slog.LevelDebug) {
		s.log.Debug("request failed", "request", c.id, "model", c.model, "status", code, "error", err)
	}
	httpError(w, code, err)
}

func (s *apiServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST a JSON body to /predict"))
		return
	}
	if s.draining.Load() {
		s.m.RecordRequest(false)
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	wb := getWire()
	defer putWire(wb)
	c, err := s.begin(r, wb)
	if err != nil {
		s.finish(w, &c, registryErrCode(err, http.StatusInternalServerError), 0, 0, err)
		return
	}
	window, err := wb.decodePredict(c.sv, http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		s.finish(w, &c, http.StatusBadRequest, 0, 0, err)
		return
	}
	s.reg.Metrics().RecordOp(c.model, "predict")
	if s.inflight.Add(1) > s.maxInflight {
		// Shed: the CPUs already hold as many predicts as the bound
		// allows.
		s.inflight.Add(-1)
		s.finish(w, &c, http.StatusTooManyRequests, 0, 0, errShed)
		return
	}
	defer s.inflight.Add(-1)
	ctx := c.ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res := s.predictOne(ctx, c.rec, c.sv, window)
	var trig flight.Trigger
	if res.retried {
		trig = flight.TrigRetry
	}
	code := http.StatusOK
	switch {
	case res.err == nil:
	case errors.Is(res.err, errNoModel):
		code = http.StatusConflict
	case errors.Is(res.err, errDeadline):
		code = http.StatusGatewayTimeout
	default:
		code = http.StatusInternalServerError
	}
	s.finish(w, &c, code, res.generation, trig, res.err)
	if res.err != nil {
		return
	}
	wb.body = appendPredictAnswer(wb.body[:0], res.label, res.distance, res.generation, c.name)
	writeAnswer(w, wb.body)
	if s.log.Enabled(ctx, slog.LevelDebug) {
		s.log.Debug("predict", "request", c.id, "label", res.label,
			"distance", res.distance, "generation", res.generation,
			"duration", time.Since(c.start))
	}
}

func (s *apiServer) handleLearn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST a JSON body to /learn"))
		return
	}
	if s.draining.Load() {
		s.m.RecordRequest(false)
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	if s.readOnly {
		s.m.RecordRequest(false)
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	wb := getWire()
	defer putWire(wb)
	c, err := s.begin(r, wb)
	if err != nil {
		s.finish(w, &c, registryErrCode(err, http.StatusInternalServerError), 0, 0, err)
		return
	}
	label, window, err := wb.decodeLearn(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		s.finish(w, &c, http.StatusBadRequest, 0, 0, err)
		return
	}
	// Learn serializes on the model's writer lock; the copy-on-write
	// publish keeps concurrent predicts lock-free throughout. The learn
	// is write-ahead logged as correction feedback before it applies,
	// so an acknowledged learn survives a crash. The generation and
	// class count come from the registry's capture under that lock:
	// exactly what this request published, never a concurrent learn's.
	info, err := s.reg.CorrectInfo(c.rec, c.model, label, window)
	code := http.StatusOK
	if err != nil {
		// A record the model rejects is the client's 400; any other
		// failure is not the record's fault (a WAL or snapshot write
		// failed).
		code = registryErrCode(err, http.StatusInternalServerError)
	}
	s.finish(w, &c, code, info.Generation, 0, err)
	if err != nil {
		return
	}
	wb.body = appendLearnAnswer(wb.body[:0], info.Generation, info.Classes, c.name)
	writeAnswer(w, wb.body)
	if s.log.Enabled(c.ctx, slog.LevelDebug) {
		s.log.Debug("learn", "request", c.id, "label", label,
			"generation", info.Generation, "classes", info.Classes, "duration", time.Since(c.start))
	}
}

// createModelRequest is the POST /models body. The new model gets the
// server's base geometry; backend optionally overrides the item-memory
// backend, seed the item-memory seed (so tenants get independent item
// memories when they want them).
type createModelRequest struct {
	Name    string `json:"name"`
	Backend string `json:"backend,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
}

// handleModelsList answers GET /models with every model's Info.
func (s *apiServer) handleModelsList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"models": s.reg.List()})
}

// handleModelCreate answers POST /models: register a fresh model.
func (s *apiServer) handleModelCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req createModelRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	cfg := s.baseConfig
	if req.Backend != "" {
		backend, err := hdc.ParseBackend(req.Backend)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		cfg.Backend = backend
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if _, err := s.reg.Create(req.Name, cfg); err != nil {
		// A bad name or configuration is the client's 400; a snapshot,
		// WAL or manifest write failure is the server's 500.
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	info, err := s.reg.ModelInfo(req.Name)
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	s.log.Info("model created", "model", req.Name, "backend", cfg.Backend.String())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

// handleModelInfo answers GET /models/{model} with one model's Info.
func (s *apiServer) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.ModelInfo(r.PathValue("model"))
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleModelDelete answers DELETE /models/{model}: unregister the
// model and remove its on-disk state. The default model is protected —
// the legacy routes would dangle without it.
func (s *apiServer) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	name := r.PathValue("model")
	if name == s.defaultModel {
		httpError(w, http.StatusConflict, fmt.Errorf("model %q is the default model and cannot be deleted", name))
		return
	}
	if err := s.reg.Delete(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	s.slo.Forget(name)
	s.log.Info("model deleted", "model", name)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "deleted", "model": name})
}
