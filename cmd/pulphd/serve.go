package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
	"pulphd/internal/replica"
)

// enableHostMetrics builds the canonical pulphd_* metric set and
// installs it as the sink of the hdc inference and serving paths.
// Until this runs the instrumentation is disabled (nil sink) and free.
func enableHostMetrics() *obs.HostMetrics {
	h := obs.NewHostMetrics()
	hdc.SetMetrics(h.Inference)
	hdc.SetServingMetrics(h.Serving)
	h.Registry.PublishExpvar("pulphd_metrics")
	return h
}

// newServeLogger builds the structured request logger from the
// -log-level/-log-format flags; an unknown value is an error.
func newServeLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// newMetricsMux assembles the observability endpoints: Prometheus
// text exposition at /metrics, the expvar JSON dump at /debug/vars,
// and the pprof profiles under /debug/pprof/. A dedicated mux keeps
// the handlers off http.DefaultServeMux, so importing net/http/pprof
// here exposes nothing anywhere else.
func newMetricsMux(h *obs.HostMetrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", h.Registry.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newServingModel builds the default model a new registry adopts.
// With demo it is the paper's EMG classifier trained on the training
// split of one synthetic subject generated from seed, snapshotted into
// a serving instance; without, it starts empty and is taught entirely
// through /learn.
func newServingModel(demo bool, seed int64, backend hdc.Backend) (*hdc.Serving, error) {
	cfg := hdc.EMGConfig()
	cfg.Backend = backend
	if !demo {
		return hdc.NewServing(cfg, 1)
	}
	cls, err := hdc.New(cfg)
	if err != nil {
		return nil, err
	}
	proto := emg.DefaultProtocol()
	proto.Seed = seed
	proto.Subjects = 1
	for _, w := range experiments.PrepareTrain(proto, cfg.Window, 0) {
		cls.Train(w.Label, w.Window)
	}
	return cls.Serving(), nil
}

// serveFlags is the full `pulphd serve` flag surface, registered in
// one place so the operations handbook's coverage test can enumerate
// it with fs.VisitAll and diff it against docs/OPERATIONS.md.
type serveFlags struct {
	addr, logLevel, logFormat, imBackend, stateDir, defaultModel *string
	role, peers, primary                                         *string
	demo, walSync                                                *bool
	queueDepth                                                   *int
	traceRequests, flightKeep, predictRetries, snapshotEvery     *int
	seed, residentBudget                                         *int64
	grace, predictTimeout, retryBackoff, sloLatency              *time.Duration
	syncInterval                                                 *time.Duration
	sloTarget, sloBudget, sloBurn                                *float64
}

// newServeFlags registers every serve flag on fs.
func newServeFlags(fs *flag.FlagSet) *serveFlags {
	sf := &serveFlags{}
	sf.addr = fs.String("metrics-addr", "localhost:8099", "listen `address` for /predict, /learn, /metrics, /debug/vars and /debug/pprof")
	sf.demo = fs.Bool("demo", true, "seed a new default model by training it on one synthetic EMG subject (-seed); false starts it empty")
	sf.seed = fs.Int64("seed", 2018, "generation seed of the -demo subject")
	// -queue-depth bounds the predicts in flight across all handler
	// goroutines. Its default of 128 comes from hdload knee sweeps
	// (scripts/loadsweep.sh, benchmarks/README.md) run when it bounded
	// a predict queue; the flag kept its name so deployments keep
	// working.
	sf.queueDepth = fs.Int("queue-depth", 128, "most /predict requests in flight at once; further ones get 429")
	sf.logLevel = fs.String("log-level", "info", "structured log level: debug, info, warn or error (debug logs every request with its id)")
	sf.logFormat = fs.String("log-format", "text", "structured log format: text or json")
	sf.traceRequests = fs.Int("trace-requests", 32, "request span timelines retained for /debug/spans; 0 disables request tracing")
	sf.flightKeep = fs.Int("flight", 128, "tail-event timelines the always-on flight recorder retains for /debug/flight (timeouts, errors, sheds, retries, over-SLO requests); 0 disables")
	sf.sloLatency = fs.Duration("slo-latency", 50*time.Millisecond, "default per-model SLO latency objective; requests slower than this count against the latency target and trip the flight recorder's slow trigger (0 disables the SLO engine)")
	sf.sloTarget = fs.Float64("slo-latency-target", 0.99, "fraction of requests that must meet the latency objective")
	sf.sloBudget = fs.Float64("slo-error-budget", 0.01, "fraction of requests allowed to fail before the error burn rate rises")
	sf.sloBurn = fs.Float64("slo-burn", 2, "burn-rate threshold; both the 5m and 1h windows above it is an SLO breach (fires the flight auto-dump)")
	sf.grace = fs.Duration("shutdown-grace", 10*time.Second, "how long graceful shutdown waits for in-flight requests")
	sf.predictTimeout = fs.Duration("predict-timeout", 0, "per-request /predict deadline; expired requests get 504 (0 disables)")
	sf.predictRetries = fs.Int("predict-retries", 2, "bounded retries after a recovered predict panic before answering 500")
	sf.retryBackoff = fs.Duration("retry-backoff", 2*time.Millisecond, "initial backoff between predict retries, doubling per attempt")
	sf.imBackend = fs.String("im-backend", "stored", "item-memory backend for the served model: stored or remat")
	sf.stateDir = fs.String("state-dir", "", "model-registry state `directory` (snapshots + write-ahead logs); restarts recover every model from it. Empty: models live in memory only")
	sf.residentBudget = fs.Int64("resident-budget", 0, "resident-bytes budget across registry models; past it, models evict to disk and fault back in on demand, lowest GreedyDual credit first: a dirty model counts 7x a clean one, least recently used among equals (0: unlimited; needs -state-dir)")
	sf.walSync = fs.Bool("wal-sync", false, "fsync every write-ahead-log append: per-learn durability against power loss at a large latency cost (kill -9 loses nothing either way)")
	sf.snapshotEvery = fs.Int("snapshot-every", modreg.DefaultSnapshotEvery, "write-ahead-log records per model before an automatic snapshot folds them in and truncates the log")
	sf.defaultModel = fs.String("default-model", "default", "registry model `name` the legacy /predict and /learn routes serve")
	sf.role = fs.String("role", "", "replication role: empty/primary serves and exports generations, replica pulls generations from -peers and serves read-only, front consistent-hashes predicts across -peers replicas and forwards writes to -primary")
	sf.peers = fs.String("peers", "", "comma-separated peer base `URLs`: the primary's URL for -role=replica, the replica URLs for -role=front")
	sf.primary = fs.String("primary", "", "primary base `URL` a front forwards learns and admin requests to (-role=front only)")
	sf.syncInterval = fs.Duration("sync-interval", time.Second, "replication cadence: replica sync-cycle gap, and the front's replica health/generation probe gap")
	return sf
}

// observe installs the request observability the flags ask for on
// api: request tracing with its /debug/spans ring, the flight recorder
// and the SLO engine, whose breaches call onBreach (nil: none).
func (sf *serveFlags) observe(api *apiServer, onBreach func(model string, st sloeng.Status)) {
	api.spans = flight.NewRing(*sf.traceRequests, requestSpans)
	api.flight = flight.NewRing(*sf.flightKeep, requestSpans)
	if *sf.sloLatency > 0 {
		api.slo = sloeng.New(sloeng.Config{
			Default: sloeng.Objective{
				Latency:       *sf.sloLatency,
				LatencyTarget: *sf.sloTarget,
				ErrorBudget:   *sf.sloBudget,
			},
			BurnThreshold: *sf.sloBurn,
			OnBreach:      onBreach,
		})
	}
}

// runServe implements the "pulphd serve" subcommand: enable the host
// metrics, open the model registry (seeding the default model from
// the -demo subject when it is new), and serve the API and the
// observability endpoints until a termination signal.
func runServe(args []string) int {
	fs := flag.NewFlagSet("pulphd serve", flag.ExitOnError)
	sf := newServeFlags(fs)
	addr, demo, seed := sf.addr, sf.demo, sf.seed
	queueDepth, logLevel, logFormat := sf.queueDepth, sf.logLevel, sf.logFormat
	grace, predictTimeout, predictRetries, retryBackoff := sf.grace, sf.predictTimeout, sf.predictRetries, sf.retryBackoff
	imBackend, stateDir, residentBudget := sf.imBackend, sf.stateDir, sf.residentBudget
	walSync, snapshotEvery, defaultModel := sf.walSync, sf.snapshotEvery, sf.defaultModel
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pulphd serve [-metrics-addr host:port] [-queue-depth n] [-log-level l] [-trace-requests n]\n\n")
		fmt.Fprintf(os.Stderr, "Serves online-learning models over HTTP. The legacy single-model routes\n")
		fmt.Fprintf(os.Stderr, "— POST /predict classifies a window, POST /learn folds a label-corrected\n")
		fmt.Fprintf(os.Stderr, "window into a new model generation — serve the default registry model\n")
		fmt.Fprintf(os.Stderr, "(or the model named by an X-PULPHD-Model header); /models lists,\n")
		fmt.Fprintf(os.Stderr, "creates and deletes named tenant models and /models/{name}/predict and\n")
		fmt.Fprintf(os.Stderr, "/models/{name}/learn route to them. With -state-dir every learn is\n")
		fmt.Fprintf(os.Stderr, "write-ahead logged and restarts recover every model exactly.\n")
		fmt.Fprintf(os.Stderr, "Observability: Prometheus text at /metrics, expvar JSON at /debug/vars,\n")
		fmt.Fprintf(os.Stderr, "pprof at /debug/pprof/, request span timelines as Chrome trace JSON at\n")
		fmt.Fprintf(os.Stderr, "/debug/spans, liveness at /healthz and per-model readiness at /readyz.\n")
		fmt.Fprintf(os.Stderr, "SIGINT/SIGTERM drain and shut down gracefully.\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	logger, err := newServeLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
		return 2
	}
	role := *sf.role
	switch role {
	case "", "primary", "replica", "front":
	default:
		fmt.Fprintf(os.Stderr, "pulphd serve: unknown -role %q (want primary, replica or front)\n", role)
		return 2
	}
	backend, err := hdc.ParseBackend(*imBackend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
		return 2
	}
	h := enableHostMetrics()
	obs.RegisterRuntimeMetrics(h.Registry)
	mux := newMetricsMux(h)
	if role == "front" {
		return runFront(sf, logger, h, mux)
	}
	var syncPrimary string
	if role == "replica" {
		peers := splitPeers(*sf.peers)
		if len(peers) != 1 {
			fmt.Fprintf(os.Stderr, "pulphd serve: -role=replica needs -peers with exactly one primary URL\n")
			return 2
		}
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "pulphd serve: replicas are ephemeral (the primary owns durability); drop -state-dir\n")
			return 2
		}
		syncPrimary = peers[0]
		if *demo {
			// A replica's models come from the primary; locally trained
			// demo state would be overwritten by the first sync cycle.
			*demo = false
			logger.Info("replica role: demo seeding disabled; models sync from the primary", "primary", syncPrimary)
		}
	}

	reg, err := modreg.Open(modreg.Config{
		Dir:            *stateDir,
		ResidentBudget: *residentBudget,
		SnapshotEvery:  *snapshotEvery,
		SyncWAL:        *walSync,
		Metrics:        h.Models,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
		return 1
	}
	defer reg.Close()
	reg.RegisterMetrics(h.Registry)
	// The default model: a recovered copy in the state directory wins
	// over a freshly built one — that is the restart-recovery contract.
	// Only when the registry has never seen the name does the demo-
	// trained (or empty) model register under it.
	if !reg.Has(*defaultModel) {
		sv, err := newServingModel(*demo, *seed, backend)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
			return 1
		}
		if err := reg.Adopt(*defaultModel, sv); err != nil {
			fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
			return 1
		}
	} else {
		logger.Info("default model recovered from state directory", "model", *defaultModel, "dir", *stateDir)
	}
	sv, err := reg.Serving(nil, *defaultModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pulphd serve: default model: %v\n", err)
		return 1
	}
	baseCfg := hdc.EMGConfig()
	baseCfg.Backend = backend
	api := newRegistryAPIServer(reg, *defaultModel, baseCfg, *queueDepth, h.Serving)
	api.log = logger
	api.timeout = *predictTimeout
	api.retries = *predictRetries
	api.retryBackoff = *retryBackoff
	// On a burn-rate breach the flight recorder's current contents —
	// the last N tail events with full timelines — are dumped to
	// -state-dir/flight/ as Chrome trace JSON: the black box lands on
	// disk the moment the SLO says the incident is real.
	dumpDir := ""
	if *stateDir != "" {
		dumpDir = filepath.Join(*stateDir, "flight")
	}
	sf.observe(api, func(model string, st sloeng.Status) {
		logger.Warn("SLO burn-rate breach", "model", model,
			"fast_burn", st.Fast.Burn, "slow_burn", st.Slow.Burn,
			"fast_requests", st.Fast.Requests, "breaches", st.Breaches)
		ring := api.flight
		if dumpDir == "" || ring == nil {
			return
		}
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			logger.Warn("flight dump", "error", err)
			return
		}
		path := filepath.Join(dumpDir, fmt.Sprintf("breach-%s-%d.json", model, time.Now().UnixNano()))
		f, err := os.Create(path)
		if err != nil {
			logger.Warn("flight dump", "error", err)
			return
		}
		// The whole ring, not just the breaching model: cross-tenant
		// interference is usually the story of a shared-queue breach.
		err = ring.WriteChromeTrace(f, "")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			logger.Warn("flight dump", "error", err, "path", path)
			return
		}
		logger.Info("flight dump written", "path", path, "captures", ring.Captures())
	})
	if api.slo != nil {
		api.slo.RegisterMetrics(h.Registry)
	}
	api.readOnly = role == "replica"
	api.register(mux)
	// The generation-export endpoints mount on every registry-backed
	// role: primaries feed replicas, and a replica re-exporting lets
	// topologies chain (replica-of-replica) without a flag.
	replica.NewHandler(reg).Register(mux)
	var syncer *replica.Syncer
	if role == "replica" {
		syncer, err = replica.NewSyncer(replica.SyncConfig{
			Primary:  syncPrimary,
			Registry: reg,
			Interval: *sf.syncInterval,
			Spans:    api.spans,
			Flight:   api.flight,
			Log:      logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pulphd serve: %v\n", err)
			return 2
		}
		syncer.RegisterMetrics(h.Registry)
	}

	// Serve until a termination signal, then drain gracefully: stop
	// accepting (handlers answer 503) and let in-flight requests finish
	// under the Shutdown deadline.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if syncer != nil {
		go syncer.Run(ctx)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving",
		"addr", *addr, "model", *defaultModel, "classes", sv.Classes(),
		"state_dir", *stateDir,
		"endpoints", "/predict /learn /models /models/{name}/predict /models/{name}/learn /models/{name}/slo /healthz /readyz /metrics /debug/vars /debug/pprof/ /debug/spans /debug/flight")

	select {
	case err := <-errc:
		logger.Error("serve", "error", err)
		return 1
	case <-ctx.Done():
	}
	stopSignals()
	logger.Info("shutting down", "grace", *grace)
	api.beginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("shutdown incomplete", "error", err)
	}
	// Fold every model's WAL tail into a clean snapshot on the way out;
	// a crash that skips this loses nothing — the WAL replays — it just
	// restarts faster with one.
	if err := reg.Close(); err != nil {
		logger.Warn("registry close incomplete", "error", err)
	}
	logger.Info("shutdown complete")
	return 0
}
