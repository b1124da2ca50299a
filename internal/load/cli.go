package load

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Main is the hdload command behind the `pulphd hdload` subcommand.
// Exit codes: 0 success, 1 SLO violation or run failure, 2 flag
// errors.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://localhost:8099", "base `URL` of the pulphd serve instance")
	targets := fs.String("targets", "", "comma-separated base `URLs` to spread requests over round-robin (a replica set, or several fronts); reports per-target goodput and overrides -target")
	rates := fs.String("rates", "", "open-loop sweep: comma-separated arrival `rates` per second, e.g. 250,500,1000,2000")
	rate := fs.Float64("rate", 0, "open-loop single phase: arrivals per second (shorthand for -rates with one value)")
	concs := fs.String("concurrencies", "", "closed-loop sweep: comma-separated worker `counts`, e.g. 1,4,16")
	conc := fs.Int("concurrency", 0, "closed-loop single phase: worker count")
	think := fs.Duration("think", 0, "closed-loop think time between a worker's answer and its next request")
	duration := fs.Duration("duration", 5*time.Second, "measured interval per phase")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unrecorded warmup per phase")
	learnFrac := fs.Float64("learn-frac", 0, "fraction of requests sent to /learn instead of /predict")
	timeout := fs.Duration("timeout", 5*time.Second, "client-side per-request timeout")
	seed := fs.Int64("seed", 2018, "EMG campaign seed for the replayed session traffic")
	seedModel := fs.Int("seed-model", 0, "POST this many /learn windows before the sweep to train an empty server (-1: the whole training split)")
	model := fs.String("model", "", "registry model `name` to target via /models/{name}/predict and /models/{name}/learn; empty uses the legacy routes")
	label := fs.String("label", "default", "run `label` in the JSON report (convention: the server's -im-backend value)")
	out := fs.String("out", "", "merge the run into this JSON report `file` (e.g. benchmarks/BENCH_serving.json); empty writes no file")
	sloExpr := fs.String("slo", "", "capacity gate, e.g. 'p99<20ms,errors<5%,knee>500' — violations exit 1 (see internal/load/slo.go)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: hdload [-target url] (-rates r1,r2,... | -rate r | -concurrencies c1,c2,... | -concurrency c) [flags]\n\n")
		fmt.Fprintf(stderr, "Load harness for `pulphd serve`: open-loop (fixed arrival rate) or\n")
		fmt.Fprintf(stderr, "closed-loop (fixed concurrency) phases replaying EMG session traffic\n")
		fmt.Fprintf(stderr, "as a /predict+/learn mix, reporting HDR-quantile latency (p50/p99/p999),\n")
		fmt.Fprintf(stderr, "goodput and 429/504/500 rates per phase, with an optional SLO gate and\n")
		fmt.Fprintf(stderr, "a machine-readable report for cross-PR capacity tracking.\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	phases, err := parsePhases(*rates, *rate, *concs, *conc)
	if err != nil {
		fmt.Fprintf(stderr, "hdload: %v\n", err)
		fs.Usage()
		return 2
	}
	slo, err := ParseSLO(*sloExpr)
	if err != nil {
		fmt.Fprintf(stderr, "hdload: %v\n", err)
		return 2
	}

	var targetList []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			targetList = append(targetList, t)
		}
	}
	if len(targetList) > 0 {
		// Seeding and flight fetches address the first endpoint; against
		// a front that lands on the primary anyway.
		*target = targetList[0]
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "hdload: preparing EMG session traffic (seed %d)\n", *seed)
	traffic, err := NewEMGTraffic(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "hdload: %v\n", err)
		return 1
	}
	client := NewClient(*timeout)
	if *seedModel != 0 {
		n := *seedModel
		if n < 0 {
			n = 0 // SeedModel treats ≤0 as "all"
		}
		learnPath := "/learn"
		if *model != "" {
			learnPath = "/models/" + *model + "/learn"
		}
		fmt.Fprintf(stdout, "hdload: seeding model via %s\n", learnPath)
		if err := traffic.SeedNamedModel(ctx, client, *target, *model, n); err != nil {
			fmt.Fprintf(stderr, "hdload: %v\n", err)
			return 1
		}
	}

	var results []Result
	var flightSeq uint64 // last capture seen, so each phase attaches only its own tail events
	for _, ph := range phases {
		opts := Options{
			Target:      *target,
			Targets:     targetList,
			Rate:        ph.rate,
			Concurrency: ph.concurrency,
			Think:       *think,
			Duration:    *duration,
			Warmup:      *warmup,
			LearnFrac:   *learnFrac,
			Model:       *model,
			Timeout:     *timeout,
			Traffic:     traffic,
			Client:      client,
		}
		res, err := RunPhase(ctx, opts)
		if err != nil {
			fmt.Fprintf(stderr, "hdload: %v\n", err)
			return 1
		}
		// Attach the phase's worst tail events from the server's flight
		// recorder; a server without one (404) just yields none.
		if events, ferr := FetchFlight(ctx, client, *target, *model); ferr != nil {
			fmt.Fprintf(stderr, "hdload: flight fetch failed (continuing): %v\n", ferr)
		} else if len(events) > 0 {
			res.Flight = WorstOffenders(events, flightSeq, 3)
			if s := maxSeq(events); s > flightSeq {
				flightSeq = s
			}
			if len(res.Flight) > 0 {
				fmt.Fprintf(stdout, "flight: %d tail events this phase, worst %.2f ms (%s)\n",
					len(res.Flight), res.Flight[0].DurationMs, res.Flight[0].Trigger)
			}
		}
		for _, tr := range res.PerTarget {
			fmt.Fprintf(stdout, "target %s: sent %d ok %d goodput %.1f/s\n", tr.Target, tr.Sent, tr.OK, tr.GoodputRPS)
		}
		results = append(results, res)
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "hdload: interrupted after %d phases\n", len(results))
			break
		}
	}

	WriteTable(stdout, results)
	kneeLoad := 0.0
	if slo != nil {
		if knee, ok := slo.Knee(results); ok {
			kneeLoad = phaseLoad(knee)
			fmt.Fprintf(stdout, "knee: %s load %.5g meets the point SLOs (goodput %.1f/s, p99 %.2f ms)\n",
				knee.Mode, kneeLoad, knee.GoodputRPS, knee.P99Ms)
		}
	}

	if *out != "" {
		run := NewRun(*label, *target, slo.String(), kneeLoad, results)
		if _, err := MergeRun(*out, run); err != nil {
			fmt.Fprintf(stderr, "hdload: writing report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "report: merged run %q into %s\n", *label, *out)
	}

	if violations := slo.Violations(results); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "hdload: SLO violation: %s\n", v)
		}
		return 1
	}
	if slo != nil {
		fmt.Fprintf(stdout, "SLO %q: pass\n", slo.String())
	}
	return 0
}

// phaseSpec is one sweep point: exactly one of rate/concurrency set.
type phaseSpec struct {
	rate        float64
	concurrency int
}

// parsePhases resolves the four phase flags into an ordered sweep.
func parsePhases(rates string, rate float64, concs string, conc int) ([]phaseSpec, error) {
	openSet := rates != "" || rate > 0
	closedSet := concs != "" || conc > 0
	if openSet && closedSet {
		return nil, fmt.Errorf("open-loop (-rates/-rate) and closed-loop (-concurrencies/-concurrency) flags are mutually exclusive")
	}
	if !openSet && !closedSet {
		return nil, fmt.Errorf("pick a mode: -rates/-rate (open loop) or -concurrencies/-concurrency (closed loop)")
	}
	var out []phaseSpec
	switch {
	case rates != "":
		for _, f := range strings.Split(rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad rate %q in -rates", f)
			}
			out = append(out, phaseSpec{rate: v})
		}
	case rate > 0:
		out = append(out, phaseSpec{rate: rate})
	case concs != "":
		for _, f := range strings.Split(concs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad concurrency %q in -concurrencies", f)
			}
			out = append(out, phaseSpec{concurrency: v})
		}
	default:
		out = append(out, phaseSpec{concurrency: conc})
	}
	return out, nil
}

// WriteTable renders the per-phase results as an aligned text table.
func WriteTable(w io.Writer, results []Result) {
	fmt.Fprintf(w, "%-7s %9s %9s %9s %7s %7s %7s %7s %9s %9s %9s %9s %9s\n",
		"mode", "load", "sent", "ok", "429", "504", "500", "other",
		"goodput/s", "p50ms", "p99ms", "p999ms", "maxms")
	for _, r := range results {
		fmt.Fprintf(w, "%-7s %9.5g %9d %9d %7d %7d %7d %7d %9.1f %9.2f %9.2f %9.2f %9.2f\n",
			r.Mode, phaseLoad(r), r.Sent, r.OK, r.Shed429, r.Timeout504, r.Err500, r.OtherErr,
			r.GoodputRPS, r.P50Ms, r.P99Ms, r.P999Ms, r.MaxMs)
	}
}
