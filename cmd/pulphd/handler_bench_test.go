package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	modreg "pulphd/internal/registry"
)

// handlerFixture drives the hot-route handlers in memory: an ephemeral
// registry whose default model has the EMG geometry (10,000-D, four
// channels, one-sample windows) and five classes, one request whose
// body is rewound per call, and a ResponseWriter that discards the
// answer. With nil serveArgs nothing observes: metrics, tracing, the
// SLO engine and the flight recorder are off. Otherwise the fixture
// observes as `pulphd serve` does with serveArgs parsed (none: serve's
// defaults): host metrics installed, the registry reporting per-model
// metrics into them, and request tracing, the flight recorder and the
// SLO engine set from the serve flags.
type handlerFixture struct {
	sv             *hdc.Serving
	predict, learn http.HandlerFunc
	req            *http.Request
	body           *rewindBody
	w              *discardWriter
	predictBody    []byte
	learnBodies    [][]byte
}

func newHandlerFixture(tb testing.TB, serveArgs []string) *handlerFixture {
	tb.Helper()
	cfg := hdc.EMGConfig()
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := newServeFlags(fs)
	if err := fs.Parse(serveArgs); err != nil {
		tb.Fatal(err)
	}
	observe := serveArgs != nil
	var h *obs.HostMetrics
	var regCfg modreg.Config
	if observe {
		h = enableHostMetrics()
		tb.Cleanup(func() {
			hdc.SetMetrics(nil)
			hdc.SetServingMetrics(nil)
		})
		regCfg.Metrics = h.Models
	}
	reg, err := modreg.Open(regCfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { reg.Close() })
	if err := reg.Adopt("default", sv); err != nil {
		tb.Fatal(err)
	}
	api := newRegistryAPIServer(reg, "default", cfg, *sf.queueDepth, nil)
	if observe {
		api.m = h.Serving
		sf.observe(api, nil)
	}
	fx := &handlerFixture{
		sv:      sv,
		predict: api.handlePredict,
		learn:   api.handleLearn,
		req:     httptest.NewRequest(http.MethodPost, "/predict", nil),
		body:    new(rewindBody),
		w:       &discardWriter{h: http.Header{}},
	}
	// Five gestures at distinct levels, with samples written as a
	// client's json.Marshal writes sensor floats.
	for c, label := range []string{"rest", "fist", "point", "pinch", "spread"} {
		base := 1.5 + 4*float64(c)
		window := [][]float64{{base + 0.318230412345678, base + 1.0731, base + 0.5558210937, base + 2.25}}
		if err := sv.Learn(label, window); err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(learnRequest{Label: label, Window: window})
		if err != nil {
			tb.Fatal(err)
		}
		fx.learnBodies = append(fx.learnBodies, body)
	}
	fx.predictBody, err = json.Marshal(predictRequest{Window: [][]float64{{9.7124980134, 10.913, 9.28812476, 11.0401}}})
	if err != nil {
		tb.Fatal(err)
	}
	fx.serve(fx.predict, fx.predictBody) // warm the pools
	return fx
}

// serve runs h on the fixture's request with body and returns the
// status code.
func (fx *handlerFixture) serve(h http.HandlerFunc, body []byte) int {
	fx.body.Reset(body)
	fx.req.Body = fx.body
	fx.w.code = http.StatusOK
	h(fx.w, fx.req)
	return fx.w.code
}

// rewindBody is a request body a benchmark rewinds instead of
// allocating a new one per request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// observeCases are the two ways the handler rung observes: off
// observes nothing; defaults observes as `pulphd serve` does without
// flags, so the gap between the two is what observing costs.
var observeCases = []struct {
	name      string
	serveArgs []string
}{{"off", nil}, {"defaults", []string{}}}

// BenchmarkHandlePredict is the HTTP/JSON handler rung of the layer
// ladder: one /predict per op through handlePredict, from reading the
// body to the appended answer, with the predict itself inside. The
// client, loopback and net/http's connection handling are not in it.
func BenchmarkHandlePredict(b *testing.B) {
	for _, c := range observeCases {
		b.Run(c.name, func(b *testing.B) {
			fx := newHandlerFixture(b, c.serveArgs)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if code := fx.serve(fx.predict, fx.predictBody); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}

// BenchmarkHandleLearn is the same rung for /learn, cycling over the
// five classes. The registry has no state directory, so it times the
// codec, the correction's drift predict, the encode and the publish,
// not a WAL fsync.
func BenchmarkHandleLearn(b *testing.B) {
	for _, c := range observeCases {
		b.Run(c.name, func(b *testing.B) {
			fx := newHandlerFixture(b, c.serveArgs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if code := fx.serve(fx.learn, fx.learnBodies[i%len(fx.learnBodies)]); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}
