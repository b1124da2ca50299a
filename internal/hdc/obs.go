package hdc

import (
	"sync/atomic"

	"pulphd/internal/obs"
)

// metricsPtr holds the package's inference metrics. The default nil
// disables recording; the hot paths pay one atomic load and one
// compare per call either way, and allocate nothing.
var metricsPtr atomic.Pointer[obs.InferenceMetrics]

// SetMetrics installs (or, with nil, removes) the metrics sink for
// the serving predict (Serving.Predict, Serving.PredictTraced and
// Session.PredictCtx). Safe to call at any time, including while
// inference is running.
func SetMetrics(m *obs.InferenceMetrics) { metricsPtr.Store(m) }

// metrics returns the installed sink, nil when disabled.
func metrics() *obs.InferenceMetrics { return metricsPtr.Load() }

// servingMetricsPtr holds the serving-layer metrics (learn
// publications and their latency). Nil disables recording, as above.
var servingMetricsPtr atomic.Pointer[obs.ServingMetrics]

// SetServingMetrics installs (or, with nil, removes) the metrics sink
// for Serving: generation publications by Learn with their latency.
// Safe to call at any time, including while serving is running.
func SetServingMetrics(m *obs.ServingMetrics) { servingMetricsPtr.Store(m) }

// servingMetrics returns the installed sink, nil when disabled.
func servingMetrics() *obs.ServingMetrics { return servingMetricsPtr.Load() }
