package obs

import "time"

// This file defines the domain metric bundles the serving path hangs
// its instrumentation on. hdc.SetMetrics and hdc.SetServingMetrics
// install the inference and serving bundles; the default nil pointer
// disables recording, and every method is nil-safe so the
// instrumented call sites stay branchless beyond one compare.

// InferenceMetrics instruments the serving predict (hdc.Serving and
// hdc.Session).
type InferenceMetrics struct {
	// Predicts counts predicts; PredictNanos is their latency.
	Predicts     Counter
	PredictNanos Histogram
	// EncodeNanos / SearchNanos split instrumented per-request
	// predicts into the paper's two stages — window encoding vs AM
	// search — the per-stage lens of Table 3, per serving request.
	EncodeNanos Histogram
	SearchNanos Histogram
}

// RecordStages folds one staged predict (encode, then search) into
// the per-stage histograms.
func (m *InferenceMetrics) RecordStages(encode, search time.Duration) {
	if m == nil {
		return
	}
	m.EncodeNanos.Observe(encode)
	m.SearchNanos.Observe(search)
}

// RecordPredict folds one predict into the metrics.
func (m *InferenceMetrics) RecordPredict(d time.Duration) {
	if m == nil {
		return
	}
	m.Predicts.Inc()
	m.PredictNanos.Observe(d)
}

// ServingMetrics instruments the online-learning serving layer: the
// copy-on-write model generations of hdc.Serving and the requests of
// the /predict–/learn HTTP front end.
type ServingMetrics struct {
	// Learns counts Learn publications; LearnNanos is the time from
	// encode to generation publish.
	Learns     Counter
	LearnNanos Histogram
	// Requests counts /predict and /learn requests; Rejected counts
	// the ones refused: answered with a 4xx, or turned away with 503
	// while draining.
	Requests Counter
	Rejected Counter
	// Timeouts counts predict requests answered 504 because their
	// context was done (deadline, client gone) before the answer.
	Timeouts Counter
	// Retries counts predict attempts re-run after a recovered panic
	// (the bounded-backoff retry loop).
	Retries Counter
	// PanicsRecovered counts predict panics converted into retries or
	// 500 responses instead of process death.
	PanicsRecovered Counter
}

// RecordTimeout counts one predict request that hit its deadline.
func (m *ServingMetrics) RecordTimeout() {
	if m == nil {
		return
	}
	m.Timeouts.Inc()
}

// RecordRetry counts one re-attempted predict.
func (m *ServingMetrics) RecordRetry() {
	if m == nil {
		return
	}
	m.Retries.Inc()
}

// RecordPanicRecovered counts one panic converted into an error
// response.
func (m *ServingMetrics) RecordPanicRecovered() {
	if m == nil {
		return
	}
	m.PanicsRecovered.Inc()
}

// RecordPublish folds one generation publication, d from encode to
// publish, into the metrics. The published generation and class count
// are per model: the registry reports them as pulphd_model_*.
func (m *ServingMetrics) RecordPublish(d time.Duration) {
	if m == nil {
		return
	}
	m.Learns.Inc()
	m.LearnNanos.Observe(d)
}

// RecordRequest counts one serving request. Requests counts every
// request; one turned away before it is admitted (a draining server)
// counts in Rejected too.
func (m *ServingMetrics) RecordRequest(accepted bool) {
	if m == nil {
		return
	}
	m.Requests.Inc()
	if !accepted {
		m.Rejected.Inc()
	}
}

// RecordRejected counts one admitted request answered with a 4xx.
func (m *ServingMetrics) RecordRejected() {
	if m == nil {
		return
	}
	m.Rejected.Inc()
}
