package obs

import "time"

// This file defines the domain metric bundles the host packages hang
// their instrumentation on. Each bundle is installed with the
// package's SetMetrics (hdc, stream, parallel); the default nil
// pointer disables recording, and every method is nil-safe so the
// instrumented call sites stay branchless beyond one compare.

// InferenceMetrics instruments hdc.Predict and PredictBatch.
type InferenceMetrics struct {
	// Predicts counts Predict calls; PredictNanos is their latency.
	Predicts     Counter
	PredictNanos Histogram
	// BatchCalls / BatchWindows count PredictBatch invocations and
	// the windows they classified; BatchNanos is whole-call latency.
	BatchCalls   Counter
	BatchWindows Counter
	BatchNanos   Histogram
	// BatchSerialFallbacks counts batch calls that ran without a
	// worker pool (nil pool — the serial fallback path).
	BatchSerialFallbacks Counter
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

// RecordPredict folds one Predict call into the metrics.
func (m *InferenceMetrics) RecordPredict(d time.Duration) {
	if m == nil {
		return
	}
	m.Predicts.Inc()
	m.PredictNanos.Observe(d)
}

// RecordBatch folds one PredictBatch call over n windows into the
// metrics; serial marks the nil-pool fallback.
func (m *InferenceMetrics) RecordBatch(n int, serial bool, d time.Duration) {
	if m == nil {
		return
	}
	m.BatchCalls.Inc()
	m.BatchWindows.Add(int64(n))
	m.BatchNanos.Observe(d)
	if serial {
		m.BatchSerialFallbacks.Inc()
	}
}

// StreamMetrics instruments stream.Push and Replay.
type StreamMetrics struct {
	// Samples counts samples pushed (directly or via Replay);
	// Decisions counts decisions emitted.
	Samples   Counter
	Decisions Counter
	// Replays counts Replay calls; ReplayNanos is their latency.
	Replays     Counter
	ReplayNanos Histogram
	// Corrections counts label-corrected windows folded back into an
	// online learner via stream.Correct.
	Corrections Counter
	// PredictFailures counts pushed windows whose prediction panicked
	// (e.g. a serving model with no classes yet) and were dropped
	// instead of killing the stream.
	PredictFailures Counter
	// Drift, when non-nil, receives the predicted-vs-corrected label
	// pairs stream.Correct observes (the online accuracy signal).
	Drift *DriftMonitor
}

// RecordSample counts one pushed sample.
func (m *StreamMetrics) RecordSample() {
	if m == nil {
		return
	}
	m.Samples.Inc()
}

// RecordDecision counts one emitted decision.
func (m *StreamMetrics) RecordDecision() {
	if m == nil {
		return
	}
	m.Decisions.Inc()
}

// RecordReplay folds one Replay call (samples consumed, decisions
// emitted, wall time) into the metrics.
func (m *StreamMetrics) RecordReplay(samples, decisions int, d time.Duration) {
	if m == nil {
		return
	}
	m.Replays.Inc()
	m.Samples.Add(int64(samples))
	m.Decisions.Add(int64(decisions))
	m.ReplayNanos.Observe(d)
}

// RecordCorrection counts one label-corrected window learned online.
func (m *StreamMetrics) RecordCorrection() {
	if m == nil {
		return
	}
	m.Corrections.Inc()
}

// RecordPredictFailure counts one dropped decision whose prediction
// panicked.
func (m *StreamMetrics) RecordPredictFailure() {
	if m == nil {
		return
	}
	m.PredictFailures.Inc()
}

// RecordFeedback forwards one predicted-vs-actual label pair to the
// drift monitor (a no-op without one installed).
func (m *StreamMetrics) RecordFeedback(predicted, actual string) {
	if m == nil {
		return
	}
	m.Drift.RecordFeedback(predicted, actual)
}

// ServingMetrics instruments the online-learning serving layer: the
// copy-on-write model generations of hdc.Serving and the requests of
// the /predict–/learn HTTP front end.
type ServingMetrics struct {
	// Learns counts Learn publications; LearnNanos is the time from
	// encode to generation publish.
	Learns     Counter
	LearnNanos Histogram
	// Generation is the id of the currently published model snapshot
	// (monotonically increasing); Classes is its class count.
	Generation Gauge
	Classes    Gauge
	// Requests counts /predict and /learn requests; Rejected counts
	// the ones refused (429 backpressure, malformed bodies, draining).
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
	// ModelBytes is the resident footprint of the published model
	// generation (IM + CIM + AM prototypes) in bytes — the gauge that
	// makes the rematerializing backend's footprint win visible.
	ModelBytes Gauge
}

// RecordFootprint updates the resident model footprint gauge.
func (m *ServingMetrics) RecordFootprint(bytes int) {
	if m == nil {
		return
	}
	m.ModelBytes.Set(int64(bytes))
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

// RecordPublish folds one generation publication into the metrics.
func (m *ServingMetrics) RecordPublish(generation uint64, classes int, d time.Duration) {
	if m == nil {
		return
	}
	m.Learns.Inc()
	m.LearnNanos.Observe(d)
	m.Generation.Set(int64(generation))
	m.Classes.Set(int64(classes))
}

// RecordModel updates the generation gauges without counting a learn
// (initial publication, server startup).
func (m *ServingMetrics) RecordModel(generation uint64, classes int) {
	if m == nil {
		return
	}
	m.Generation.Set(int64(generation))
	m.Classes.Set(int64(classes))
}

// RecordRequest counts one serving request. Requests counts every
// request; rejected ones (backpressure, malformed bodies) count in
// Rejected too.
func (m *ServingMetrics) RecordRequest(accepted bool) {
	if m == nil {
		return
	}
	m.Requests.Inc()
	if !accepted {
		m.Rejected.Inc()
	}
}

// FaultMetrics instruments the fault-injection layer (internal/fault):
// how many corruption calls ran and how many bits they flipped.
type FaultMetrics struct {
	// Injections counts corruption calls that had injection enabled
	// (BER > 0); FlippedBits counts the bits they actually flipped.
	Injections  Counter
	FlippedBits Counter
}

// RecordInjection folds one corruption call that flipped n bits.
func (m *FaultMetrics) RecordInjection(n int) {
	if m == nil {
		return
	}
	m.Injections.Inc()
	m.FlippedBits.Add(int64(n))
}

// PoolMetrics instruments parallel.Pool collectives.
type PoolMetrics struct {
	// Collectives counts collective calls; Tasks counts the chunks
	// they actually dispatched (including the caller's chunk 0) and
	// Slots the chunks they could have dispatched (pool width), so
	// Tasks/Slots is the mean worker utilization.
	Collectives Counter
	Tasks       Counter
	Slots       Counter
	// SerialFallbacks counts collectives that ran entirely on the
	// calling goroutine (single chunk, or a closed pool).
	SerialFallbacks Counter
}

// RecordCollective folds one collective that ran active of workers
// possible chunks into the metrics.
func (m *PoolMetrics) RecordCollective(active, workers int) {
	if m == nil {
		return
	}
	m.Collectives.Inc()
	m.Tasks.Add(int64(active))
	m.Slots.Add(int64(workers))
	if active <= 1 {
		m.SerialFallbacks.Inc()
	}
}
