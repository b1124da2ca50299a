package hdc

import (
	"context"
	"math/rand"
	"testing"

	"pulphd/internal/hv"
)

// benchServing builds a serving instance with `classes` learned
// classes — 256 is the many-class regime where the AM scan, not the
// encode, dominates a predict (the paper's EMG task has 5 classes).
func benchServing(b *testing.B, classes int) (*Serving, []sample) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	sv, err := NewServing(EMGConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	samples := syntheticSamples(sv.Config(), classes, classes, rng)
	learnAll(b, sv, samples)
	return sv, samples
}

// BenchmarkServingPredictUnsharded is encode plus a flat scan over all
// 256 prototypes on one core.
func BenchmarkServingPredictUnsharded(b *testing.B) {
	sv, samples := benchServing(b, 256)
	window := samples[0].Window
	ses := sv.NewSession()
	ctx := context.Background()
	ses.PredictCtx(ctx, nil, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses.PredictCtx(ctx, nil, window)
	}
}

// BenchmarkServingSearchUnsharded isolates the AM search (no encode).
func BenchmarkServingSearchUnsharded(b *testing.B) {
	sv, _ := benchServing(b, 256)
	am := sv.gen.Load().am
	query := hv.NewRandom(sv.Config().D, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.Nearest(query)
	}
}

// BenchmarkServingSearchNear is BenchmarkServingSearchUnsharded with a
// learned window's encoding as the query, the shape serving traffic
// has: once the scan meets the query's own class, every later block is
// dropped after its first few steps. The random query above is ≈ d/2
// from every class, which the scan cannot drop early.
func BenchmarkServingSearchNear(b *testing.B) {
	sv, samples := benchServing(b, 256)
	am := sv.gen.Load().am
	ses := sv.NewSession()
	ses.ctx.encodeTo(ses.ctx.query, samples[len(samples)/2].Window, sv.cfg.NGram)
	query := ses.ctx.query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.Nearest(query)
	}
}

// learnsPerModel is how many learns a learn rung times on one model
// before rebuilding it outside the timer.
const learnsPerModel = 1000

// benchLearn times Learn of one window into one class of a model of
// `classes` learned classes, the class pick chooses. Every learn grows
// that class's count planes, so the model is rebuilt outside the timer
// every learnsPerModel learns, and an op times the same work at any
// b.N.
func benchLearn(b *testing.B, classes int, pick func([]sample) sample) {
	var sv *Serving
	var s sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%learnsPerModel == 0 {
			b.StopTimer()
			var samples []sample
			sv, samples = benchServing(b, classes)
			s = pick(samples)
			b.StartTimer()
		}
		if err := sv.Learn(s.Label, s.Window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingLearn measures one online-learning publication:
// encode, accumulate, rebinarize one class, copy-on-write publish.
func BenchmarkServingLearn(b *testing.B) {
	benchLearn(b, 64, func(ss []sample) sample { return ss[0] })
}

// BenchmarkServingLearnWide is BenchmarkServingLearn at the wide-am
// workload's 1,029 classes, where the cost of a publish that grows
// with the class count shows. In first the learned class is class 0,
// in block 0, whose publish recomputes one drift; in last it is the
// last class, whose publish recomputes that row's eight anchor
// distances. Either is one pass of the row against the anchors.
func BenchmarkServingLearnWide(b *testing.B) {
	for _, bc := range []struct {
		name string
		pick func([]sample) sample
	}{
		{"first", func(ss []sample) sample { return ss[0] }},
		{"last", func(ss []sample) sample { return ss[len(ss)-1] }},
	} {
		b.Run(bc.name, func(b *testing.B) { benchLearn(b, 1029, bc.pick) })
	}
}
