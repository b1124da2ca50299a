package hdc

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
)

// raceEnabled is set by race_test.go under the race detector, which
// makes sync.Pool drop a random quarter of what is put back, so no
// allocation count of a pooled call holds.
var raceEnabled bool

// ctxServing builds a trained serving model for the context-path tests.
func ctxServing(t *testing.T) (*Serving, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	sv, err := NewServing(servingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	learnAll(t, sv, syntheticSamples(sv.Config(), 5, 25, rng))
	return sv, syntheticSamples(sv.Config(), 5, 1, rng)[0].Window
}

// TestPredictCtxMatchesPredict pins that the instrumented path is
// bit-identical to the plain one, spans and metrics on and off, and
// the session's predict to the pooled one.
func TestPredictCtxMatchesPredict(t *testing.T) {
	sv, w := ctxServing(t)
	wantLabel, wantDist := sv.Predict(w)
	if label, dist := sv.NewSession().PredictCtx(context.Background(), nil, w); label != wantLabel || dist != wantDist {
		t.Errorf("Session.PredictCtx: (%q,%d), want (%q,%d)", label, dist, wantLabel, wantDist)
	}

	for _, tc := range []struct {
		name    string
		rec     *obs.Spans
		metrics *obs.InferenceMetrics
	}{
		{"plain", nil, nil},
		{"spans", obs.NewSpans(32), nil},
		{"metrics", nil, &obs.InferenceMetrics{}},
		{"spans and metrics", obs.NewSpans(32), &obs.InferenceMetrics{}},
	} {
		SetMetrics(tc.metrics)
		label, dist, _ := sv.PredictTraced(tc.rec, w)
		SetMetrics(nil)
		if label != wantLabel || dist != wantDist {
			t.Errorf("%s: (%q,%d), want (%q,%d)", tc.name, label, dist, wantLabel, wantDist)
		}
		if m := tc.metrics; m != nil && (m.Predicts.Value() != 1 || m.EncodeNanos.Snapshot().Count != 1) {
			t.Errorf("%s: predicts=%d encodes=%d, want 1/1", tc.name, m.Predicts.Value(), m.EncodeNanos.Snapshot().Count)
		}
	}
}

// TestServingPredictCtxReportsScannedGeneration pins the pooled
// predict's generation to the one it scanned, before and after a
// publication, and its answer to Predict's.
func TestServingPredictCtxReportsScannedGeneration(t *testing.T) {
	sv, w := ctxServing(t)
	for i := 0; i < 2; i++ {
		wantLabel, wantDist := sv.Predict(w)
		label, dist, gen := sv.PredictTraced(nil, w)
		if label != wantLabel || dist != wantDist || gen != sv.Generation() {
			t.Fatalf("PredictTraced = (%q,%d,%d), want (%q,%d,%d)",
				label, dist, gen, wantLabel, wantDist, sv.Generation())
		}
		if err := sv.Learn("rest", w); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServingPredictPanicDropsSession pins that a pooled predict which
// panics never files its scratch back: the next pooled call must not
// get the scratch the panic left half written. One P and no GC keep
// the pool's private slot deterministic.
func TestServingPredictPanicDropsSession(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sv, _ := ctxServing(t)
	bc := sv.scratch() // the pooled scratch the training learns used
	sv.release(bc)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("predict on a malformed window did not panic")
			}
		}()
		sv.PredictTraced(nil, [][]float64{{1}}) // one channel of four
	}()
	if sv.scratch() == bc {
		t.Fatal("the scratch of a panicked predict went back to the pool")
	}
}

// TestPooledScratchServesItsGeometry pins what the process-wide pools
// hold: scratch goes back unbound from the model's item memories, so
// nothing pooled keeps a model's tables reachable; a model of another
// seed but the same geometry reuses it; a model of another geometry
// gets new scratch. One P and no GC keep the pool's private slot
// deterministic.
func TestPooledScratchServesItsGeometry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sv, w := ctxServing(t)
	pool := &scratchPools[sv.cfg.Backend]
	for pool.Get() != nil { // drain what the training learns filed
	}
	// A Put may be dropped (the race detector drops one in four), so
	// retry until a Get hands the scratch back.
	var bc *batchCtx
	for i := 0; i < 64 && bc == nil; i++ {
		sv.Predict(w)
		bc, _ = pool.Get().(*batchCtx)
	}
	if bc == nil {
		t.Fatal("pooled predicts never filed their scratch back")
	}
	if bc.spatial.im != nil || bc.spatial.cim != nil {
		t.Fatal("pooled scratch still points at its last model's item memories")
	}
	cfg := sv.Config()
	cfg.Seed++
	sameGeom, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got *batchCtx
	for i := 0; i < 64 && got != bc; i++ {
		pool.Put(bc)
		got = sameGeom.scratch()
	}
	if got != bc || got.spatial.im != sameGeom.im || got.spatial.cim != sameGeom.cim {
		t.Fatal("a model of the same geometry did not get the pooled scratch, bound to its own item memories")
	}
	sameGeom.release(bc)
	cfg.D += 64
	wider, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wider.scratch() == bc {
		t.Fatal("a model of another dimension got scratch sized for the pooled geometry")
	}
}

// TestPredictCtxSpanTree checks the recorded span topology: a predict
// root under the staged parent, with encode and am.search children.
func TestPredictCtxSpanTree(t *testing.T) {
	sv, w := ctxServing(t)

	rec := obs.NewSpans(64)
	rec.Reset(1)
	root := rec.Start("request", obs.NoSpan)
	rec.SetParent(root)
	if _, dist, _ := sv.PredictTraced(rec, w); dist < 0 {
		t.Fatal("bad distance")
	}
	rec.End(root)

	byName := map[string][]obs.Span{}
	ids := map[string]obs.SpanID{}
	for i := 0; i < rec.Len(); i++ {
		sp := rec.Span(i)
		byName[sp.Name] = append(byName[sp.Name], sp)
		ids[sp.Name] = obs.SpanID(i)
	}
	for name, want := range map[string]int{
		"request": 1, "predict": 1, "encode": 1, "am.search": 1,
	} {
		if len(byName[name]) != want {
			t.Fatalf("%d %q spans, want %d (all: %v)", len(byName[name]), name, want, byName)
		}
	}
	predict := byName["predict"][0]
	if predict.Parent != root {
		t.Errorf("predict parented to %d, want root %d", predict.Parent, root)
	}
	search := byName["am.search"][0]
	if search.Attrs[0].Key != "classes" || search.Attrs[0].Value != int64(sv.Classes()) {
		t.Errorf("am.search attrs %+v", search.Attrs)
	}
	for _, name := range []string{"encode", "am.search"} {
		sp := byName[name][0]
		if sp.Parent != ids["predict"] || sp.End < sp.Start {
			t.Errorf("%s span %+v: want an ended child of predict", name, sp)
		}
	}
	// The predict never restages the recorder: the caller's parent
	// stays in place for its next stage.
	if rec.Parent() != root {
		t.Errorf("Parent() = %d, want %d", rec.Parent(), root)
	}
}

// TestLearnCtxSpans checks the learn path records its encode and
// publish spans with the generation annotation.
func TestLearnCtxSpans(t *testing.T) {
	sv, w := ctxServing(t)
	rec := obs.NewSpans(16)
	rec.Reset(2)
	gen := sv.Generation()
	if err := sv.LearnTraced(rec, "rest", w); err != nil {
		t.Fatal(err)
	}
	var publish *obs.Span
	names := map[string]int{}
	for i := 0; i < rec.Len(); i++ {
		sp := rec.Span(i)
		names[sp.Name]++
		if sp.Name == "learn.publish" {
			publish = &sp
		}
	}
	if names["learn.encode"] != 1 || names["learn.publish"] != 1 {
		t.Fatalf("span names %v", names)
	}
	if publish.Attrs[0] != (obs.Attr{Key: "generation", Value: int64(gen + 1)}) {
		t.Errorf("publish attrs %+v, want generation %d", publish.Attrs, gen+1)
	}
	// A nil recorder stays usable.
	if err := sv.LearnTraced(nil, "rest", w); err != nil {
		t.Fatal(err)
	}
}

// TestPredictCtxAllocationFree pins the acceptance criterion: with no
// recorder and no metrics installed, PredictCtx allocates nothing; and
// even fully instrumented (metrics sink plus span recorder) the
// pooled PredictTraced allocates nothing in the steady state.
func TestPredictCtxAllocationFree(t *testing.T) {
	sv, w := ctxServing(t)
	ses := sv.NewSession()
	ctx := context.Background()
	ses.PredictCtx(ctx, nil, w) // warm scratch

	check := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, allocs)
		}
	}
	check("PredictCtx uninstrumented", func() { ses.PredictCtx(ctx, nil, w) })

	SetMetrics(&obs.InferenceMetrics{})
	defer SetMetrics(nil)
	rec := obs.NewSpans(64)
	if raceEnabled {
		t.Log("pooled scratch allocation counts do not hold under the race detector")
		return
	}
	check("PredictTraced instrumented", func() {
		rec.Reset(1)
		sv.PredictTraced(rec, w)
	})
}

// TestServingConcurrentPredictLearnWithSpans race-hammers the span
// recorder through the full serving path: several goroutines run
// PredictTraced with their own recorders, copying each finished
// timeline into a ring, while a learner publishes generations through
// LearnTraced with another recorder, and an exporter renders the ring
// concurrently.
func TestServingConcurrentPredictLearnWithSpans(t *testing.T) {
	sv, w := ctxServing(t)
	iters := 200
	if testing.Short() {
		iters = 40
	}
	ring := flight.NewRing(8, 64)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := obs.NewSpans(64)
			for i := 0; i < iters; i++ {
				rec.Reset(uint64(g*iters + i))
				root := rec.Start("request", obs.NoSpan)
				rec.SetParent(root)
				if label, _, _ := sv.PredictTraced(rec, w); label == "" {
					t.Error("empty label")
					return
				}
				rec.End(root)
				ring.Capture(rec, "", 0, 0, time.Unix(0, 0), 0)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := obs.NewSpans(16)
		for i := 0; i < iters/2; i++ {
			rec.Reset(uint64(1000 + i))
			if err := sv.LearnTraced(rec, "rest", w); err != nil {
				t.Errorf("LearnTraced: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			var sink countingWriter
			if err := ring.WriteChromeTrace(&sink, ""); err != nil {
				t.Errorf("export: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if ring.Len() == 0 {
		t.Fatal("no timelines retained")
	}
}

// countingWriter discards exporter output.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
