package hdc

import (
	"context"
	"math/rand"
	"testing"

	"pulphd/internal/hv"
	"pulphd/internal/obs"
)

// servingConfig is a small geometry that keeps these tests fast.
func servingConfig() Config {
	cfg := EMGConfig()
	cfg.D = 640
	return cfg
}

// sample is one labelled training window.
type sample struct {
	Label  string
	Window [][]float64
}

// syntheticSamples draws n labelled windows over k classes, each
// class a noisy cloud around its own operating point so the task is
// learnable.
func syntheticSamples(cfg Config, k, n int, rng *rand.Rand) []sample {
	samples := make([]sample, n)
	span := cfg.MaxLevel - cfg.MinLevel
	for i := range samples {
		class := i % k
		w := make([][]float64, cfg.Window)
		for t := range w {
			row := make([]float64, cfg.Channels)
			for c := range row {
				center := cfg.MinLevel + span*(float64((class*7+c*3)%k)+0.5)/float64(k)
				row[c] = center + rng.NormFloat64()*span*0.02
			}
			w[t] = row
		}
		samples[i] = sample{Label: string(rune('A' + class)), Window: w}
	}
	return samples
}

// learnAll teaches sv every sample in order, one generation each.
func learnAll(t testing.TB, sv *Serving, samples []sample) {
	t.Helper()
	for _, s := range samples {
		if err := sv.Learn(s.Label, s.Window); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServingLearnPublishesMonotonicGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sv, err := NewServing(servingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 0 || sv.Classes() != 0 {
		t.Fatalf("fresh serving at generation %d with %d classes", sv.Generation(), sv.Classes())
	}
	samples := syntheticSamples(sv.Config(), 3, 12, rng)
	for i, s := range samples {
		if err := sv.Learn(s.Label, s.Window); err != nil {
			t.Fatal(err)
		}
		if got := sv.Generation(); got != uint64(i+1) {
			t.Fatalf("after learn %d: generation %d, want %d", i, got, i+1)
		}
	}
	if sv.Classes() != 3 {
		t.Fatalf("classes %d, want 3", sv.Classes())
	}
	// The learned model classifies its own training samples.
	correct := 0
	for _, s := range samples {
		if label, _ := sv.Predict(s.Window); label == s.Label {
			correct++
		}
	}
	if correct < len(samples)*3/4 {
		t.Fatalf("only %d/%d training samples recalled", correct, len(samples))
	}
}

func TestServingLearnValidates(t *testing.T) {
	sv, err := NewServing(servingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Learn("x", [][]float64{{1, 2}}); err == nil {
		t.Fatal("Learn accepted a window with the wrong channel count")
	}
	if err := sv.Learn("x", nil); err == nil {
		t.Fatal("Learn accepted an empty window")
	}
	w := syntheticSamples(sv.Config(), 1, 1, rand.New(rand.NewSource(1)))[0].Window
	if err := sv.Learn("", w); err == nil {
		t.Fatal("Learn accepted an empty label")
	}
	if sv.Generation() != 0 {
		t.Fatalf("rejected learns advanced the generation to %d", sv.Generation())
	}
}

func TestServingFromClassifierSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cls := MustNew(servingConfig())
	samples := syntheticSamples(cls.Config(), 4, 16, rng)
	for _, s := range samples {
		cls.Train(s.Label, s.Window)
	}
	sv := cls.Serving()
	if sv.Generation() != 0 {
		t.Fatalf("snapshot generation %d, want 0", sv.Generation())
	}
	if sv.Classes() != cls.AM().Classes() {
		t.Fatalf("snapshot classes %d, want %d", sv.Classes(), cls.AM().Classes())
	}
	// Serving and classifier agree on every training window.
	for _, s := range samples {
		wantLabel, wantDist := cls.Predict(s.Window)
		label, dist := sv.Predict(s.Window)
		if label != wantLabel || dist != wantDist {
			t.Fatalf("serving (%q,%d) disagrees with classifier (%q,%d)", label, dist, wantLabel, wantDist)
		}
	}
	// Learning on the serving side must not move the classifier.
	before, _ := cls.Predict(samples[0].Window)
	for i := 0; i < 8; i++ {
		if err := sv.Learn("Z", samples[i%len(samples)].Window); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := cls.Predict(samples[0].Window)
	if before != after {
		t.Fatal("serving Learn leaked into the source classifier")
	}
	if sv.Classes() != cls.AM().Classes()+1 {
		t.Fatalf("serving classes %d after new-class learns", sv.Classes())
	}
}

func TestServingFixedPrototypeRejectsLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := servingConfig()
	cls := MustNew(cfg)
	cls.AM().SetPrototype("fixed", hv.NewRandom(cfg.D, rng))
	sv := cls.Serving()
	w := syntheticSamples(cfg, 1, 1, rng)[0].Window
	if err := sv.Learn("fixed", w); err == nil {
		t.Fatal("Learn on a fixed-prototype class did not error")
	}
	if sv.Generation() != 0 {
		t.Fatalf("rejected learn published generation %d", sv.Generation())
	}
	// Other classes stay learnable beside the fixed one.
	if err := sv.Learn("open", w); err != nil {
		t.Fatalf("Learn of a new class beside a fixed one: %v", err)
	}
}

// TestServingPredictBatch pins a Session over a batch of windows to
// the pooled predict, window by window.
func TestServingPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sv, err := NewServing(servingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	learnAll(t, sv, syntheticSamples(sv.Config(), 6, 30, rng))
	test := syntheticSamples(sv.Config(), 6, 15, rng)
	windows := make([][][]float64, len(test))
	for i := range test {
		windows[i] = test[i].Window
	}
	ses := sv.NewSession()
	for i, w := range windows {
		got, gotDist := ses.PredictCtx(context.Background(), nil, w)
		label, dist := sv.Predict(w)
		if got != label || gotDist != dist {
			t.Fatalf("window %d: session (%q,%d) != predict (%q,%d)", i, got, gotDist, label, dist)
		}
	}
}

// TestServingPredictAllocationFree pins a Session's steady state:
// Session.PredictCtx over a batch of windows allocates nothing, with
// the metrics sinks installed and without.
func TestServingPredictAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sv, err := NewServing(servingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	learnAll(t, sv, syntheticSamples(sv.Config(), 5, 20, rng))
	w := syntheticSamples(sv.Config(), 5, 1, rng)[0].Window
	windows := [][][]float64{w, w, w}
	ses := sv.NewSession()
	ctx := context.Background()
	predictAll := func() {
		for _, w := range windows {
			ses.PredictCtx(ctx, nil, w)
		}
	}
	predictAll()

	check := func(name string) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, predictAll); allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, allocs)
		}
	}
	check("Session.PredictCtx")
	SetMetrics(&obs.InferenceMetrics{})
	SetServingMetrics(&obs.ServingMetrics{})
	t.Cleanup(func() {
		SetMetrics(nil)
		SetServingMetrics(nil)
	})
	check("Session.PredictCtx (metrics)")
}
