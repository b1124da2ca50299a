package stream

import (
	"math/rand"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/parallel"
)

// servingModel builds an online-learning model over the same two
// patterns trainedClassifier uses, one Learn per window.
func servingModel(t *testing.T, ngram int) *hdc.Serving {
	t.Helper()
	cfg := hdc.EMGConfig()
	cfg.D = 1000
	cfg.NGram = ngram
	cfg.Window = ngram
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	patterns := map[string][]float64{
		"a": {16, 3, 8, 2}, "b": {3, 14, 2, 10},
	}
	for i := 0; i < 9; i++ {
		for _, label := range []string{"a", "b"} {
			w := make([][]float64, ngram)
			for t0 := range w {
				row := make([]float64, 4)
				for c := range row {
					row[c] = patterns[label][c] + rng.NormFloat64()
				}
				w[t0] = row
			}
			if err := sv.Learn(label, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sv
}

// TestStreamOverServing runs a stream against the online-learning
// predictor: decisions flow as with the offline classifier, and
// Correct publishes a new generation without resetting the stream.
func TestStreamOverServing(t *testing.T) {
	sv := servingModel(t, 3)
	s, err := New(sv, Config{DetectionStride: 1, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := sv.Generation()
	var last Decision
	for i := 0; i < 10; i++ {
		if d, ok := s.Push([]float64{16, 3, 8, 2}); ok {
			last = d
		}
	}
	if last.Raw != "a" {
		t.Fatalf("pattern a classified as %q", last.Raw)
	}
	// The user corrects the last decision to a brand-new gesture.
	if err := s.Correct("c"); err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != gen+1 {
		t.Fatalf("Correct left generation at %d, want %d", sv.Generation(), gen+1)
	}
	// The window just learned as "c" is now nearest to "c": the next
	// decision over the same samples flips without a Reset.
	var after Decision
	for i := 0; i < 3; i++ {
		if d, ok := s.Push([]float64{16, 3, 8, 2}); ok {
			after = d
		}
	}
	if after.Raw != "c" {
		t.Fatalf("after correction, pattern classified as %q, want %q", after.Raw, "c")
	}
}

func TestCorrectErrors(t *testing.T) {
	// An offline classifier cannot learn online.
	s, err := New(trainedClassifier(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Correct("a"); err == nil {
		t.Fatal("Correct on an offline classifier did not error")
	}
	// No window buffered yet.
	s2, err := New(servingModel(t, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Correct("a"); err == nil {
		t.Fatal("Correct with an incomplete window did not error")
	}
	if _, ok := s2.Push([]float64{16, 3, 8, 2}); ok {
		t.Fatal("decision before window fill")
	}
	if err := s2.Correct("a"); err == nil {
		t.Fatal("Correct with 1 of 3 window samples did not error")
	}
}

// TestReplayOverServing checks the Replay batch path through a
// Serving session matches the sample-by-sample Push loop (the serving
// encoder always uses the deterministic tie rule, and these
// configurations use odd N-gram counts where batch == serial).
func TestReplayOverServing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([][]float64, 200)
	for i := range samples {
		base := []float64{16, 3, 8, 2}
		if i/50%2 == 1 {
			base = []float64{3, 14, 2, 10}
		}
		row := make([]float64, 4)
		for c := range row {
			row[c] = base[c] + rng.NormFloat64()
		}
		samples[i] = row
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, ngram := range []int{1, 3} {
		sv := servingModel(t, ngram)
		serial, err := New(sv, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var want []Decision
		for _, smp := range samples {
			if d, ok := serial.Push(smp); ok {
				want = append(want, d)
			}
		}
		for _, p := range []*parallel.Pool{nil, pool} {
			replayed, err := New(sv, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := replayed.Replay(samples, p)
			if len(got) != len(want) {
				t.Fatalf("ngram=%d: %d decisions, want %d", ngram, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ngram=%d decision %d: %+v != %+v", ngram, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReplayGenericPredictor exercises the interface fallback path
// (neither *hdc.Classifier nor *hdc.Serving).
type wrappedPredictor struct{ *hdc.Serving }

func TestReplayGenericPredictor(t *testing.T) {
	sv := servingModel(t, 1)
	direct, err := New(sv, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	generic, err := New(wrappedPredictor{sv}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]float64, 50)
	for i := range samples {
		samples[i] = []float64{16, 3, 8, 2}
	}
	want := direct.Replay(samples, nil)
	got := generic.Replay(samples, nil)
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision %d: %+v != %+v", i, got[i], want[i])
		}
	}
}
