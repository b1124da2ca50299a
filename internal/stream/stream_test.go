package stream

import (
	"math/rand"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/parallel"
)

func trainedClassifier(t *testing.T, ngram int) *hdc.Classifier {
	t.Helper()
	cfg := hdc.EMGConfig()
	cfg.D = 1000
	cfg.NGram = ngram
	cfg.Window = ngram
	cls := hdc.MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	patterns := map[string][]float64{
		"a": {16, 3, 8, 2}, "b": {3, 14, 2, 10},
	}
	for i := 0; i < 9; i++ {
		for _, label := range []string{"a", "b"} {
			p := patterns[label]
			w := make([][]float64, ngram)
			for t0 := range w {
				row := make([]float64, 4)
				for c := range row {
					row[c] = p[c] + rng.NormFloat64()
				}
				w[t0] = row
			}
			cls.Train(label, w)
		}
	}
	return cls
}

func push(t *testing.T, s *Classifier, sample []float64) (Decision, bool) {
	t.Helper()
	return s.Push(sample)
}

func TestDecisionCadence(t *testing.T) {
	s, err := New(trainedClassifier(t, 1), Config{DetectionStride: 5, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 100; i++ {
		if _, ok := push(t, s, []float64{16, 3, 8, 2}); ok {
			emitted++
		}
	}
	if emitted != 20 {
		t.Fatalf("%d decisions from 100 samples at stride 5, want 20", emitted)
	}
	if s.Decisions() != 20 {
		t.Fatalf("Decisions() = %d", s.Decisions())
	}
}

func TestNGramWaitsForHistory(t *testing.T) {
	s, err := New(trainedClassifier(t, 3), Config{DetectionStride: 1, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := push(t, s, []float64{1, 2, 3, 4}); ok {
		t.Fatal("decision before N-gram history filled")
	}
	if _, ok := push(t, s, []float64{1, 2, 3, 4}); ok {
		t.Fatal("decision before N-gram history filled")
	}
	if _, ok := push(t, s, []float64{1, 2, 3, 4}); !ok {
		t.Fatal("no decision once history filled")
	}
}

func TestClassifiesCorrectly(t *testing.T) {
	s, err := New(trainedClassifier(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	correct, total := 0, 0
	for i := 0; i < 200; i++ {
		sample := []float64{16 + rng.NormFloat64(), 3 + rng.NormFloat64(), 8 + rng.NormFloat64(), 2 + rng.NormFloat64()}
		if d, ok := push(t, s, sample); ok {
			total++
			if d.Smoothed == "a" {
				correct++
			}
		}
	}
	if total == 0 || correct < total*9/10 {
		t.Fatalf("smoothed accuracy %d/%d", correct, total)
	}
}

func TestSmoothingSuppressesIsolatedErrors(t *testing.T) {
	// Feed a steady "a" pattern with occasional artifact samples; the
	// smoothed stream must correct raw errors.
	s, err := New(trainedClassifier(t, 1), Config{DetectionStride: 1, SmoothWindow: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rawErr, smErr, total := 0, 0, 0
	for i := 0; i < 400; i++ {
		p := []float64{16, 3, 8, 2}
		if i%10 == 0 {
			p = []float64{3, 14, 2, 10} // periodic single-sample artifact: one "b" sample
		}
		sample := make([]float64, len(p))
		for c := range p {
			sample[c] = p[c] + rng.NormFloat64()
		}
		d, ok := push(t, s, sample)
		if !ok || i < 20 {
			continue
		}
		total++
		if d.Raw != "a" {
			rawErr++
		}
		if d.Smoothed != "a" {
			smErr++
		}
	}
	if rawErr == 0 {
		t.Fatal("artifacts flipped no raw decision; the test no longer exercises smoothing")
	}
	if smErr >= rawErr {
		t.Fatalf("smoothing did not help: raw %d/%d errors, smoothed %d/%d", rawErr, total, smErr, total)
	}
}

func TestResetClearsState(t *testing.T) {
	s, err := New(trainedClassifier(t, 3), Config{DetectionStride: 1, SmoothWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		push(t, s, []float64{1, 2, 3, 4})
	}
	s.Reset()
	if s.Decisions() != 0 {
		t.Fatal("Reset kept decision count")
	}
	if _, ok := push(t, s, []float64{1, 2, 3, 4}); ok {
		t.Fatal("decision immediately after Reset despite N-gram history requirement")
	}
}

func TestConfigValidation(t *testing.T) {
	cls := trainedClassifier(t, 1)
	if _, err := New(cls, Config{DetectionStride: 0, SmoothWindow: 1}); err == nil {
		t.Error("stride 0 accepted")
	}
	if _, err := New(cls, Config{DetectionStride: 1, SmoothWindow: 0}); err == nil {
		t.Error("smoothing 0 accepted")
	}
}

func TestPushPanicsOnWrongChannels(t *testing.T) {
	s, _ := New(trainedClassifier(t, 1), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong channel count")
		}
	}()
	s.Push([]float64{1, 2})
}

func TestPushDoesNotAliasCallerSlice(t *testing.T) {
	s, _ := New(trainedClassifier(t, 3), Config{DetectionStride: 1, SmoothWindow: 1})
	sample := []float64{16, 3, 8, 2}
	s.Push(sample)
	sample[0] = -999 // mutate after push
	s.Push([]float64{16, 3, 8, 2})
	d, ok := s.Push([]float64{16, 3, 8, 2})
	if !ok {
		t.Fatal("no decision")
	}
	if d.Raw != "a" {
		t.Fatalf("stale aliased sample corrupted the window: got %q", d.Raw)
	}
}

// TestVoteTieDeterministic pins the tie rule: when two labels tie in
// the smoothing window, the one whose latest occurrence is more
// recent wins — regardless of map-order luck.
func TestVoteTieDeterministic(t *testing.T) {
	s, err := New(trainedClassifier(t, 1), Config{DetectionStride: 1, SmoothWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-load the decision ring: b, a, b, a → 2:2 tie, "a" newest.
	for _, raw := range []string{"b", "a", "b", "a"} {
		s.recent[s.recentN%len(s.recent)] = raw
		s.recentN++
	}
	for i := 0; i < 50; i++ {
		if got := s.vote(); got != "a" {
			t.Fatalf("iteration %d: tie resolved to %q, want most recent %q", i, got, "a")
		}
	}
	// c, b, b, a: "b" outnumbers the newer "a".
	s.recentN = 0
	for _, raw := range []string{"c", "b", "b", "a"} {
		s.recent[s.recentN%len(s.recent)] = raw
		s.recentN++
	}
	if got := s.vote(); got != "b" {
		t.Fatalf("majority ignored: got %q, want %q", got, "b")
	}
	// Tie between two non-newest labels: c, c, b, b, a with window 5 —
	// "b" ties "c" and occurred more recently.
	s2, err := New(trainedClassifier(t, 1), Config{DetectionStride: 1, SmoothWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"c", "c", "b", "b", "a"} {
		s2.recent[s2.recentN%len(s2.recent)] = raw
		s2.recentN++
	}
	for i := 0; i < 50; i++ {
		if got := s2.vote(); got != "b" {
			t.Fatalf("iteration %d: non-newest tie resolved to %q, want %q", i, got, "b")
		}
	}
}

// TestPushAllocationFree pins the satellite: the per-sample copy goes
// through the fixed buffer ring, so a steady-state Push (including
// the classifications it triggers) allocates nothing.
func TestPushAllocationFree(t *testing.T) {
	s, err := New(trainedClassifier(t, 3), Config{DetectionStride: 1, SmoothWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	sample := []float64{16, 3, 8, 2}
	for i := 0; i < 10; i++ {
		s.Push(sample) // fill window, warm scratch, settle prototypes
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Push(sample)
	})
	if allocs != 0 {
		t.Fatalf("Push: %v allocs/op, want 0", allocs)
	}
}

// TestReplayMatchesPushLoop checks the batched session replay emits
// exactly the decisions a sample-by-sample Push loop does, for both
// single- and odd-multi-N-gram configurations and several worker
// counts.
func TestReplayMatchesPushLoop(t *testing.T) {
	for _, ngram := range []int{1, 3} {
		cls := trainedClassifier(t, ngram)
		cfg := Config{DetectionStride: 2, SmoothWindow: 3}
		rng := rand.New(rand.NewSource(7))
		samples := make([][]float64, 120)
		for i := range samples {
			base := []float64{16, 3, 8, 2}
			if i%3 == 0 {
				base = []float64{3, 14, 2, 10}
			}
			row := make([]float64, 4)
			for c := range row {
				row[c] = base[c] + rng.NormFloat64()
			}
			samples[i] = row
		}
		ref, err := New(cls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []Decision
		for _, sample := range samples {
			if d, ok := ref.Push(sample); ok {
				want = append(want, d)
			}
		}
		// workers 0 stands for a nil pool: Replay must fall back to a
		// serial classification loop instead of panicking.
		for _, workers := range []int{0, 1, 2, 4} {
			var pool *parallel.Pool
			if workers > 0 {
				pool = parallel.NewPool(workers)
			}
			s, err := New(cls, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Replay(samples, pool)
			if len(got) != len(want) {
				t.Fatalf("ngram=%d workers=%d: %d decisions, want %d", ngram, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("ngram=%d workers=%d decision %d: %+v != %+v", ngram, workers, i, got[i], want[i])
				}
			}
			if s.Decisions() != ref.Decisions() {
				t.Errorf("ngram=%d workers=%d: decision count %d != %d", ngram, workers, s.Decisions(), ref.Decisions())
			}
			if pool != nil {
				pool.Close()
			}
		}
	}
}
