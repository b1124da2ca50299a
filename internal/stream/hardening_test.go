package stream

import (
	"testing"

	"pulphd/internal/hdc"
)

// flakyPredictor panics on chosen prediction calls and otherwise
// answers a fixed label; it models a model layer taking bit faults.
type flakyPredictor struct {
	cfg    hdc.Config
	calls  int
	failOn map[int]bool // 0-based call indices that panic
}

func (f *flakyPredictor) Config() hdc.Config { return f.cfg }

func (f *flakyPredictor) Predict(window [][]float64) (string, int) {
	call := f.calls
	f.calls++
	if f.failOn[call] {
		panic("flaky predictor down")
	}
	return "steady", 7
}

// TestPushSurvivesPredictorPanic pins the streaming hardening: a
// predictor panic drops that decision, and the very next detection
// period classifies normally.
func TestPushSurvivesPredictorPanic(t *testing.T) {
	cfg := hdc.EMGConfig()
	pred := &flakyPredictor{cfg: cfg, failOn: map[int]bool{1: true}}
	s, err := New(pred, Config{DetectionStride: 1, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}

	sample := make([]float64, cfg.Channels)
	emitted := 0
	for i := 0; i < 4; i++ {
		if d, ok := s.Push(sample); ok {
			if d.Raw != "steady" {
				t.Fatalf("push %d: raw %q", i, d.Raw)
			}
			emitted++
		}
	}
	if emitted != 3 {
		t.Fatalf("%d decisions from 4 pushes with one panic, want 3", emitted)
	}
	if s.Decisions() != 3 {
		t.Fatalf("Decisions() = %d, want 3", s.Decisions())
	}
}

// TestReplaySurvivesPredictorPanic pins the replay path for plain
// Predictors: failing windows are dropped from the output and
// surviving ones keep their trigger sample indices.
func TestReplaySurvivesPredictorPanic(t *testing.T) {
	cfg := hdc.EMGConfig()
	pred := &flakyPredictor{cfg: cfg, failOn: map[int]bool{0: true, 2: true}}
	s, err := New(pred, Config{DetectionStride: 1, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}

	samples := make([][]float64, 5)
	for i := range samples {
		samples[i] = make([]float64, cfg.Channels)
	}
	out := s.Replay(samples, nil)
	if len(out) != 3 {
		t.Fatalf("%d decisions from 5 windows with two panics, want 3", len(out))
	}
	for _, d := range out {
		if d.Raw != "steady" || d.Distance != 7 {
			t.Fatalf("surviving decision %+v", d)
		}
	}
}

// TestBatchPredictRecoversPanic pins the recover in the batched replay
// engine: a panic inside hdc's PredictBatch (here: a window whose row
// is shorter than the channel count) comes back as ok=false, so replay
// can retry serially instead of crashing.
func TestBatchPredictRecoversPanic(t *testing.T) {
	cls := trainedClassifier(t, 1)
	s, err := New(cls, Config{DetectionStride: 1, SmoothWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds, ok := s.batchPredict([][][]float64{{{1}}}, nil) // short row panics PredictBatch
	if ok || preds != nil {
		t.Fatalf("poisoned batch returned ok=%v preds=%v", ok, preds)
	}

	// The healthy batch path is untouched.
	good := [][][]float64{{{16, 3, 8, 2}}}
	preds, ok = s.batchPredict(good, nil)
	if !ok || len(preds) != 1 || preds[0].Label != "a" {
		t.Fatalf("healthy batch: ok=%v preds=%v", ok, preds)
	}
}
