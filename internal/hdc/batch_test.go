package hdc

import (
	"math/rand"
	"testing"

	"pulphd/internal/parallel"
)

var batchWorkerCounts = []int{1, 2, 3, 4, 8}

// trainedClassifier builds a classifier over cfg with three synthetic
// gesture classes and returns it with a stream of test windows.
func trainedClassifier(t testing.TB, cfg Config, nTest int) (*Classifier, [][][]float64) {
	t.Helper()
	c := MustNew(cfg)
	rng := rand.New(rand.NewSource(99))
	span := cfg.MaxLevel - cfg.MinLevel
	classes := []struct {
		label string
		base  float64
	}{
		{"rest", cfg.MinLevel + 0.1*span},
		{"open", cfg.MinLevel + 0.5*span},
		{"fist", cfg.MinLevel + 0.9*span},
	}
	window := func(base float64) [][]float64 {
		w := make([][]float64, cfg.Window)
		for t := range w {
			w[t] = make([]float64, cfg.Channels)
			for ch := range w[t] {
				w[t][ch] = base + rng.Float64()*0.05*span
			}
		}
		return w
	}
	for trial := 0; trial < 8; trial++ {
		for _, cl := range classes {
			c.Train(cl.label, window(cl.base))
		}
	}
	tests := make([][][]float64, nTest)
	for i := range tests {
		tests[i] = window(classes[i%len(classes)].base)
	}
	return c, tests
}

// TestPredictBatchMatchesSerialSingleGram pins the headline property:
// for single-N-gram windows (the paper's EMG configuration) the batch
// path is bit-identical to serial Predict — same label, same Hamming
// distance — for every worker count, at several dimensionalities
// including a non-word-aligned one.
func TestPredictBatchMatchesSerialSingleGram(t *testing.T) {
	for _, d := range []int{100, 1000, 10000} {
		cfg := EMGConfig()
		cfg.D = d
		c, tests := trainedClassifier(t, cfg, 23)
		want := make([]Prediction, len(tests))
		for i, w := range tests {
			label, dist := c.Predict(w)
			want[i] = Prediction{Label: label, Distance: dist}
		}
		for _, workers := range batchWorkerCounts {
			pool := parallel.NewPool(workers)
			got := c.Batch(pool).ClassifyBatch(tests)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("d=%d workers=%d window %d: batch %+v != serial %+v", d, workers, i, got[i], want[i])
				}
			}
			pool.Close()
		}
	}
}

// TestPredictBatchMatchesSerialOddNGrams covers the multi-N-gram path
// with an odd N-gram count per window, where no majority tie can
// occur: batch must again be bit-identical to serial.
func TestPredictBatchMatchesSerialOddNGrams(t *testing.T) {
	cfg := EMGConfig()
	cfg.D = 2000
	cfg.NGram = 3
	cfg.Window = 5 // 3 N-grams per window: odd, tie-free
	c, tests := trainedClassifier(t, cfg, 11)
	want := make([]Prediction, len(tests))
	for i, w := range tests {
		label, dist := c.Predict(w)
		want[i] = Prediction{Label: label, Distance: dist}
	}
	for _, workers := range batchWorkerCounts {
		pool := parallel.NewPool(workers)
		got := c.Batch(pool).ClassifyBatch(tests)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d window %d: batch %+v != serial %+v", workers, i, got[i], want[i])
			}
		}
		pool.Close()
	}
}

// TestPredictBatchDeterministicAcrossWorkers covers even N-gram
// counts, where the serial path flips rng coins on majority ties and
// the batch path substitutes the accelerator's deterministic §5.1
// tie-breaker: the result must not depend on worker count or on
// repeated invocation.
func TestPredictBatchDeterministicAcrossWorkers(t *testing.T) {
	cfg := EMGConfig()
	cfg.D = 2000
	cfg.NGram = 3
	cfg.Window = 6 // 4 N-grams per window: even, tie-broken
	c, tests := trainedClassifier(t, cfg, 11)
	pool1 := parallel.NewPool(1)
	defer pool1.Close()
	want := c.Batch(pool1).ClassifyBatch(tests)
	for _, workers := range batchWorkerCounts {
		pool := parallel.NewPool(workers)
		b := c.Batch(pool)
		for rep := 0; rep < 2; rep++ {
			got := b.ClassifyBatch(tests)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers=%d rep=%d window %d: %+v != %+v", workers, rep, i, got[i], want[i])
				}
			}
		}
		pool.Close()
	}
}

// TestBatchNilPoolMatchesSerial pins the nil-pool contract: Batch(nil)
// must not panic and must fall back to the serial Predict loop,
// bit-identical (label and Hamming distance) for the tie-free
// configurations, matching the worker pool's own documented
// serial-fallback behaviour.
func TestBatchNilPoolMatchesSerial(t *testing.T) {
	for name, cfg := range map[string]Config{
		"emg-single-gram": EMGConfig(),
		"odd-ngrams": func() Config {
			cfg := EMGConfig()
			cfg.D = 2000
			cfg.NGram = 3
			cfg.Window = 5
			return cfg
		}(),
	} {
		c, tests := trainedClassifier(t, cfg, 13)
		want := make([]Prediction, len(tests))
		for i, w := range tests {
			label, dist := c.Predict(w)
			want[i] = Prediction{Label: label, Distance: dist}
		}
		b := c.Batch(nil)
		got := b.ClassifyBatch(tests)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s window %d: nil-pool batch %+v != serial %+v", name, i, got[i], want[i])
			}
		}
		// The fallback must keep the steady-state contract too: reuse
		// the output slice and handle the empty batch.
		again := b.PredictBatch(tests, got)
		if &again[0] != &got[0] {
			t.Errorf("%s: nil-pool PredictBatch reallocated a sufficient output slice", name)
		}
		if res := b.PredictBatch(nil, nil); len(res) != 0 {
			t.Errorf("%s: empty nil-pool batch returned %d predictions", name, len(res))
		}
	}
}

// TestPredictBatchReusesOutput checks the PredictBatch steady state:
// a recycled output slice is not reallocated and results stay right.
func TestPredictBatchReusesOutput(t *testing.T) {
	c, tests := trainedClassifier(t, EMGConfig(), 9)
	pool := parallel.NewPool(4)
	defer pool.Close()
	b := c.Batch(pool)
	out := b.PredictBatch(tests, nil)
	again := b.PredictBatch(tests, out)
	if &again[0] != &out[0] {
		t.Error("PredictBatch reallocated a sufficient output slice")
	}
	for i := range out {
		if again[i] != out[i] {
			t.Errorf("window %d: %+v != %+v on reuse", i, again[i], out[i])
		}
	}
	if got := b.PredictBatch(nil, out); len(got) != 0 {
		t.Errorf("empty batch returned %d predictions", len(got))
	}
}

// TestPredictBatchValidates checks malformed windows are rejected
// before any worker runs.
func TestPredictBatchValidates(t *testing.T) {
	c, _ := trainedClassifier(t, EMGConfig(), 1)
	pool := parallel.NewPool(2)
	defer pool.Close()
	b := c.Batch(pool)
	for name, windows := range map[string][][][]float64{
		"short window":  {{}},
		"channel count": {{{1, 2, 3}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			b.PredictBatch(windows, nil)
		}()
	}
}

// TestPredictAllocationFree pins the acceptance criterion: in steady
// state (trained model, warmed scratch) Predict performs zero heap
// allocations per call.
func TestPredictAllocationFree(t *testing.T) {
	c, tests := trainedClassifier(t, EMGConfig(), 4)
	c.Predict(tests[0]) // threshold dirty prototypes, warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		for _, w := range tests {
			c.Predict(w)
		}
	})
	if allocs != 0 {
		t.Fatalf("Predict: %v allocs per 4-window run, want 0", allocs)
	}
}

// TestDistancesToSteadyState pins the reusable AM distance buffer.
func TestDistancesToSteadyState(t *testing.T) {
	c, tests := trainedClassifier(t, EMGConfig(), 1)
	q := c.EncodeWindow(tests[0])
	want := c.AM().Distances(q)
	buf := make([]int, 0, 8)
	got := c.AM().DistancesTo(buf, q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distance %d: %d != %d", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		got = c.AM().DistancesTo(got, q)
	})
	if allocs != 0 {
		t.Fatalf("DistancesTo: %v allocs/op with a sufficient buffer, want 0", allocs)
	}
}

func BenchmarkPredict(b *testing.B) {
	c, tests := trainedClassifier(b, EMGConfig(), 16)
	c.Predict(tests[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(tests[i%len(tests)])
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	c, tests := trainedClassifier(b, EMGConfig(), 256)
	pool := parallel.NewPool(4)
	defer pool.Close()
	bc := c.Batch(pool)
	out := bc.PredictBatch(tests, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = bc.PredictBatch(tests, out)
	}
	// Normalize to per-window cost for comparison with Predict.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tests)), "ns/window")
}
