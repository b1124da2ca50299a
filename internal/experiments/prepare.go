// Package experiments regenerates every table and figure of the
// paper's evaluation (§4 and §5): the accuracy comparison against the
// SVM, Table 1 (iso-accuracy cycles on the Cortex M4), Table 2 (power
// across operating points), Table 3 (per-kernel cycles and speed-ups
// across PULPv3 and Wolf), Fig. 3 (dimension sweep), Fig. 4 (N-gram ×
// core-count sweep) and Fig. 5 (channel sweep with memory footprint),
// plus the extension studies (dimensionality/accuracy trade-off,
// fault injection, double-buffering ablation).
package experiments

import (
	"fmt"
	"math"

	"pulphd/internal/emg"
	"pulphd/internal/hdc"
)

// LabeledWindow is one classification instance: the sample window the
// HD chain encodes and the flat feature vector the classical baselines
// consume.
type LabeledWindow struct {
	Label    string
	Rep      int         // repetition the window came from
	Window   [][]float64 // [t][channel] envelope samples
	Features []float64   // per-channel envelope means
}

// PreparedSubject holds one subject's train/test split, windowed and
// preprocessed.
type PreparedSubject struct {
	Subject int
	Train   []LabeledWindow
	Test    []LabeledWindow
}

// Prepared is the complete preprocessed campaign.
type Prepared struct {
	Protocol emg.Protocol
	Subjects []PreparedSubject
	// Backend selects the HD item-memory backend every experiment's
	// classifiers are built with (the -im-backend flag). The zero
	// value is the stored baseline.
	Backend hdc.Backend
}

// Strides control how densely trials are sampled into classification
// windows. The test stride of 5 samples matches the paper's real-time
// operation (one classification per 10 ms at 500 Hz). Training samples
// sparsely: 25%% of the trials, strided — the scarce-training regime
// of §4.1 in which HD computing's fast learning shows.
const (
	trainStride = 40
	testStride  = 5
)

// Prepare generates the synthetic campaign, runs the preprocessing
// front end (50 Hz notch + envelope extraction, §3) and slices every
// trial into classification windows of `window` samples.
func Prepare(p emg.Protocol, window int) *Prepared {
	ds := emg.Generate(p)
	pre := newPreprocessor(p)
	out := &Prepared{Protocol: p}
	for s := 0; s < p.Subjects; s++ {
		ps := PreparedSubject{Subject: s}
		train, test := ds.Split(s)
		ps.Train = sliceTrials(pre, train, window, trainStride)
		ps.Test = sliceTrials(pre, test, window, testStride)
		out.Subjects = append(out.Subjects, ps)
	}
	return out
}

// PrepareTrain returns Prepare(p, window).Subjects[subject].Train
// without preprocessing or slicing any other trial: the campaign is
// generated whole, but only the subject's training split is windowed.
func PrepareTrain(p emg.Protocol, window, subject int) []LabeledWindow {
	train, _ := emg.Generate(p).Split(subject)
	return sliceTrials(newPreprocessor(p), train, window, trainStride)
}

// newPreprocessor builds the preprocessing front end for p's
// recordings.
func newPreprocessor(p emg.Protocol) *emg.Preprocessor {
	return emg.NewPreprocessor(p.Channels, p.SampleRate, 4, math.Sqrt(math.Pi/2))
}

func sliceTrials(pre *emg.Preprocessor, trials []emg.Trial, window, stride int) []LabeledWindow {
	var out []LabeledWindow
	for _, tr := range trials {
		env := pre.Process(tr.Raw)
		// Skip the envelope-filter settling transient and the ramp
		// tails; the steady segment carries the gesture label, while
		// artifacts strike anywhere inside it.
		lo := len(env) / 5
		hi := len(env) - len(env)/5
		for t := lo; t+window <= hi; t += stride {
			w := env[t : t+window]
			out = append(out, LabeledWindow{
				Label:    tr.Gesture.String(),
				Rep:      tr.Rep,
				Window:   w,
				Features: meanFeatures(w),
			})
		}
	}
	return out
}

func meanFeatures(w [][]float64) []float64 {
	out := make([]float64, len(w[0]))
	for _, row := range w {
		for c, v := range row {
			out[c] += v
		}
	}
	for c := range out {
		out[c] /= float64(len(w))
	}
	return out
}

// accuracyOf scores a predictor over labelled windows.
func accuracyOf(predict func(LabeledWindow) string, ws []LabeledWindow) float64 {
	if len(ws) == 0 {
		panic("experiments: no windows to score")
	}
	correct := 0
	for _, w := range ws {
		if predict(w) == w.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(ws))
}

// pct renders a fraction as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
