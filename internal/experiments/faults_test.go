package experiments

import (
	"math/rand"
	"testing"

	"pulphd/internal/emg"
	"pulphd/internal/fault"
	"pulphd/internal/hdc"
	"pulphd/internal/hdref"
	"pulphd/internal/hv"
	"pulphd/internal/pulp"
)

// sweepPrepared builds a small campaign for the robustness sweep.
func sweepPrepared(t *testing.T) *Prepared {
	t.Helper()
	proto := emg.DefaultProtocol()
	proto.Subjects = 2
	proto.Seed = 2018
	return Prepare(proto, 1)
}

// TestFaultSweepBERZeroMatchesClean pins the sweep's BER=0 column to
// the uninjected accuracies: the zero-rate channel must be an exact
// identity end to end (memories, DMA transfers, SVM parameters).
func TestFaultSweepBERZeroMatchesClean(t *testing.T) {
	p := sweepPrepared(t)
	const d = 1000
	r, err := FaultSweep(p, d, []float64{0}, 4242)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the clean means directly, with no fault package in
	// the path at all.
	var cleanHD, cleanSVM float64
	for _, sub := range p.Subjects {
		hd := trainHD(sub, hdConfigFor(p, d))
		cleanHD += accuracyOf(func(w LabeledWindow) string {
			l, _ := hd.Predict(w.Window)
			return l
		}, sub.Test)
		sm, err := trainSubjectSVM(sub)
		if err != nil {
			t.Fatal(err)
		}
		cleanSVM += accuracyOf(func(w LabeledWindow) string {
			return sm.Predict(w.Features)
		}, sub.Test)
	}
	cleanHD /= float64(len(p.Subjects))
	cleanSVM /= float64(len(p.Subjects))

	for pi, name := range r.Platforms {
		if r.HD[pi][0] != cleanHD {
			t.Errorf("%s: BER=0 accuracy %.4f, clean %.4f", name, r.HD[pi][0], cleanHD)
		}
	}
	if r.SVM[0] != cleanSVM {
		t.Errorf("SVM: BER=0 accuracy %.4f, clean %.4f", r.SVM[0], cleanSVM)
	}
}

// TestFaultSweepHDOutlivesSVM pins the paper's robustness claim at the
// sweep's scale: at a 1% bit-error rate the HD classifier on every
// platform still beats the float-parameter SVM, which has collapsed
// (every float64 hit w.p. ≈ 47%).
func TestFaultSweepHDOutlivesSVM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rate sweep in -short mode")
	}
	p := sweepPrepared(t)
	r, err := FaultSweep(p, 2000, []float64{0, 0.01}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	for pi, name := range r.Platforms {
		if r.HD[pi][1] <= r.SVM[1] {
			t.Errorf("%s: HD %.4f not above SVM %.4f at BER=1%%", name, r.HD[pi][1], r.SVM[1])
		}
		// Graceful: HD at 1% BER stays within 10 points of clean.
		if r.HD[pi][1] < r.HD[pi][0]-0.10 {
			t.Errorf("%s: HD dropped from %.4f to %.4f at BER=1%% — not graceful", name, r.HD[pi][0], r.HD[pi][1])
		}
	}
}

// TestFaultSweepRematBackend pins the satellite criterion: the fault
// sweep runs unchanged on the rematerializing backend — faults compose
// into the generators instead of corrupting stored rows — with the
// same identity at BER 0 and graceful degradation at 1%.
func TestFaultSweepRematBackend(t *testing.T) {
	p := sweepPrepared(t)
	p.Backend = hdc.BackendRemat
	const d = 1000
	r, err := FaultSweep(p, d, []float64{0, 0.01}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	var cleanHD float64
	for _, sub := range p.Subjects {
		hd := trainHD(sub, hdConfigFor(p, d))
		cleanHD += accuracyOf(func(w LabeledWindow) string {
			l, _ := hd.Predict(w.Window)
			return l
		}, sub.Test)
	}
	cleanHD /= float64(len(p.Subjects))
	for pi, name := range r.Platforms {
		if r.HD[pi][0] != cleanHD {
			t.Errorf("%s: remat BER=0 accuracy %.4f, clean %.4f", name, r.HD[pi][0], cleanHD)
		}
		if r.HD[pi][1] < r.HD[pi][0]-0.10 {
			t.Errorf("%s: remat HD dropped from %.4f to %.4f at BER=1%% — not graceful", name, r.HD[pi][0], r.HD[pi][1])
		}
	}
}

// TestFaultSweepDeterministic pins that two runs with the same seed
// produce the same table.
func TestFaultSweepDeterministic(t *testing.T) {
	p := sweepPrepared(t)
	a, err := FaultSweep(p, 500, []float64{0.02}, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(p, 500, []float64{0.02}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range a.Platforms {
		if a.HD[pi][0] != b.HD[pi][0] {
			t.Errorf("platform %d: %.6f vs %.6f across reruns", pi, a.HD[pi][0], b.HD[pi][0])
		}
	}
	if a.SVM[0] != b.SVM[0] {
		t.Errorf("SVM: %.6f vs %.6f across reruns", a.SVM[0], b.SVM[0])
	}
}

// TestCorruptedHDCopyWritesReachTheAM pins that both corruption passes
// of corruptedHDCopy land in the AM the copy classifies with: the
// stored-memory pass makes every prototype differ from the trained
// one, the DMA pass of a platform with a DMA changes them again, and
// the copy answers exactly as hdref.RefAM built over its Prototype
// rows, on the test windows and on queries a few bits from each row.
func TestCorruptedHDCopyWritesReachTheAM(t *testing.T) {
	p := sweepPrepared(t)
	sub := p.Subjects[0]
	trained := trainHD(sub, hdConfigFor(p, 1000))
	m := fault.Model{BER: 0.02, Seed: 11}
	stored := corruptedHDCopy(trained, pulp.CortexM4Platform(), m)
	dma := corruptedHDCopy(trained, pulp.WolfPlatform(8, true), m)
	ref := &hdref.RefAM{Labels: dma.AM().Labels()}
	for i := range ref.Labels {
		clean, s, d := trained.AM().Prototype(i), stored.AM().Prototype(i), dma.AM().Prototype(i)
		if hv.Equal(s, clean) {
			t.Fatalf("prototype %d: the stored-memory pass left it clean", i)
		}
		if hv.Equal(d, s) {
			t.Fatalf("prototype %d: the DMA pass left it unchanged", i)
		}
		ref.Prototypes = append(ref.Prototypes, d.Bits())
	}
	rng := rand.New(rand.NewSource(12))
	var queries []hv.Vector
	for i := range ref.Labels {
		queries = append(queries, dma.AM().Prototype(i).FlipBits(3, rng))
	}
	for _, w := range sub.Test[:20] {
		queries = append(queries, dma.EncodeWindow(w.Window))
	}
	for _, q := range queries {
		wantLabel, wantDist := ref.Classify(q.Bits())
		if label, dist := dma.AM().Classify(q); label != wantLabel || dist != wantDist {
			t.Fatalf("copy answers (%s,%d), reference over Prototype (%s,%d)", label, dist, wantLabel, wantDist)
		}
	}
}
