package hdc

import (
	"math/rand"
	"testing"

	"pulphd/internal/fault"
	"pulphd/internal/hdref"
	"pulphd/internal/hv"
)

// trainedToy returns a small trained classifier and a labelled window
// per class for probing.
func trainedToy(t *testing.T) (*Classifier, map[string][][]float64) {
	t.Helper()
	cfg := Config{D: 1024, Channels: 4, Levels: 8, MinLevel: 0, MaxLevel: 7, NGram: 1, Window: 1, Seed: 9}
	c := MustNew(cfg)
	windows := map[string][][]float64{
		"low":  {{0, 1, 0, 1}},
		"mid":  {{3, 4, 3, 4}},
		"high": {{7, 6, 7, 6}},
	}
	// Deterministic training order: map iteration order would desync
	// the AM's tie-breaking rng between two "identical" classifiers.
	for _, label := range []string{"low", "mid", "high"} {
		for i := 0; i < 5; i++ {
			c.Train(label, windows[label])
		}
	}
	return c, windows
}

// TestInjectBitErrorsBERZeroIdentity pins that a BER=0 injection pass
// over every classifier memory (IM, CIM, AM) is bit-identical to no
// injection: same flips count (zero), same stored vectors, same
// predictions.
func TestInjectBitErrorsBERZeroIdentity(t *testing.T) {
	injected, windows := trainedToy(t)
	clean, _ := trainedToy(t)

	if flips := injected.InjectBitErrors(fault.Model{BER: 0, Seed: 77}); flips != 0 {
		t.Fatalf("BER=0 flipped %d bits", flips)
	}

	for _, tc := range []struct {
		name string
		n    int
		get  func(c *Classifier, i int) hv.Vector
	}{
		{"IM", clean.IM().Len(), func(c *Classifier, i int) hv.Vector { return c.IM().Vector(i) }},
		{"CIM", clean.CIM().Levels(), func(c *Classifier, i int) hv.Vector { return c.CIM().VectorForLevel(i) }},
		{"AM", clean.AM().Classes(), func(c *Classifier, i int) hv.Vector { return c.AM().Prototype(i) }},
	} {
		for i := 0; i < tc.n; i++ {
			if !hv.Equal(tc.get(clean, i), tc.get(injected, i)) {
				t.Fatalf("BER=0 changed %s vector %d", tc.name, i)
			}
		}
	}

	for label, w := range windows {
		wantLabel, wantDist := clean.Predict(w)
		gotLabel, gotDist := injected.Predict(w)
		if gotLabel != wantLabel || gotDist != wantDist {
			t.Fatalf("BER=0 changed prediction for %q: got (%s,%d), want (%s,%d)",
				label, gotLabel, gotDist, wantLabel, wantDist)
		}
	}
}

// TestInjectBitErrorsDeterministic pins that two identically-trained
// classifiers corrupted with the same model end up bit-identical.
func TestInjectBitErrorsDeterministic(t *testing.T) {
	a, _ := trainedToy(t)
	b, _ := trainedToy(t)
	m := fault.Model{BER: 0.01, Seed: 5}
	fa := a.InjectBitErrors(m)
	fb := b.InjectBitErrors(m)
	if fa != fb {
		t.Fatalf("flip counts differ: %d vs %d", fa, fb)
	}
	if fa == 0 {
		t.Fatal("BER=1% flipped nothing across all memories")
	}
	for i := 0; i < a.AM().Classes(); i++ {
		if !hv.Equal(a.AM().Prototype(i), b.AM().Prototype(i)) {
			t.Fatalf("AM prototype %d differs between identical injections", i)
		}
	}
	for i := 0; i < a.IM().Len(); i++ {
		if !hv.Equal(a.IM().Vector(i), b.IM().Vector(i)) {
			t.Fatalf("IM vector %d differs between identical injections", i)
		}
	}
}

// TestAMCorruptFreezesPrototypes pins that corrupted prototypes are
// not silently re-thresholded from the clean training accumulators by
// a later Update-free read.
func TestAMCorruptFreezesPrototypes(t *testing.T) {
	c, _ := trainedToy(t)
	before := c.AM().Prototype(0).Clone()
	if flips := c.AM().Corrupt(fault.Model{BER: 0.05, Seed: 3}); flips == 0 {
		t.Fatal("BER=5% flipped nothing")
	}
	after := c.AM().Prototype(0)
	if hv.Equal(before, after) {
		t.Fatal("prototype unchanged after corruption")
	}
	// Reading again (which triggers refresh) must keep the faults.
	if !hv.Equal(after, c.AM().Prototype(0)) {
		t.Fatal("refresh reverted the corrupted prototype")
	}
}

// TestFaultWritersReachTheAM pins that the prototype writers corrupt
// the rows the AM classifies with, not a copy: after InjectBitErrors
// and InjectFaults at a nonzero rate, every row Prototype returns
// differs from its clean row, and the AM answers exactly as
// hdref.RefAM built over those rows, on queries a few bits from each
// corrupted row.
func TestFaultWritersReachTheAM(t *testing.T) {
	for name, inject := range map[string]func(c *Classifier){
		"InjectBitErrors": func(c *Classifier) { c.InjectBitErrors(fault.Model{BER: 0.05, Seed: 9}) },
		"InjectFaults":    func(c *Classifier) { c.AM().InjectFaults(100, rand.New(rand.NewSource(9))) },
	} {
		c, _ := trainedToy(t)
		clean := make([]hv.Vector, c.AM().Classes())
		for i := range clean {
			clean[i] = c.AM().Prototype(i)
		}
		inject(c)
		ref := &hdref.RefAM{Labels: c.AM().Labels()}
		for i := range clean {
			p := c.AM().Prototype(i)
			if hv.Equal(p, clean[i]) {
				t.Fatalf("%s left prototype %d clean", name, i)
			}
			ref.Prototypes = append(ref.Prototypes, p.Bits())
		}
		rng := rand.New(rand.NewSource(10))
		for i := range clean {
			q := c.AM().Prototype(i).FlipBits(3, rng)
			wantLabel, wantDist := ref.Classify(q.Bits())
			if label, dist := c.AM().Classify(q); label != wantLabel || dist != wantDist {
				t.Fatalf("%s: AM answers (%s,%d), reference over Prototype (%s,%d)", name, label, dist, wantLabel, wantDist)
			}
		}
	}
}
