package model

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/hv"
)

// Fixture constants: fixtureModel publishes fixtureGeneration learns
// after the classifier hand-off, and the fixtures were saved at WAL
// sequence fixtureWALSeq.
const (
	fixtureGeneration = 7
	fixtureWALSeq     = 23
)

// fixtureModel builds the model the committed PULPHD03 fixtures
// (testdata/serving-<backend>.snap) hold, deterministically: two
// trained learnable classes, one fixed prototype, and one class first
// learned online. D = 600 packs into 19 words, so the last prototype
// word is partial and the words do not fill whole uint64s.
func fixtureModel(tb testing.TB, backend hdc.Backend) *hdc.Serving {
	tb.Helper()
	cfg := hdc.EMGConfig()
	cfg.D = 600
	cfg.Backend = backend
	c, err := hdc.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		c.Train([]string{"rest", "fist"}[i%2], fixtureWindow(cfg, rng))
	}
	c.AM().SetPrototype("point", hv.NewRandom(cfg.D, rng))
	sv := c.Serving()
	for i := 0; i < fixtureGeneration; i++ {
		if err := sv.Learn([]string{"rest", "fist", "open"}[i%3], fixtureWindow(cfg, rng)); err != nil {
			tb.Fatal(err)
		}
	}
	return sv
}

func fixtureWindow(cfg hdc.Config, rng *rand.Rand) [][]float64 {
	w := make([][]float64, cfg.Window)
	for t := range w {
		w[t] = make([]float64, cfg.Channels)
		for ch := range w[t] {
			w[t][ch] = cfg.MinLevel + rng.Float64()*(cfg.MaxLevel-cfg.MinLevel)
		}
	}
	return w
}

// TestServingSnapshotFixtures pins the PULPHD03 bytes: each committed
// fixture (written by an earlier encoder) loads with its generation,
// WAL sequence and predictions, re-saves byte-identically, and a fresh
// save of the same model state reproduces it.
func TestServingSnapshotFixtures(t *testing.T) {
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		t.Run(backend.String(), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "serving-"+backend.String()+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			got, walSeq, err := LoadServing(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if got.Generation() != fixtureGeneration || walSeq != fixtureWALSeq {
				t.Fatalf("generation %d, WAL sequence %d; want %d, %d", got.Generation(), walSeq, fixtureGeneration, fixtureWALSeq)
			}
			if got.Config().Backend != backend || got.Classes() != 4 {
				t.Fatalf("backend %v with %d classes, want %v with 4", got.Config().Backend, got.Classes(), backend)
			}
			built := fixtureModel(t, backend)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 32; i++ {
				w := fixtureWindow(got.Config(), rng)
				gl, gd := got.Predict(w)
				bl, bd := built.Predict(w)
				if gl != bl || gd != bd {
					t.Fatalf("window %d: fixture predicts (%q, %d), model (%q, %d)", i, gl, gd, bl, bd)
				}
			}
			for name, sv := range map[string]*hdc.Serving{"loaded": got, "built": built} {
				var again bytes.Buffer
				if err := SaveServing(&again, sv, fixtureWALSeq); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), want) {
					t.Fatalf("%s model saves %d bytes that differ from the %d-byte fixture", name, again.Len(), len(want))
				}
			}
		})
	}
}
