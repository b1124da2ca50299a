package hdc

import (
	"math/rand"
	"testing"

	"pulphd/internal/hdref"
	"pulphd/internal/hv"
)

// End-to-end validation of the packed classifier against the unpacked
// golden model (the role the MATLAB implementation plays in the
// paper): identical item memories in, identical spatial encodings,
// N-grams, prototypes and predictions out.

// goldenMemories converts a classifier's packed memories to the
// unpacked representation.
func goldenMemories(c *Classifier) ([]hdref.Bits, *hdref.RefCIM) {
	return goldenTables(c.cfg, c.IM(), c.CIM())
}

// goldenTables converts packed item memories built for cfg to the
// unpacked representation.
func goldenTables(cfg Config, im *ItemMemory, cim *ContinuousItemMemory) (items []hdref.Bits, levels *hdref.RefCIM) {
	for i := 0; i < im.Len(); i++ {
		items = append(items, hdref.Bits(im.Vector(i).Bits()))
	}
	levels = &hdref.RefCIM{Min: cfg.MinLevel, Max: cfg.MaxLevel}
	for l := 0; l < cim.Levels(); l++ {
		levels.Levels = append(levels.Levels, hdref.Bits(cim.VectorForLevel(l).Bits()))
	}
	return items, levels
}

func goldenSpatial(im []hdref.Bits, cim *hdref.RefCIM, samples []float64) hdref.Bits {
	levels := make([]hdref.Bits, len(samples))
	for i, x := range samples {
		levels[i] = cim.Levels[cim.Quantize(x)]
	}
	return hdref.SpatialEncode(im, levels)
}

func TestGoldenQuantizeAgrees(t *testing.T) {
	cfg := EMGConfig()
	cfg.D = 320
	c := MustNew(cfg)
	_, cim := goldenMemories(c)
	for _, x := range []float64{-3, 0, 0.49, 0.51, 7.7, 13.5, 20.9, 21, 99} {
		if got, want := cim.Quantize(x), c.CIM().Quantize(x); got != want {
			t.Errorf("Quantize(%g): golden %d != packed %d", x, got, want)
		}
	}
}

func TestGoldenSpatialEncodingAgrees(t *testing.T) {
	for _, channels := range []int{3, 4, 5, 8} {
		cfg := EMGConfig()
		cfg.D = 1000
		cfg.Channels = channels
		c := MustNew(cfg)
		im, cim := goldenMemories(c)
		rng := rand.New(rand.NewSource(int64(channels)))
		for trial := 0; trial < 5; trial++ {
			samples := make([]float64, channels)
			for i := range samples {
				samples[i] = rng.Float64() * 21
			}
			want := goldenSpatial(im, cim, samples)
			got := c.spatial.Encode(samples)
			if !hv.Equal(got, hv.FromBits(want)) {
				t.Fatalf("channels=%d trial=%d: packed spatial encoding deviates from golden model",
					channels, trial)
			}
		}
	}
}

func TestGoldenNGramAgrees(t *testing.T) {
	cfg := EMGConfig()
	cfg.D = 777 // deliberately non-word-aligned
	cfg.NGram = 4
	cfg.Window = 4
	c := MustNew(cfg)
	im, cim := goldenMemories(c)
	rng := rand.New(rand.NewSource(9))
	window := make([][]float64, 4)
	refSeq := make([]hdref.Bits, 4)
	for t0 := range window {
		window[t0] = []float64{rng.Float64() * 21, rng.Float64() * 21, rng.Float64() * 21, rng.Float64() * 21}
		refSeq[t0] = goldenSpatial(im, cim, window[t0])
	}
	want := hdref.NGram(refSeq)
	got := c.EncodeWindow(window)
	if !hv.Equal(got, hv.FromBits(want)) {
		t.Fatal("packed N-gram deviates from golden model")
	}
}

func TestGoldenEndToEndPredictionsAgree(t *testing.T) {
	// Train the packed classifier; rebuild the same prototypes through
	// the golden pipeline; every prediction must match. Odd window
	// counts per class avoid tie-break randomness.
	cfg := EMGConfig()
	cfg.D = 1500
	c := MustNew(cfg)
	im, cim := goldenMemories(c)
	rng := rand.New(rand.NewSource(31))

	patterns := map[string][]float64{
		"a": {16, 3, 8, 2}, "b": {3, 14, 2, 10}, "c": {9, 9, 15, 3},
	}
	refAM := &hdref.RefAM{}
	for label, pat := range patterns {
		var encoded []hdref.Bits
		for i := 0; i < 7; i++ {
			samples := make([]float64, 4)
			for ch := range samples {
				samples[ch] = pat[ch] + rng.NormFloat64()
			}
			c.Train(label, [][]float64{samples})
			encoded = append(encoded, goldenSpatial(im, cim, samples))
		}
		refAM.Labels = append(refAM.Labels, label)
		refAM.Prototypes = append(refAM.Prototypes, hdref.BundleWindows(encoded, nil))
	}

	// Prototypes themselves must agree bit for bit.
	for i, label := range refAM.Labels {
		var packed hv.Vector
		for j, l := range c.AM().Labels() {
			if l == label {
				packed = c.AM().Prototype(j)
			}
			_ = j
		}
		if !hv.Equal(packed, hv.FromBits(refAM.Prototypes[i])) {
			t.Fatalf("class %q: packed prototype deviates from golden model", label)
		}
	}

	// Predictions on fresh samples.
	for trial := 0; trial < 30; trial++ {
		var pat []float64
		for _, p := range patterns {
			pat = p
			break
		}
		samples := make([]float64, 4)
		for ch := range samples {
			samples[ch] = pat[ch] + rng.NormFloat64()*2
		}
		wantLabel, wantDist := refAM.Classify(goldenSpatial(im, cim, samples))
		gotLabel, gotDist := c.Predict([][]float64{samples})
		if gotLabel != wantLabel || gotDist != wantDist {
			t.Fatalf("trial %d: packed (%q,%d) != golden (%q,%d)",
				trial, gotLabel, gotDist, wantLabel, wantDist)
		}
	}
}
