package hdc

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pulphd/internal/fault"
	"pulphd/internal/hdref"
)

// Serving models of an equal stored Config share one IM/CIM pair
// (storedTables). These tests pin the sharing and that it changes no
// answer: shared, fresh and classifier-private tables all predict like
// the unpacked golden model, and corrupting a classifier's tables
// reaches no serving model.

// tableCase is a training set and query set of one-sample windows,
// whose encoding is a single spatial encoding, so the golden model
// needs no N-gram or window bundling.
type tableCase struct {
	train   []sample
	queries [][][]float64
}

func newTableCase(cfg Config, rng *rand.Rand) tableCase {
	var tc tableCase
	for _, s := range syntheticSamples(cfg, 4, 21, rng) {
		tc.train = append(tc.train, sample{Label: s.Label, Window: s.Window[:1]})
	}
	for _, s := range syntheticSamples(cfg, 4, 12, rng) {
		tc.queries = append(tc.queries, s.Window[:1])
	}
	return tc
}

// golden trains the unpacked model on tc over the tables built
// directly from cfg and returns its answer to every query.
func (tc tableCase) golden(cfg Config) []Prediction {
	im, cim := goldenTables(cfg, newConfigIM(cfg), newConfigCIM(cfg))
	encode := func(w [][]float64) hdref.Bits { return goldenSpatial(im, cim, w[0]) }
	am := &hdref.RefAM{}
	encoded := map[string][]hdref.Bits{}
	for _, s := range tc.train {
		if encoded[s.Label] == nil {
			am.Labels = append(am.Labels, s.Label)
		}
		encoded[s.Label] = append(encoded[s.Label], encode(s.Window))
	}
	for _, l := range am.Labels {
		am.Prototypes = append(am.Prototypes, hdref.BundleWindows(encoded[l], nil))
	}
	out := make([]Prediction, len(tc.queries))
	for i, q := range tc.queries {
		out[i].Label, out[i].Distance = am.Classify(encode(q))
	}
	return out
}

// answers teaches sv tc's training set and returns its answer to
// every query. A failed learn is reported with t.Error, which any
// goroutine may call.
func (tc tableCase) answers(t testing.TB, sv *Serving) []Prediction {
	t.Helper()
	for _, s := range tc.train {
		if err := sv.Learn(s.Label, s.Window); err != nil {
			t.Error(err)
			return nil
		}
	}
	out := make([]Prediction, len(tc.queries))
	for i, q := range tc.queries {
		out[i].Label, out[i].Distance = sv.Predict(q)
	}
	return out
}

func mustServing(t testing.TB, cfg Config) *Serving {
	t.Helper()
	sv, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestNewServingSharesStoredTables(t *testing.T) {
	cfg := servingConfig()
	a, b := mustServing(t, cfg), mustServing(t, cfg)
	if a.im != b.im || a.cim != b.cim {
		t.Fatal("equal stored configs built separate item memories")
	}
}

// TestNewServingSeedGetsFreshTables builds serving models for two
// seeds and checks each has its own seed's tables: both answer
// exactly as the golden model over tables built directly from their
// config, and as a classifier's serving snapshot, whose tables are
// private.
func TestNewServingSeedGetsFreshTables(t *testing.T) {
	cfgA := servingConfig()
	cfgB := cfgA
	cfgB.Seed += 7
	a, b := mustServing(t, cfgA), mustServing(t, cfgB)
	if a.im == b.im || a.cim == b.cim {
		t.Fatal("a different seed reused the last seed's item memories")
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range []struct {
		cfg Config
		sv  *Serving
	}{{cfgA, a}, {cfgB, b}} {
		tc := newTableCase(m.cfg, rng)
		want := tc.golden(m.cfg)
		if got := tc.answers(t, m.sv); !slices.Equal(got, want) {
			t.Fatalf("seed %d: NewServing answers %v, golden %v", m.cfg.Seed, got, want)
		}
		if got := tc.answers(t, MustNew(m.cfg).Serving()); !slices.Equal(got, want) {
			t.Fatalf("seed %d: private-table answers %v, golden %v", m.cfg.Seed, got, want)
		}
	}
}

// TestClassifierFaultsMissServingTables corrupts a classifier built
// after a serving model of the same config, in both ways the fault
// layer writes tables in place, and checks the serving model and the
// next NewServing still answer from pristine tables.
func TestClassifierFaultsMissServingTables(t *testing.T) {
	cfg := servingConfig()
	tc := newTableCase(cfg, rand.New(rand.NewSource(12)))
	want := tc.golden(cfg)
	sv := mustServing(t, cfg)

	c := MustNew(cfg)
	if c.InjectBitErrors(fault.Model{BER: 0.2, Seed: 3}) == 0 {
		t.Fatal("fault injection flipped nothing")
	}
	if c.IM().CorruptTransfer(fault.Model{BER: 0.2, Seed: 4}) == 0 {
		t.Fatal("transfer corruption flipped nothing")
	}

	if got := tc.answers(t, sv); !slices.Equal(got, want) {
		t.Fatalf("serving answers moved after classifier faults: %v, golden %v", got, want)
	}
	if got := tc.answers(t, mustServing(t, cfg)); !slices.Equal(got, want) {
		t.Fatalf("NewServing after classifier faults answers %v, golden %v", got, want)
	}
}

// TestNewServingConcurrent builds serving models from many goroutines
// over two alternating configs, so the shared slot is replaced while
// other models read the tables it held. Run under -race; every model
// must answer as its config's golden model.
func TestNewServingConcurrent(t *testing.T) {
	cfgs := []Config{servingConfig(), servingConfig()}
	cfgs[1].Seed += 5
	rng := rand.New(rand.NewSource(13))
	cases := []tableCase{newTableCase(cfgs[0], rng), newTableCase(cfgs[1], rng)}
	want := [][]Prediction{cases[0].golden(cfgs[0]), cases[1].golden(cfgs[1])}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sv, err := NewServing(cfgs[k], 1)
			if err != nil {
				t.Error(err)
				return
			}
			if got := cases[k].answers(t, sv); !slices.Equal(got, want[k]) {
				t.Errorf("config %d: answers %v, golden %v", k, got, want[k])
			}
		}(g % 2)
	}
	wg.Wait()
}
