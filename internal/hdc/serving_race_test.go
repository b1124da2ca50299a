package hdc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pulphd/internal/hdref"
)

// TestServingConcurrentPredictLearn hammers the copy-on-write model
// with concurrent readers and a writer. It is the test the -race CI
// lane exists for: several goroutines predict through their own
// Sessions (one window at a time and in batches), more go through the
// pooled Serving.Predict convenience path, while a learner publishes a
// new generation per sample. Readers assert they only ever observe
// fully-built generations; the watcher asserts ids never go backwards
// and the learner that every learn published exactly one generation.
// NewServing's deprecated shard count must change nothing, so the
// hammer runs once per count the serving layer used to fan out over.
func TestServingConcurrentPredictLearn(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + shards)))
			cfg := servingConfig()
			sv, err := NewServing(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			train := syntheticSamples(cfg, 6, 36, rng)
			learnAll(t, sv, train)
			valid := make(map[string]bool)
			for _, s := range train {
				valid[s.Label] = true
			}
			valid["X"] = true // the label the online learner adds

			iters := 150
			if testing.Short() {
				iters = 30
			}
			var stop atomic.Bool
			var wg sync.WaitGroup

			// Session readers, one window at a time.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					ses := sv.NewSession()
					w := syntheticSamples(cfg, 6, 1, r)[0].Window
					for !stop.Load() {
						label, dist := ses.PredictCtx(context.Background(), nil, w)
						if !valid[label] || dist < 0 || dist > cfg.D {
							t.Errorf("reader observed (%q,%d)", label, dist)
							return
						}
					}
				}(int64(g))
			}
			// A reader cycling a batch of windows on its own Session.
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(99))
				ses := sv.NewSession()
				var windows [][][]float64
				for _, s := range syntheticSamples(cfg, 6, 4, r) {
					windows = append(windows, s.Window)
				}
				for !stop.Load() {
					for _, w := range windows {
						label, dist := ses.PredictCtx(context.Background(), nil, w)
						if !valid[label] || dist < 0 || dist > cfg.D {
							t.Errorf("batch reader observed (%q,%d)", label, dist)
							return
						}
					}
				}
			}()
			// Readers through the sync.Pool convenience path.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					w := syntheticSamples(cfg, 6, 1, r)[0].Window
					for !stop.Load() {
						if label, _ := sv.Predict(w); !valid[label] {
							t.Errorf("pooled reader observed label %q", label)
							return
						}
					}
				}(int64(10 + g))
			}
			// Generation watcher: ids only move forward.
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for !stop.Load() {
					g := sv.Generation()
					if g < last {
						t.Errorf("generation went backwards: %d after %d", g, last)
						return
					}
					last = g
				}
			}()

			// The writer: an online learner, one generation per sample.
			before := sv.Generation()
			for i, s := range syntheticSamples(cfg, 6, iters, rng) {
				label := s.Label
				if i%5 == 0 {
					label = "X"
				}
				if err := sv.Learn(label, s.Window); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()

			if published := sv.Generation() - before; published != uint64(iters) {
				t.Errorf("published %d generations, want %d", published, iters)
			}
		})
	}
}

// TestServingConcurrentPredictLearnWide is the hammer at 24 classes,
// three slab blocks, where the scan skips blocks by the slab's bounds.
// One learner writes the classes of block 0, moving their drift, and
// another the classes of the later blocks, rewriting those blocks'
// bounds, while readers predict. Afterwards every test window must get
// the answer hdref.RefAM gives over the final prototypes.
func TestServingConcurrentPredictLearnWide(t *testing.T) {
	const classes = 24
	rng := rand.New(rand.NewSource(24))
	cfg := servingConfig()
	sv, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	learnAll(t, sv, syntheticSamples(cfg, classes, 2*classes, rng))
	test := syntheticSamples(cfg, classes, 2*classes, rng)
	var first, later []sample
	for i, s := range syntheticSamples(cfg, classes, 20*classes, rng) {
		if i%classes < 8 {
			first = append(first, s)
		} else {
			later = append(later, s)
		}
	}
	if testing.Short() {
		first, later = first[:40], later[:40]
	}

	var stop atomic.Bool
	var readers, learners sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			ses := sv.NewSession()
			for i := g; !stop.Load(); i++ {
				label, dist := ses.PredictCtx(context.Background(), nil, test[i%len(test)].Window)
				if label == "" || dist < 0 || dist > cfg.D {
					t.Errorf("reader observed (%q,%d)", label, dist)
					return
				}
			}
		}(g)
	}
	for _, samples := range [][]sample{first, later} {
		learners.Add(1)
		go func(samples []sample) {
			defer learners.Done()
			for _, s := range samples {
				if err := sv.Learn(s.Label, s.Window); err != nil {
					t.Error(err)
					return
				}
			}
		}(samples)
	}
	learners.Wait()
	stop.Store(true)
	readers.Wait()

	am := sv.gen.Load().am
	ref := hdref.RefAM{Labels: sv.Labels()}
	for i := 0; i < am.Len(); i++ {
		ref.Prototypes = append(ref.Prototypes, am.Row(i).Bits())
	}
	ses := sv.NewSession()
	for i, s := range test {
		ses.ctx.encodeTo(ses.ctx.query, s.Window, cfg.NGram)
		wantLabel, wantDist := ref.Classify(ses.ctx.query.Bits())
		if label, dist := sv.Predict(s.Window); label != wantLabel || dist != wantDist {
			t.Fatalf("window %d: predicts (%q,%d), reference (%q,%d)", i, label, dist, wantLabel, wantDist)
		}
	}
}

// TestServingNewClassesUnderReaders pins the shared label slice and
// the appended slab blocks under the race detector: a learner adds 40
// new classes, so the label slice grows past several capacities and
// the slab past several 8-class blocks, while readers predict and read
// the published labels. Every answer must name a class the generation
// it came from already held: a label index never runs past the
// labels a generation carries.
func TestServingNewClassesUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := servingConfig()
	sv, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(cfg, 41, 41, rng)
	if err := sv.Learn(samples[0].Label, samples[0].Window); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg, started sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			ses := sv.NewSession()
			sv.Predict(samples[0].Window)
			started.Done()
			for i := 0; !stop.Load(); i++ {
				label, _, gen := sv.PredictTraced(nil, samples[i%len(samples)].Window)
				if label == "" || gen == 0 {
					t.Errorf("read (%q, generation %d)", label, gen)
					return
				}
				ses.PredictCtx(context.Background(), nil, samples[0].Window)
				if labels := sv.Labels(); len(labels) < 1 || labels[0] != samples[0].Label {
					t.Errorf("published labels %v", labels)
					return
				}
			}
		}()
	}
	started.Wait()
	for _, s := range samples[1:] {
		if err := sv.Learn(s.Label, s.Window); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if sv.Classes() != len(samples) {
		t.Fatalf("classes %d, want %d", sv.Classes(), len(samples))
	}
	for i, s := range samples {
		if label, dist := sv.Predict(s.Window); label != s.Label || dist != 0 {
			t.Fatalf("class %d: predicts (%q,%d), want (%q,0)", i, label, dist, s.Label)
		}
	}
}
