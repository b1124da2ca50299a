package hdc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/hv"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
)

// This file is the online-learning serving layer: it makes the paper's
// "the AM matrix can be continuously updated for on-line learning"
// (§3) safe under concurrent query traffic. The model is published as
// immutable generations behind an atomic pointer — Learn accumulates
// into the class bundler and rebinarizes that class (the paper's
// one-shot training) straight into a copy of its 8-class slab block,
// then swaps in a generation sharing every other block, without ever
// mutating the one in-flight predicts are reading.
//
// Invariants (tested by the race/property layers):
//   - Generation ids increase by exactly one per publication.
//   - A reader never observes a half-built AM: every generation's
//     labels and prototypes are fully constructed before the pointer
//     swap, and never written afterwards.
//   - Rebinarization breaks majority ties deterministically to 0, like
//     the accelerator's rule, so no rng stream is involved: replaying
//     the same Learn sequence publishes identical prototypes.

// generation is one immutable published model snapshot: the class
// labels and their prototypes in class-index order. labels is a prefix
// of the learner's append-only label slice, so a publish copies no
// labels; am is searched by hv.Slab.Nearest, the scan AssociativeMemory
// and AdaptiveMemory share. The PULP cluster parallelizes inside each
// prototype's words (§3); at the paper's 5 classes a whole scan is a
// few microseconds, so the serving layer runs it serially on the
// caller.
type generation struct {
	id     uint64
	labels []string
	am     *hv.Slab
}

// newGeneration returns generation id over am and labels, a slice the
// learner only appends to. The generation's slice is capped at its
// length, so no append through it can reach the learner's array.
func newGeneration(id uint64, labels []string, am *hv.Slab) *generation {
	return &generation{id: id, labels: labels[:len(labels):len(labels)], am: am}
}

// Serving is a hot-swappable HD classifier: any number of goroutines
// may predict (each through its own Session, or the pooled Predict
// and PredictTraced) while Learn publishes new model generations.
// Predictions are served from the generation current at their start;
// a Learn becomes visible atomically to every subsequent load.
type Serving struct {
	cfg Config
	im  *ItemMemory
	cim *ContinuousItemMemory

	gen atomic.Pointer[generation]

	// mu serializes learners; readers never take it. labels only
	// grows: a published generation reads a prefix of it, whose
	// elements are never written again. index maps a label to its
	// class index.
	mu     sync.Mutex
	labels []string
	index  map[string]int
	accum  []*hv.Bundler // nil entry: fixed prototype, not learnable
}

// NewServing returns an empty learnable serving classifier for cfg.
// Item memories are generated deterministically from cfg.Seed, exactly
// as New; a stored backend reuses the tables of the last equal cfg
// (see storedTables).
//
// Deprecated: the shards argument is ignored — the associative memory
// is one flat table — and will be removed from the signature.
func NewServing(cfg Config, shards int) (*Serving, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return NewServingFromState(cfg, ServingState{Prototypes: hv.NewSlab(cfg.D, nil)})
}

// storedTables is the stored-backend IM/CIM pair NewServing built
// last and the Config it was built for. A serving model never writes
// its item memories, so every serving model of an equal Config reads
// one prestored copy (§2.1.1), and a registry fault-in decodes a
// snapshot instead of regenerating 32 KB of rows from the seed. It is
// one slot rather than a map because models can be created with any
// seed, and a map would pin a table pair for every seed ever seen.
// Classifiers (New) keep private tables: InjectBitErrors and
// CorruptTransfer corrupt them in place.
var storedTables struct {
	mu  sync.Mutex
	cfg Config
	im  *ItemMemory
	cim *ContinuousItemMemory
}

// servingTables returns the item memories of a new serving model:
// the shared stored pair, rebuilt when cfg differs from the last
// stored Config, or fresh expansion keys for the remat backend.
func servingTables(cfg Config) (*ItemMemory, *ContinuousItemMemory) {
	if cfg.Backend != BackendStored {
		return newConfigIM(cfg), newConfigCIM(cfg)
	}
	storedTables.mu.Lock()
	defer storedTables.mu.Unlock()
	if storedTables.im == nil || storedTables.cfg != cfg {
		storedTables.cfg = cfg
		storedTables.im, storedTables.cim = newConfigIM(cfg), newConfigCIM(cfg)
	}
	return storedTables.im, storedTables.cim
}

// Serving snapshots a trained classifier into a serving instance:
// generation 0 holds the current prototypes (the classifier's slab,
// which neither side ever writes), and the class accumulators are
// cloned so online learning continues from the trained counts. The
// serving instance shares the classifier's read-only item memories but
// is otherwise detached — training either side afterwards does not
// affect the other. Classes with fixed prototypes (SetPrototype,
// Truncated) serve but reject Learn.
func (c *Classifier) Serving() *Serving {
	sv := &Serving{cfg: c.cfg, im: c.im, cim: c.cim}
	c.am.refresh()
	sv.labels = append([]string(nil), c.am.labels...)
	sv.index = indexLabels(sv.labels)
	sv.accum = make([]*hv.Bundler, len(c.am.accum))
	for i, b := range c.am.accum {
		if b != nil {
			sv.accum[i] = b.Clone()
		}
	}
	sv.gen.Store(newGeneration(0, sv.labels, c.am.slab))
	return sv
}

// indexLabels maps each label to its index.
func indexLabels(labels []string) map[string]int {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	return index
}

// Config returns the classifier configuration.
func (sv *Serving) Config() Config { return sv.cfg }

// Generation returns the id of the currently published model
// snapshot. Ids start at 0 and increase by one per Learn.
func (sv *Serving) Generation() uint64 { return sv.gen.Load().id }

// Classes returns the class count of the published generation.
func (sv *Serving) Classes() int { return sv.gen.Load().am.Len() }

// Labels returns the class labels of the published generation.
func (sv *Serving) Labels() []string {
	return append([]string(nil), sv.gen.Load().labels...)
}

// ResidentBytes returns the resident model footprint of the published
// generation in bytes: item memory + continuous item memory + AM
// prototypes. With the rematerializing backend the IM+CIM term is
// expansion keys rather than matrices — the footprint win the
// pulphd_model_resident_bytes gauge makes visible. Stored
// tables count once per model even when NewServing shares them, so a
// resident-bytes budget does not depend on which models happen to
// share.
func (sv *Serving) ResidentBytes() int {
	return sv.im.SizeBytes() + sv.cim.SizeBytes() + amBytes(sv.gen.Load().am)
}

// amBytes is the logical prototype footprint of am: WordsFor(d) packed
// words per class. The slab's padding to whole steps and the empty
// lanes of its last block are not counted, so resident-byte budgets
// read the same for any layout.
func amBytes(am *hv.Slab) int {
	return am.Len() * hv.WordsFor(am.Dim()) * 4
}

// ValidateWindow reports whether window has the shape the encoders
// expect (at least NGram samples of Channels values each). Remote
// serving edges validate with it before predicting, which panics on
// malformed shapes like the rest of the in-process API; Learn reports
// the same errors itself.
func (sv *Serving) ValidateWindow(window [][]float64) error {
	if len(window) < sv.cfg.NGram {
		return fmt.Errorf("hdc: window of %d samples shorter than N-gram %d", len(window), sv.cfg.NGram)
	}
	for t, s := range window {
		if len(s) != sv.cfg.Channels {
			return fmt.Errorf("hdc: window sample %d has %d channels, want %d", t, len(s), sv.cfg.Channels)
		}
	}
	return nil
}

// Learn folds one label-corrected window into the model and publishes
// a new generation. It is LearnTraced without a span recorder.
func (sv *Serving) Learn(label string, window [][]float64) error {
	return sv.LearnTraced(nil, label, window)
}

// LearnTraced folds one label-corrected window into the model and
// publishes a new generation: accumulate into the class bundler,
// rebinarize that class (majority threshold, ties deterministically
// 0) into a copy of its slab block, swap the pointer. A publish copies
// one 8-class block and the block-pointer slice; labels are shared.
// In-flight predicts keep reading the old generation; no reader is
// ever blocked.
// When rec is non-nil the encode and the publication record as
// learn.encode and learn.publish spans under rec's staged parent.
func (sv *Serving) LearnTraced(rec *obs.Spans, label string, window [][]float64) error {
	if err := sv.ValidateWindow(window); err != nil {
		return err
	}
	if label == "" {
		return fmt.Errorf("hdc: Learn: empty label")
	}
	bc := sv.scratch()
	enc := rec.Start("learn.encode", rec.Parent())
	bc.encodeTo(bc.query, window, sv.cfg.NGram)
	rec.End(enc)

	m := servingMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	pub := rec.Start("learn.publish", rec.Parent())
	defer rec.End(pub)
	sv.mu.Lock()
	i, ok := sv.index[label]
	if !ok {
		i = len(sv.labels)
		sv.labels = append(sv.labels, label)
		sv.index[label] = i
		sv.accum = append(sv.accum, hv.NewBundler(sv.cfg.D))
	}
	if sv.accum[i] == nil {
		sv.mu.Unlock()
		sv.release(bc)
		return fmt.Errorf("hdc: Learn: class %q has a fixed prototype", label)
	}
	sv.accum[i].Add(bc.query)
	old := sv.gen.Load()
	next := newGeneration(old.id+1, sv.labels, old.am.WithBundle(i, sv.accum[i], nil))
	sv.gen.Store(next)
	sv.mu.Unlock()
	sv.release(bc)
	rec.Annotate(pub, "generation", int64(next.id))
	rec.Annotate(pub, "classes", int64(next.am.Len()))
	if m != nil {
		m.RecordPublish(time.Since(start))
	}
	return nil
}

// scratchPools hold the encode scratch of pooled predicts and learns
// for the whole process, one pool per backend (the two build different
// spatial-encoder scratch). Scratch is sized by a model's geometry,
// not by the model: it is bound to a model's item memories for one
// call and unbound before it goes back, so it serves every model of
// its geometry, a fault-in allocates none, and a pooled object never
// keeps an evicted model reachable. A per-model pool would pin its
// model until the second GC after eviction.
var scratchPools [BackendRemat + 1]sync.Pool

// scratch returns pooled encode scratch bound to sv's item memories,
// or new scratch when the pool holds none of sv's geometry; scratch of
// another geometry is dropped.
func (sv *Serving) scratch() *batchCtx {
	if bc, ok := scratchPools[sv.cfg.Backend].Get().(*batchCtx); ok && bc.geom == sv.cfg.geometry() {
		bc.spatial.im, bc.spatial.cim = sv.im, sv.cim
		return bc
	}
	return newEncodeCtx(sv.cfg, sv.im, sv.cim)
}

// release unbinds bc from sv's item memories and pools it.
func (sv *Serving) release(bc *batchCtx) {
	bc.spatial.im, bc.spatial.cim = nil, nil
	scratchPools[sv.cfg.Backend].Put(bc)
}

// Predict classifies one window against the current generation. It is
// PredictTraced without a span recorder and without the generation.
func (sv *Serving) Predict(window [][]float64) (label string, distance int) {
	label, distance, _ = sv.PredictTraced(nil, window)
	return label, distance
}

// PredictTraced classifies one window against the current generation
// and returns the id of the generation it scanned — a Learn can
// publish between a caller reading Generation and the predict's own
// atomic load, so callers that report where an answer came from use
// this one. Safe for any number of concurrent callers; the encode
// scratch comes from the process's scratch pools. A predict that
// panics never returns its scratch to the pool: a panic mid-encode can
// leave it half written. When rec is non-nil the predict, its encode
// and its AM search record as spans under rec's staged parent; with a
// metrics sink installed (SetMetrics) the predict and per-stage
// latency histograms fill. With neither, the call reads no clock and
// allocates nothing.
func (sv *Serving) PredictTraced(rec *obs.Spans, window [][]float64) (label string, distance int, generation uint64) {
	bc := sv.scratch()
	label, distance, generation = sv.predict(bc, rec, metrics(), window)
	sv.release(bc)
	return label, distance, generation
}

// Session is a per-goroutine serving handle holding encode scratch, so
// steady-state predicts allocate nothing. Many Sessions share one
// Serving; a Session itself must not be used concurrently. Sessions
// stay valid across generation swaps — every call re-loads the current
// generation.
type Session struct {
	sv  *Serving
	ctx *batchCtx
}

// NewSession returns a fresh serving handle.
func (sv *Serving) NewSession() *Session {
	return &Session{sv: sv, ctx: newEncodeCtx(sv.cfg, sv.im, sv.cim)}
}

// PredictCtx classifies one window against the current generation.
// With a metrics sink installed (SetMetrics) the predict and
// per-stage latency histograms fill; without, the call reads no clock
// and allocates nothing.
//
// Deprecated: ctx and pool are ignored and will be removed from the
// signature. Spans record through Serving.PredictTraced, and the AM
// scan runs flat on the caller.
func (s *Session) PredictCtx(ctx context.Context, pool *parallel.Pool, window [][]float64) (label string, distance int) {
	label, distance, _ = s.sv.predict(s.ctx, nil, metrics(), window)
	return label, distance
}

// predict is the one predict body: encode the window with scratch bc,
// then scan the generation loaded at the start of the call, whose id
// it returns. Spans record when rec is non-nil and latencies when m
// is; both are optional.
func (sv *Serving) predict(bc *batchCtx, rec *obs.Spans, m *obs.InferenceMetrics, window [][]float64) (string, int, uint64) {
	gen := sv.gen.Load()
	am := gen.am
	if am.Len() == 0 {
		panic("hdc: Serving.Predict with no classes")
	}
	var start, encoded time.Time
	if m != nil {
		start = time.Now()
	}
	root := rec.Start("predict", rec.Parent())
	enc := rec.Start("encode", root)
	bc.encodeTo(bc.query, window, sv.cfg.NGram)
	rec.End(enc)
	if m != nil {
		encoded = time.Now()
	}
	search := rec.Start("am.search", root)
	rec.Annotate(search, "classes", int64(am.Len()))
	rec.Annotate(search, "generation", int64(gen.id))
	idx, dist := am.Nearest(bc.query)
	rec.End(search)
	rec.End(root)
	if m != nil {
		done := time.Now()
		m.RecordStages(encoded.Sub(start), done.Sub(encoded))
		m.RecordPredict(done.Sub(start))
	}
	return gen.labels[idx], dist, gen.id
}
