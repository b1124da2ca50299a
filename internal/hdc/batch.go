package hdc

import (
	"fmt"

	"pulphd/internal/hv"
	"pulphd/internal/parallel"
)

// This file adds the serving-shape parallelism the paper's word-level
// decomposition cannot give: whole queries fan out across the worker
// pool, each worker encoding and classifying with its own scratch.
// The PULP cluster parallelizes inside one classification because one
// classification is all it is handed per 10 ms detection period (§3);
// a host replaying a recorded session or serving query traffic has
// many independent windows in hand, and across-query parallelism
// scales past the ~8-core knee of the cluster's word-split.

// Prediction is one classification outcome of a batch.
type Prediction struct {
	Label    string
	Distance int
}

// batchCtx is the per-worker encode/classify scratch. Each worker
// gets its own encoders (they carry mutable scratch) over the shared
// read-only item memories.
type batchCtx struct {
	geom     geometry
	spatial  *SpatialEncoder
	temporal *TemporalEncoder
	seq      []hv.Vector
	ngram    hv.Vector
	g0, g1   hv.Vector // first two N-grams, for the §5.1 tie-breaker
	tie      hv.Vector
	bundle   *hv.Bundler
	query    hv.Vector
}

// geometry is the part of a Config that sizes encode scratch: any two
// models that agree on it (and on the backend) can share scratch.
type geometry struct{ d, channels, ngram, window int }

func (c Config) geometry() geometry { return geometry{c.D, c.Channels, c.NGram, c.Window} }

func newBatchCtx(c *Classifier) *batchCtx {
	return newEncodeCtx(c.cfg, c.im, c.cim)
}

// newEncodeCtx builds the per-worker scratch over shared read-only
// item memories — the constructor the serving layer uses, where no
// *Classifier exists on the read path.
func newEncodeCtx(cfg Config, im *ItemMemory, cim *ContinuousItemMemory) *batchCtx {
	d := cfg.D
	bc := &batchCtx{
		geom:     cfg.geometry(),
		spatial:  NewSpatialEncoder(im, cim),
		temporal: NewTemporalEncoder(d, cfg.NGram),
		seq:      make([]hv.Vector, cfg.Window),
		ngram:    hv.New(d),
		g0:       hv.New(d),
		g1:       hv.New(d),
		tie:      hv.New(d),
		bundle:   hv.NewBundler(d),
		query:    hv.New(d),
	}
	for i := range bc.seq {
		bc.seq[i] = hv.New(d)
	}
	return bc
}

// encodeTo encodes one window into dst without touching any rng.
// Single-N-gram windows follow exactly the serial EncodeWindow path,
// so the result is bit-identical to Classifier.Predict; so do windows
// with an odd number of N-grams, where no majority tie can occur. A
// one-sample window at N = 1 (the EMG configuration) is its own
// N-gram, so its spatial vector is encoded straight into dst. Windows
// with an even N-gram count replace the serial path's random tie flips
// with the accelerator's deterministic rule — the XOR of the first two
// N-grams joins the bundle (§5.1) — so batch results never depend on
// worker count or submission order.
func (bc *batchCtx) encodeTo(dst hv.Vector, window [][]float64, n int) {
	if n == 1 && len(window) == 1 {
		bc.spatial.EncodeTo(dst, window[0])
		return
	}
	if len(window) > len(bc.seq) {
		grown := make([]hv.Vector, len(window))
		copy(grown, bc.seq)
		for i := len(bc.seq); i < len(window); i++ {
			grown[i] = hv.New(dst.Dim())
		}
		bc.seq = grown
	}
	seq := bc.seq[:len(window)]
	for t, samples := range window {
		bc.spatial.EncodeTo(seq[t], samples)
	}
	numGrams := len(window) - n + 1
	if numGrams == 1 {
		bc.temporal.EncodeTo(dst, seq)
		return
	}
	bc.bundle.Reset()
	for t := 0; t < numGrams; t++ {
		bc.temporal.EncodeTo(bc.ngram, seq[t:t+n])
		switch t {
		case 0:
			copy(bc.g0.Words(), bc.ngram.Words())
		case 1:
			copy(bc.g1.Words(), bc.ngram.Words())
		}
		bc.bundle.Add(bc.ngram)
	}
	if numGrams%2 == 0 {
		hv.XorTo(bc.tie, bc.g0, bc.g1)
		bc.bundle.Add(bc.tie)
	}
	bc.bundle.VectorTo(dst, nil)
}

// BatchClassifier classifies many windows concurrently over a worker
// pool, one whole query per worker at a time. It borrows the parent
// classifier's model (item memories and AM) without copying it; the
// model must not be trained or mutated while a batch call is running.
type BatchClassifier struct {
	c    *Classifier
	pool *parallel.Pool
	ctxs []*batchCtx
}

// Batch returns a batched view of the classifier over pool. Contexts
// are allocated once per pool worker; reuse the BatchClassifier
// across calls to amortize them. A nil pool is allowed and degrades
// to a serial loop over the windows, as a closed pool does, so
// callers without a pool handy (one-shot replays, tests) need no
// special case.
func (c *Classifier) Batch(pool *parallel.Pool) *BatchClassifier {
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	ctxs := make([]*batchCtx, workers)
	for i := range ctxs {
		ctxs[i] = newBatchCtx(c)
	}
	return &BatchClassifier{c: c, pool: pool, ctxs: ctxs}
}

// ClassifyBatch classifies every window and returns one Prediction
// per window, in order.
func (b *BatchClassifier) ClassifyBatch(windows [][][]float64) []Prediction {
	return b.PredictBatch(windows, nil)
}

// PredictBatch is ClassifyBatch writing into out (grown only when its
// capacity is short, so steady-state callers allocate nothing). The
// windows are validated up front, then split across the pool workers;
// each worker encodes and searches with private scratch, writing its
// disjoint slice of out.
func (b *BatchClassifier) PredictBatch(windows [][][]float64, out []Prediction) []Prediction {
	if cap(out) < len(windows) {
		out = make([]Prediction, len(windows))
	}
	out = out[:len(windows)]
	if len(windows) == 0 {
		return out
	}
	n := b.c.cfg.NGram
	channels := b.c.cfg.Channels
	for i, w := range windows {
		if len(w) < n {
			panic(fmt.Sprintf("hdc: PredictBatch: window %d has %d samples, shorter than N-gram %d", i, len(w), n))
		}
		for t, samples := range w {
			if len(samples) != channels {
				panic(fmt.Sprintf("hdc: PredictBatch: window %d sample %d has %d channels, want %d", i, t, len(samples), channels))
			}
		}
	}
	am := b.c.am
	// Threshold dirty prototypes once, serially; the workers then
	// only read the AM.
	am.refresh()
	classify := func(lo, hi, worker int) {
		bc := b.ctxs[worker]
		for i := lo; i < hi; i++ {
			bc.encodeTo(bc.query, windows[i], n)
			idx, dist := am.Nearest(bc.query)
			out[i] = Prediction{Label: am.labels[idx], Distance: dist}
		}
	}
	if b.pool == nil {
		classify(0, len(windows), 0)
		return out
	}
	b.pool.ForRangeWorker(len(windows), classify)
	return out
}
