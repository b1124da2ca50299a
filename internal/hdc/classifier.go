package hdc

import (
	"fmt"
	"math/rand"

	"pulphd/internal/hv"
)

// Config holds the complete parameterization of an HD classifier. In
// sharp contrast to the SVM "there is no variability in its model size
// after choosing its parameters: the dimension of the hypervectors,
// the N-gram size, and the number of input channels" (§4.1).
type Config struct {
	// D is the hypervector dimensionality (10,000 for full accuracy;
	// the M4 comparison uses 200).
	D int
	// Channels is the number of input channels (4 for the EMG task,
	// swept to 256 in the scalability study).
	Channels int
	// Levels is the number of CIM quantization levels (22 for EMG).
	Levels int
	// MinLevel and MaxLevel bound the analog input range mapped by the
	// CIM (0–21 mV for EMG).
	MinLevel, MaxLevel float64
	// NGram is the temporal window size N (1 for EMG; up to 29 for
	// EEG-scale tasks).
	NGram int
	// Window is the number of consecutive samples folded into one
	// query/classification (the samples arriving within one detection
	// period; 5 at 500 Hz for a 10 ms latency).
	Window int
	// Seed makes item memory generation and tie-breaking reproducible.
	Seed int64
	// Backend selects how the item memories hold their rows: stored
	// matrices (the zero value, the paper's layout) or rematerialized
	// seed expansion (BackendRemat, see remat.go). The backends are
	// distinct vector families — a model trained on one does not
	// transfer to the other.
	Backend Backend
}

// EMGConfig returns the paper's EMG hand-gesture configuration:
// 10,000-D, 4 channels, 22 CIM levels over 0–21 mV, N-gram of 1.
// Each classification maps one time-aligned set of channel samples
// (Fig. 1 maps "the four samples" of one timestamp), so the window is
// a single sample; the 10 ms detection latency is the budget for one
// such classification.
func EMGConfig() Config {
	return Config{
		D:        10000,
		Channels: 4,
		Levels:   22,
		MinLevel: 0,
		MaxLevel: 21,
		NGram:    1,
		Window:   1,
		Seed:     42,
	}
}

func (c Config) validate() error {
	switch {
	case c.D < 8:
		return fmt.Errorf("hdc: dimensionality %d too small", c.D)
	case c.Channels < 1:
		return fmt.Errorf("hdc: need at least one channel, got %d", c.Channels)
	case c.Levels < 2:
		return fmt.Errorf("hdc: need at least two CIM levels, got %d", c.Levels)
	case c.MaxLevel <= c.MinLevel:
		return fmt.Errorf("hdc: empty level range [%g,%g]", c.MinLevel, c.MaxLevel)
	case c.NGram < 1:
		return fmt.Errorf("hdc: N-gram size %d must be ≥1", c.NGram)
	case c.Window < c.NGram:
		return fmt.Errorf("hdc: window %d shorter than N-gram %d", c.Window, c.NGram)
	case c.Backend > BackendRemat:
		return fmt.Errorf("hdc: unknown item-memory backend %d", c.Backend)
	}
	return nil
}

// newConfigIM builds the item memory for cfg's backend.
func newConfigIM(cfg Config) *ItemMemory {
	if cfg.Backend == BackendRemat {
		return NewRematItemMemory(cfg.D, cfg.Channels, cfg.Seed)
	}
	return NewItemMemory(cfg.D, cfg.Channels, cfg.Seed)
}

// newConfigCIM builds the continuous item memory for cfg's backend.
func newConfigCIM(cfg Config) *ContinuousItemMemory {
	if cfg.Backend == BackendRemat {
		return NewRematContinuousItemMemory(cfg.D, cfg.Levels, cfg.MinLevel, cfg.MaxLevel, cfg.Seed+1)
	}
	return NewContinuousItemMemory(cfg.D, cfg.Levels, cfg.MinLevel, cfg.MaxLevel, cfg.Seed+1)
}

// Classifier is the end-to-end HD classifier: CIM/IM mapping, spatial
// encoding, temporal (N-gram) encoding, window bundling, and
// associative-memory search.
type Classifier struct {
	cfg      Config
	im       *ItemMemory
	cim      *ContinuousItemMemory
	spatial  *SpatialEncoder
	temporal *TemporalEncoder
	am       *AssociativeMemory
	rng      *rand.Rand

	// scratch reused across Encode calls
	spatialSeq []hv.Vector
	ngram      hv.Vector
	bundle     *hv.Bundler
	query      hv.Vector
}

// New builds a classifier from cfg, generating the item memories
// deterministically from cfg.Seed.
func New(cfg Config) (*Classifier, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Classifier{
		cfg:    cfg,
		im:     newConfigIM(cfg),
		cim:    newConfigCIM(cfg),
		am:     NewAssociativeMemory(cfg.D, cfg.Seed+2),
		rng:    rand.New(rand.NewSource(cfg.Seed + 3)),
		ngram:  hv.New(cfg.D),
		bundle: hv.NewBundler(cfg.D),
		query:  hv.New(cfg.D),
	}
	c.spatial = NewSpatialEncoder(c.im, c.cim)
	c.temporal = NewTemporalEncoder(cfg.D, cfg.NGram)
	c.spatialSeq = make([]hv.Vector, cfg.Window)
	for i := range c.spatialSeq {
		c.spatialSeq[i] = hv.New(cfg.D)
	}
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Classifier {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the classifier configuration.
func (c *Classifier) Config() Config { return c.cfg }

// IM exposes the item memory (read-only use expected).
func (c *Classifier) IM() *ItemMemory { return c.im }

// CIM exposes the continuous item memory.
func (c *Classifier) CIM() *ContinuousItemMemory { return c.cim }

// AM exposes the associative memory, e.g. for fault injection or
// model export.
func (c *Classifier) AM() *AssociativeMemory { return c.am }

// EncodeWindow maps a window of time-aligned samples
// (window[t][channel], len ≥ cfg.Window is not required — any length
// ≥ NGram works) into a single query hypervector: each timestamp is
// spatially encoded, consecutive N-grams are formed, and all N-grams
// of the window are bundled by componentwise majority.
func (c *Classifier) EncodeWindow(window [][]float64) hv.Vector {
	out := hv.New(c.cfg.D)
	c.EncodeWindowTo(out, window)
	return out
}

// EncodeWindowTo is EncodeWindow without the allocation: the query is
// encoded straight into dst, which must have the classifier's
// dimensionality. The rng stream (majority tie-breaking for even
// N-gram counts) advances exactly as in EncodeWindow.
func (c *Classifier) EncodeWindowTo(dst hv.Vector, window [][]float64) {
	n := c.cfg.NGram
	if len(window) < n {
		panic(fmt.Sprintf("hdc: EncodeWindow: window of %d samples shorter than N-gram %d", len(window), n))
	}
	if dst.Dim() != c.cfg.D {
		panic(fmt.Sprintf("hdc: EncodeWindowTo: dimension mismatch %d != %d", dst.Dim(), c.cfg.D))
	}
	// Spatial encoding per timestamp.
	seq := c.spatialSeq
	if len(window) > len(seq) {
		seq = make([]hv.Vector, len(window))
		copy(seq, c.spatialSeq)
		for i := len(c.spatialSeq); i < len(window); i++ {
			seq[i] = hv.New(c.cfg.D)
		}
		c.spatialSeq = seq
	}
	seq = seq[:len(window)]
	for t, samples := range window {
		c.spatial.EncodeTo(seq[t], samples)
	}
	// Temporal encoding: one N-gram per window position.
	numGrams := len(window) - n + 1
	if numGrams == 1 {
		c.temporal.EncodeTo(dst, seq)
		return
	}
	c.bundle.Reset()
	for t := 0; t < numGrams; t++ {
		c.temporal.EncodeTo(c.ngram, seq[t:t+n])
		c.bundle.Add(c.ngram)
	}
	c.bundle.VectorTo(dst, c.rng)
}

// Train folds one labelled window into the class prototype. "For a
// given class, across all its trials, the corresponding N-gram
// hypervectors are added to produce a binary prototype hypervector"
// (§2.1.1).
func (c *Classifier) Train(label string, window [][]float64) {
	c.am.Update(label, c.EncodeWindow(window))
}

// Predict classifies one window and returns the winning label with
// its Hamming distance. In steady state (no training since the last
// call) the whole path — spatial bind/majority, N-gram, bundling, AM
// search — reuses classifier-owned scratch and performs no heap
// allocation.
func (c *Classifier) Predict(window [][]float64) (label string, distance int) {
	c.EncodeWindowTo(c.query, window)
	return c.am.Classify(c.query)
}

// MemoryFootprint describes the classifier's storage requirement in
// bytes, split the way §3 allocates it between L2 (matrices) and L1
// (working hypervectors).
type MemoryFootprint struct {
	CIMBytes     int // CIM matrix, L2
	IMBytes      int // IM matrix, L2
	AMBytes      int // AM matrix, L2
	SpatialBytes int // spatial hypervector, L1
	NGramBytes   int // N-gram hypervector, L1
	BoundBytes   int // per-channel bound vectors, L1 working set
}

// Total returns the total footprint in bytes (≈50 kB for the EMG task
// at 10,000-D, §3).
func (m MemoryFootprint) Total() int {
	return m.CIMBytes + m.IMBytes + m.AMBytes + m.SpatialBytes + m.NGramBytes + m.BoundBytes
}

// Footprint computes the memory footprint for the current model. The
// AM contribution uses the live class count, or assumeClasses if the
// model is untrained (footprint studies need it before training).
func (c *Classifier) Footprint(assumeClasses int) MemoryFootprint {
	words := hv.WordsFor(c.cfg.D)
	classes := c.am.Classes()
	if classes == 0 {
		classes = assumeClasses
	}
	bound := c.cfg.Channels
	if bound%2 == 0 {
		bound++ // tie-break vector
	}
	boundBytes := bound * words * 4
	if c.cfg.Backend == BackendRemat {
		// The fused encoder holds one 64-bit block per majority input
		// and one quantized level per channel instead of full bound
		// vectors — the L1 working-set collapse of rematerialization.
		boundBytes = bound*8 + c.cfg.Channels*8
	}
	return MemoryFootprint{
		CIMBytes:     c.cim.SizeBytes(),
		IMBytes:      c.im.SizeBytes(),
		AMBytes:      classes * words * 4,
		SpatialBytes: words * 4,
		NGramBytes:   words * 4,
		BoundBytes:   boundBytes,
	}
}

// Truncated derives a smaller deployable classifier from a trained
// one by cutting every item memory, CIM level and learned prototype
// to its first d components — dimension reduction without
// retraining. Because hypervector components are i.i.d., a prefix
// preserves relative distances in expectation; the graceful
// degradation of §4.1 is what makes the surgery usable. The result
// has fixed prototypes (no further training).
func (c *Classifier) Truncated(d int) (*Classifier, error) {
	if d <= 8 || d > c.cfg.D {
		return nil, fmt.Errorf("hdc: Truncated: dimension %d outside (8,%d]", d, c.cfg.D)
	}
	cfg := c.cfg
	cfg.D = d
	out := &Classifier{
		cfg:    cfg,
		im:     c.im.Truncate(d),
		cim:    c.cim.Truncate(d),
		am:     NewAssociativeMemory(d, cfg.Seed+2),
		rng:    rand.New(rand.NewSource(cfg.Seed + 3)),
		ngram:  hv.New(d),
		bundle: hv.NewBundler(d),
		query:  hv.New(d),
	}
	out.spatial = NewSpatialEncoder(out.im, out.cim)
	out.temporal = NewTemporalEncoder(d, cfg.NGram)
	out.spatialSeq = make([]hv.Vector, cfg.Window)
	for i := range out.spatialSeq {
		out.spatialSeq[i] = hv.New(d)
	}
	labels := c.am.Labels()
	for i, label := range labels {
		out.am.SetPrototype(label, hv.Truncate(c.am.Prototype(i), d))
	}
	return out, nil
}
