package hdc

import (
	"fmt"
	"math/rand"
	"sort"

	"pulphd/internal/hv"
)

// AssociativeMemory stores one binary prototype hypervector per class,
// derived from the learning session, and classifies query hypervectors
// by returning "the label of the one that has the minimum Hamming
// distance" (§2.1.1). It supports the on-line updating the paper notes
// ("the AM matrix can be continuously updated for on-line learning",
// §3) through Update.
type AssociativeMemory struct {
	d      int
	labels []string
	// slab holds the prototypes; every write replaces it with a
	// copy-on-write successor, so a slab once read is never changed.
	slab *hv.Slab
	// accumulators back incremental training; nil entries mean the
	// prototype was installed directly and cannot be updated.
	accum []*hv.Bundler
	// dirty marks classes whose accumulator changed since the last
	// threshold; prototypes are re-thresholded lazily on access.
	dirty []bool
	rng   *rand.Rand
}

// NewAssociativeMemory returns an empty AM for d-dimensional
// prototypes. seed drives the majority tie-breaking during prototype
// thresholding.
func NewAssociativeMemory(d int, seed int64) *AssociativeMemory {
	return &AssociativeMemory{d: d, slab: hv.NewSlab(d, nil), rng: rand.New(rand.NewSource(seed))}
}

// Dim returns the prototype dimensionality.
func (am *AssociativeMemory) Dim() int { return am.d }

// Classes returns the number of stored prototypes.
func (am *AssociativeMemory) Classes() int { return len(am.labels) }

// Labels returns the class labels in index order.
func (am *AssociativeMemory) Labels() []string {
	return append([]string(nil), am.labels...)
}

// Prototype returns a copy of the prototype hypervector of class
// index i. Writing the copy does not change the AM; install it with
// SetPrototype.
func (am *AssociativeMemory) Prototype(i int) hv.Vector {
	am.refresh()
	return am.slab.Row(i)
}

// SizeBytes returns the AM matrix footprint in bytes (5×313 words ≈
// 7 kB for the 5-class EMG task at 10,000-D).
func (am *AssociativeMemory) SizeBytes() int {
	return amBytes(am.slab)
}

func (am *AssociativeMemory) index(label string) int {
	for i, l := range am.labels {
		if l == label {
			return i
		}
	}
	return -1
}

// Update folds one encoded training example into the class accumulator
// (creating the class if new) and refreshes the thresholded prototype.
// This is the incremental path used both for batch training and for
// on-line learning after deployment.
func (am *AssociativeMemory) Update(label string, encoded hv.Vector) {
	if encoded.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AM.Update: dimension mismatch %d != %d", encoded.Dim(), am.d))
	}
	i := am.index(label)
	if i < 0 {
		i = len(am.labels)
		am.labels = append(am.labels, label)
		am.slab = am.slab.With(i, hv.New(am.d))
		am.accum = append(am.accum, hv.NewBundler(am.d))
		am.dirty = append(am.dirty, false)
	}
	if am.accum[i] == nil {
		panic(fmt.Sprintf("hdc: AM.Update: class %q has a fixed prototype", label))
	}
	am.accum[i].Add(encoded)
	am.dirty[i] = true
}

// refresh re-thresholds any prototype whose accumulator changed,
// straight into the slab, drawing ties from the AM's rng.
func (am *AssociativeMemory) refresh() {
	for i, d := range am.dirty {
		if d {
			am.slab = am.slab.WithBundle(i, am.accum[i], am.rng)
			am.dirty[i] = false
		}
	}
}

// SetPrototype installs a fixed prototype for a class, replacing any
// accumulated state. Used to load a pre-trained model.
func (am *AssociativeMemory) SetPrototype(label string, proto hv.Vector) {
	if proto.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AM.SetPrototype: dimension mismatch %d != %d", proto.Dim(), am.d))
	}
	i := am.index(label)
	if i < 0 {
		i = len(am.labels)
		am.labels = append(am.labels, label)
		am.accum = append(am.accum, nil)
		am.dirty = append(am.dirty, false)
	}
	am.slab = am.slab.With(i, proto)
	am.accum[i] = nil
	am.dirty[i] = false
}

// Classify returns the label of the prototype nearest to query in
// Hamming distance, together with that distance. Ties resolve to the
// lowest class index. It panics if the AM is empty.
func (am *AssociativeMemory) Classify(query hv.Vector) (label string, distance int) {
	i, d := am.Nearest(query)
	return am.labels[i], d
}

// Nearest returns the index and Hamming distance of the closest
// prototype (hv.Slab.Nearest: ties resolve to the lowest class index).
func (am *AssociativeMemory) Nearest(query hv.Vector) (index, distance int) {
	if len(am.labels) == 0 {
		panic("hdc: AM.Classify on empty associative memory")
	}
	if query.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AM.Classify: dimension mismatch %d != %d", query.Dim(), am.d))
	}
	am.refresh()
	return am.slab.Nearest(query)
}

// Distances returns the Hamming distance from query to every
// prototype, in class-index order.
func (am *AssociativeMemory) Distances(query hv.Vector) []int {
	return am.DistancesTo(nil, query)
}

// DistancesTo is Distances writing into dst, growing it only when its
// capacity is short — callers on the hot path pass the same buffer
// back in and reach a steady state with no allocation.
func (am *AssociativeMemory) DistancesTo(dst []int, query hv.Vector) []int {
	am.refresh()
	return am.slab.Distances(dst, query)
}

// InjectFaults flips n random components in every stored prototype,
// modelling faulty memory cells. HD classifiers exhibit "graceful
// degradation with ... faulty components" (§4.1); the fault-injection
// experiments quantify that.
func (am *AssociativeMemory) InjectFaults(n int, rng *rand.Rand) {
	am.refresh()
	// Faults land in the stored prototypes; freeze them so later
	// reads do not silently regenerate clean copies.
	for i := range am.accum {
		am.accum[i] = nil
	}
	for i := range am.labels {
		am.slab = am.slab.With(i, am.slab.Row(i).FlipBits(n, rng))
	}
}

// Ranked is one entry of a full associative-memory ranking.
type Ranked struct {
	Label    string
	Distance int
}

// Rank returns every prototype sorted by ascending Hamming distance
// to the query. The margin between the first two entries is the
// classifier's decision confidence; robustness studies read it
// directly.
func (am *AssociativeMemory) Rank(query hv.Vector) []Ranked {
	if len(am.labels) == 0 {
		panic("hdc: AM.Rank on empty associative memory")
	}
	if query.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AM.Rank: dimension mismatch %d != %d", query.Dim(), am.d))
	}
	am.refresh()
	out := make([]Ranked, len(am.labels))
	for i, d := range am.slab.Distances(nil, query) {
		out[i] = Ranked{Label: am.labels[i], Distance: d}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// Margin returns the distance gap between the best and second-best
// prototype for the query, normalized by the dimensionality. Larger
// margins mean more robust decisions; a margin of 0 is a coin flip.
// It panics when fewer than two classes are stored.
func (am *AssociativeMemory) Margin(query hv.Vector) float64 {
	r := am.Rank(query)
	if len(r) < 2 {
		panic("hdc: AM.Margin needs at least two classes")
	}
	return float64(r[1].Distance-r[0].Distance) / float64(am.d)
}
