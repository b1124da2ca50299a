package hdc

import (
	"fmt"
	"math/rand"

	"pulphd/internal/hv"
)

// AdaptiveMemory is an associative memory whose prototypes track
// non-stationary signals: instead of unweighted majority counts, each
// component keeps an exponentially decayed vote, so recent examples
// dominate and the prototypes follow electrode drift, fatigue and
// posture changes. It generalizes the paper's observation that "the
// AM matrix can be continuously updated for on-line learning" (§3) to
// signals whose statistics move.
//
// Decay = 1 reproduces the standard (unweighted) on-line AM exactly.
type AdaptiveMemory struct {
	d      int
	decay  float64
	labels []string
	votes  [][]float64 // decayed per-component vote mass toward 1
	norms  []float64   // decayed total mass
	protos *hv.Slab
	dirty  []bool
	rng    *rand.Rand
}

// NewAdaptiveMemory returns an empty adaptive AM. decay in (0,1]
// weighs history: an example's influence halves every
// ln(2)/(1−decay) updates (e.g. decay 0.98 → half-life ≈34 updates).
func NewAdaptiveMemory(d int, decay float64, seed int64) *AdaptiveMemory {
	if d <= 0 {
		panic(fmt.Sprintf("hdc: NewAdaptiveMemory: bad dimension %d", d))
	}
	if decay <= 0 || decay > 1 {
		panic(fmt.Sprintf("hdc: NewAdaptiveMemory: decay %g outside (0,1]", decay))
	}
	return &AdaptiveMemory{d: d, decay: decay, protos: hv.NewSlab(d, nil), rng: rand.New(rand.NewSource(seed))}
}

// Dim returns the prototype dimensionality.
func (am *AdaptiveMemory) Dim() int { return am.d }

// Classes returns the stored class count.
func (am *AdaptiveMemory) Classes() int { return len(am.labels) }

// Labels returns the class labels in insertion order.
func (am *AdaptiveMemory) Labels() []string { return append([]string(nil), am.labels...) }

func (am *AdaptiveMemory) index(label string) int {
	for i, l := range am.labels {
		if l == label {
			return i
		}
	}
	return -1
}

// Update folds one encoded example into the class's decayed vote
// counters.
func (am *AdaptiveMemory) Update(label string, encoded hv.Vector) {
	if encoded.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AdaptiveMemory.Update: dimension mismatch %d != %d", encoded.Dim(), am.d))
	}
	i := am.index(label)
	if i < 0 {
		i = len(am.labels)
		am.labels = append(am.labels, label)
		am.votes = append(am.votes, make([]float64, am.d))
		am.norms = append(am.norms, 0)
		am.protos = am.protos.With(i, hv.New(am.d))
		am.dirty = append(am.dirty, false)
	}
	v := am.votes[i]
	for c := 0; c < am.d; c += hv.WordBits {
		w := encoded.Word(c / hv.WordBits)
		end := c + hv.WordBits
		if end > am.d {
			end = am.d
		}
		for j := c; j < end; j++ {
			v[j] = v[j]*am.decay + float64(w&1)
			w >>= 1
		}
	}
	am.norms[i] = am.norms[i]*am.decay + 1
	am.dirty[i] = true
}

func (am *AdaptiveMemory) refresh() {
	for i, d := range am.dirty {
		if !d {
			continue
		}
		half := am.norms[i] / 2
		p := hv.New(am.d)
		for c, v := range am.votes[i] {
			switch {
			case v > half:
				p.SetBit(c, 1)
			case v == half && am.rng.Intn(2) == 1:
				p.SetBit(c, 1)
			}
		}
		am.protos = am.protos.With(i, p)
		am.dirty[i] = false
	}
}

// Prototype returns a copy of the current thresholded prototype of
// class i.
func (am *AdaptiveMemory) Prototype(i int) hv.Vector {
	am.refresh()
	return am.protos.Row(i)
}

// Classify returns the nearest class and its Hamming distance.
func (am *AdaptiveMemory) Classify(query hv.Vector) (string, int) {
	if len(am.labels) == 0 {
		panic("hdc: AdaptiveMemory.Classify on empty memory")
	}
	if query.Dim() != am.d {
		panic(fmt.Sprintf("hdc: AdaptiveMemory.Classify: dimension mismatch %d != %d", query.Dim(), am.d))
	}
	am.refresh()
	best, dist := am.protos.Nearest(query)
	return am.labels[best], dist
}
