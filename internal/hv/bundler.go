package hv

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Bundler accumulates hypervectors componentwise so that many vectors
// can be added without losing count information, as training does when
// it bundles "across all its trials, the corresponding N-gram
// hypervectors ... to produce a binary prototype hypervector"
// (DAC'18, §2.1.1). Thresholding at half the number of additions gives
// the componentwise majority.
//
// The per-component counters are kept in bit-sliced form: plane b
// holds bit b of every counter, packed 64 components per word. Adding
// a vector is then a word-parallel ripple-carry increment — a couple
// of bitwise operations per 64 components on average — instead of the
// per-bit counter walk a flat counter array needs. Planes grow on
// demand, so the counts stay exact for any number of additions.
//
// The zero value is not usable; call NewBundler.
type Bundler struct {
	d    int
	nw   int // packed uint32 words per vector
	nw64 int // uint64 words per plane
	n    int
	// planes[b] holds bit b of the per-component counts.
	planes [][]uint64
	// scratch stages one input vector in uint64 words. The first Add
	// allocates it, so a restored accumulator that never learns again
	// never does.
	scratch []uint64
}

// NewBundler returns an empty accumulator for d-dimensional vectors.
func NewBundler(d int) *Bundler {
	if d <= 0 {
		panic(fmt.Sprintf("hv: NewBundler: dimension must be positive, got %d", d))
	}
	nw := WordsFor(d)
	nw64 := (nw + 1) / 2
	return &Bundler{d: d, nw: nw, nw64: nw64}
}

// Dim returns the dimensionality of the accumulated vectors.
func (b *Bundler) Dim() int { return b.d }

// Count returns how many vectors have been added.
func (b *Bundler) Count() int { return b.n }

// Add accumulates v into the per-component counters.
func (b *Bundler) Add(v Vector) {
	if v.d != b.d {
		panic(fmt.Sprintf("hv: Bundler.Add: dimension mismatch %d != %d", v.d, b.d))
	}
	ws := v.words
	s := b.stage()
	j := 0
	for ; j+1 < len(ws); j += 2 {
		s[j>>1] = pair64(ws[j], ws[j+1])
	}
	if j < len(ws) {
		s[j>>1] = uint64(ws[j])
	}
	b.addScratch()
}

// AddBits accumulates an unpacked vector (one byte per component).
func (b *Bundler) AddBits(bits []byte) {
	if len(bits) != b.d {
		panic(fmt.Sprintf("hv: Bundler.AddBits: dimension mismatch %d != %d", len(bits), b.d))
	}
	s := b.stage()
	for j := range s {
		s[j] = 0
	}
	for i, x := range bits {
		if x != 0 {
			s[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	b.addScratch()
}

// stage returns the scratch an Add stages its input in, allocating it
// on first use.
func (b *Bundler) stage() []uint64 {
	if b.scratch == nil {
		b.scratch = make([]uint64, b.nw64)
	}
	return b.scratch
}

// addScratch folds the staged vector into the count planes with a
// word-parallel ripple-carry add, growing the plane stack when the
// new maximum count needs one more binary digit.
func (b *Bundler) addScratch() {
	if need := bits.Len(uint(b.n + 1)); need > len(b.planes) {
		b.planes = append(b.planes, make([]uint64, b.nw64))
	}
	for j, carry := range b.scratch {
		for p := 0; carry != 0; p++ {
			plane := b.planes[p]
			plane[j], carry = plane[j]^carry, plane[j]&carry
		}
	}
	b.n++
}

// Clone returns a deep copy of the accumulator: same counts, fully
// independent storage. The copy-on-write serving layer snapshots class
// accumulators with it so online learning can continue from a trained
// state without aliasing the original.
func (b *Bundler) Clone() *Bundler {
	c := &Bundler{d: b.d, nw: b.nw, nw64: b.nw64, n: b.n}
	if len(b.planes) > 0 {
		c.planes = make([][]uint64, len(b.planes))
		for p, plane := range b.planes {
			c.planes[p] = append([]uint64(nil), plane...)
		}
	}
	return c
}

// State returns the accumulator as plain data: the addition count and
// the bits.Len(n) bit-sliced count planes that carry live digits (a
// Reset bundler keeps its planes with n back at 0). The planes are the
// bundler's own storage, not copies: read them only while no Add can
// run, and never write them. A serving snapshot encodes them under the
// learner lock; NewBundlerFromState is the inverse.
func (b *Bundler) State() (n int, planes [][]uint64) {
	return b.n, b.planes[:bits.Len(uint(b.n))]
}

// NewBundlerFromState rebuilds an accumulator from State output. The
// plane geometry is validated against (d, n): exactly bits.Len(n)
// planes of WordsFor(d)-packed width, so a corrupted or hostile
// snapshot cannot construct an accumulator whose later Adds write out
// of bounds.
//
// The bundler takes ownership of planes and counts on in them: the
// caller must not use the slices afterwards. The plane stack is capped
// at its length, so the plane a later Add appends goes into a new
// array, never into spare capacity of the caller's.
func NewBundlerFromState(d, n int, planes [][]uint64) (*Bundler, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hv: NewBundlerFromState: dimension must be positive, got %d", d)
	}
	if n < 0 {
		return nil, fmt.Errorf("hv: NewBundlerFromState: negative count %d", n)
	}
	if want := bits.Len(uint(n)); len(planes) != want {
		return nil, fmt.Errorf("hv: NewBundlerFromState: %d planes for count %d, want %d", len(planes), n, want)
	}
	b := NewBundler(d)
	for p, plane := range planes {
		if len(plane) != b.nw64 {
			return nil, fmt.Errorf("hv: NewBundlerFromState: plane %d has %d words, want %d", p, len(plane), b.nw64)
		}
	}
	b.n = n
	if len(planes) > 0 {
		b.planes = planes[:len(planes):len(planes)]
	}
	return b, nil
}

// Reset clears the accumulator, retaining the allocated planes.
func (b *Bundler) Reset() {
	for _, plane := range b.planes {
		for j := range plane {
			plane[j] = 0
		}
	}
	b.n = 0
}

// Vector thresholds the accumulated counts into a binary prototype:
// component i is 1 when it was set in strictly more than half of the
// added vectors. When the number of added vectors is even, exact ties
// are broken by fair coin flips from rng ("ties broken at random",
// DAC'18 §2.1). A nil rng resolves ties to 0 deterministically.
//
// Vector panics if nothing has been added.
func (b *Bundler) Vector(rng *rand.Rand) Vector {
	out := New(b.d)
	b.VectorTo(out, rng)
	return out
}

// VectorTo is Vector without the allocation: it thresholds into dst,
// which must have the bundler's dimensionality. Ties consume one coin
// flip per tied component in ascending component order, so the rng
// stream matches Vector exactly.
func (b *Bundler) VectorTo(dst Vector, rng *rand.Rand) {
	if dst.d != b.d {
		panic(fmt.Sprintf("hv: Bundler.VectorTo: dimension mismatch %d != %d", dst.d, b.d))
	}
	t := b.threshold()
	var colbuf [64]uint64
	col := colbuf[:len(b.planes)]
	for j := 0; j < b.nw64; j++ {
		gt := b.word(j, col, t, rng)
		dst.words[2*j] = uint32(gt)
		if 2*j+1 < b.nw {
			dst.words[2*j+1] = uint32(gt >> 32)
		}
	}
}

// threshold returns the count a component must exceed to be 1, and
// panics if nothing has been added.
func (b *Bundler) threshold() uint64 {
	if b.n == 0 {
		panic("hv: Bundler.Vector: no vectors added")
	}
	return uint64(b.n / 2)
}

// word returns uint64 word j (components 64j…64j+63) of the
// thresholded prototype, using col (len(b.planes) long) as scratch.
// Exact ties at an even count take one rng flip each, lowest component
// first; a nil rng leaves them 0. Components beyond the dimension hold
// count 0, below any threshold and any tie, so they come out 0.
func (b *Bundler) word(j int, col []uint64, t uint64, rng *rand.Rand) uint64 {
	for p, plane := range b.planes {
		col[p] = plane[j]
	}
	gt, eq := compare64(col, t)
	if rng != nil && b.n%2 == 0 {
		for m := eq; m != 0; m &= m - 1 {
			if rng.Intn(2) == 1 {
				gt |= 1 << uint(bits.TrailingZeros64(m))
			}
		}
	}
	return gt
}
