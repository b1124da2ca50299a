// Package hv implements binary hypervectors for high-dimensional (HD)
// computing, bit-packed into 32-bit words exactly as the PULP-HD
// accelerator represents them: 32 consecutive binary components of a
// hypervector map to one unsigned 32-bit integer, so a 10,000-D vector
// occupies 313 words (DAC'18, §3).
//
// The package provides the three MAP operations of HD computing —
// Multiplication (componentwise XOR), Addition (componentwise majority
// with ties broken at random-but-reproducibly), and Permutation
// (rotation of components) — together with Hamming distance, the
// counter-based Bundler used to accumulate prototype hypervectors
// during training, and the Slab that holds an associative memory's
// prototypes for its nearest-prototype scan.
//
// Component i of a vector lives in word i/32 at bit position i%32
// (LSB first). The last word of a vector whose dimension is not a
// multiple of 32 is kept zero above the valid bits; every operation
// preserves that invariant.
package hv

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// WordBits is the number of binary components packed into one word.
const WordBits = 32

// Vector is a binary hypervector of fixed dimensionality, bit-packed
// into 32-bit words. The zero value is an empty (0-dimensional) vector.
type Vector struct {
	d     int
	words []uint32
}

// WordsFor returns the number of 32-bit words needed to store a
// d-dimensional binary hypervector (e.g. 313 words for 10,000-D).
func WordsFor(d int) int {
	return (d + WordBits - 1) / WordBits
}

// New returns the all-zero hypervector of dimension d.
// It panics if d is not positive.
func New(d int) Vector {
	if d <= 0 {
		panic(fmt.Sprintf("hv: dimension must be positive, got %d", d))
	}
	return Vector{d: d, words: make([]uint32, WordsFor(d))}
}

// NewRandom returns a hypervector whose components are independent
// fair coin flips (i.i.d. Bernoulli(1/2)), the standard construction
// of a random seed hypervector.
func NewRandom(d int, rng *rand.Rand) Vector {
	v := New(d)
	for i := range v.words {
		v.words[i] = rng.Uint32()
	}
	v.maskTail()
	return v
}

// NewRandomBalanced returns a hypervector with exactly floor(d/2) ones
// placed uniformly at random: "an equal number of randomly placed 1s
// and 0s" (DAC'18, §2.1). It is used for the CIM endpoint vectors,
// whose density must be exactly one half so that interpolated levels
// have predictable pairwise distances.
func NewRandomBalanced(d int, rng *rand.Rand) Vector {
	v := New(d)
	// Fisher-Yates over component indices: choose d/2 positions.
	perm := rng.Perm(d)
	for _, p := range perm[:d/2] {
		v.setBitUnchecked(p, 1)
	}
	return v
}

// FromWords builds a d-dimensional vector from packed words (copied).
// It returns an error if the word count does not match WordsFor(d) or
// the final word carries bits above the dimension — the validation a
// model loader needs on untrusted input.
func FromWords(d int, words []uint32) (Vector, error) {
	if d <= 0 {
		return Vector{}, fmt.Errorf("hv: FromWords: dimension %d not positive", d)
	}
	if len(words) != WordsFor(d) {
		return Vector{}, fmt.Errorf("hv: FromWords: %d words for %d-D, want %d", len(words), d, WordsFor(d))
	}
	v := New(d)
	copy(v.words, words)
	if last := v.words[len(v.words)-1]; last&^v.tailMask() != 0 {
		return Vector{}, fmt.Errorf("hv: FromWords: bits set above dimension %d in final word %08x", d, last)
	}
	return v, nil
}

// FromBits builds a vector from one byte per component; any nonzero
// byte is a 1. It panics if bits is empty.
func FromBits(b []byte) Vector {
	v := New(len(b))
	for i, x := range b {
		if x != 0 {
			v.setBitUnchecked(i, 1)
		}
	}
	return v
}

// Dim returns the dimensionality (number of binary components).
func (v Vector) Dim() int { return v.d }

// NumWords returns the number of packed 32-bit words.
func (v Vector) NumWords() int { return len(v.words) }

// Word returns the i-th packed word. Bits above the valid dimension in
// the final word are always zero.
func (v Vector) Word(i int) uint32 { return v.words[i] }

// Words returns the backing word slice without copying. Callers must
// treat it as read-only unless they own the vector; mutating through
// it is how the simulated kernels operate in place. The tail-masking
// invariant must be preserved by any writer.
func (v Vector) Words() []uint32 { return v.words }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := Vector{d: v.d, words: make([]uint32, len(v.words))}
	copy(w.words, v.words)
	return w
}

// IsZero reports whether v has no dimensions (the zero value).
func (v Vector) IsZero() bool { return v.d == 0 }

// Bit returns component i (0 or 1). It panics if i is out of range.
func (v Vector) Bit(i int) uint32 {
	v.checkIndex(i)
	return (v.words[i/WordBits] >> (uint(i) % WordBits)) & 1
}

// SetBit sets component i to b (any nonzero b means 1).
func (v Vector) SetBit(i int, b uint32) {
	v.checkIndex(i)
	v.setBitUnchecked(i, b)
}

func (v Vector) setBitUnchecked(i int, b uint32) {
	w, s := i/WordBits, uint(i)%WordBits
	if b != 0 {
		v.words[w] |= 1 << s
	} else {
		v.words[w] &^= 1 << s
	}
}

func (v Vector) checkIndex(i int) {
	if i < 0 || i >= v.d {
		panic(fmt.Sprintf("hv: component index %d out of range [0,%d)", i, v.d))
	}
}

// tailMask returns the mask of valid bits in the final word, or
// ^uint32(0) when the dimension is word-aligned.
func (v Vector) tailMask() uint32 {
	if r := v.d % WordBits; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint32(0)
}

func (v Vector) maskTail() {
	if len(v.words) > 0 {
		v.words[len(v.words)-1] &= v.tailMask()
	}
}

func checkSameDim(op string, a, b Vector) {
	if a.d != b.d {
		panic(fmt.Sprintf("hv: %s: dimension mismatch %d != %d", op, a.d, b.d))
	}
}

// Xor returns the componentwise XOR of a and b — the multiplication
// (binding) operation of HD computing. The result is dissimilar to
// both inputs.
func Xor(a, b Vector) Vector {
	checkSameDim("Xor", a, b)
	out := New(a.d)
	xorWords(out.words, a.words, b.words)
	return out
}

// XorTo stores the componentwise XOR of a and b into dst, which must
// have the same dimension. It allows hot loops to avoid allocation.
func XorTo(dst, a, b Vector) {
	checkSameDim("XorTo", a, b)
	checkSameDim("XorTo", dst, a)
	xorWords(dst.words, a.words, b.words)
}

// Equal reports whether a and b have identical dimension and components.
func Equal(a, b Vector) bool {
	if a.d != b.d {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// Hamming returns the number of components at which a and b differ,
// the similarity measure of binary HD computing.
func Hamming(a, b Vector) int {
	checkSameDim("Hamming", a, b)
	return HammingWords(a.words, b.words)
}

// NormalizedHamming returns Hamming(a,b)/d in [0,1]. Unrelated random
// hypervectors concentrate tightly around 0.5.
func NormalizedHamming(a, b Vector) float64 {
	return float64(Hamming(a, b)) / float64(a.d)
}

// CountOnes returns the number of components set to 1.
func (v Vector) CountOnes() int {
	return countOnesWords(v.words)
}

// Density returns the fraction of components set to 1.
func (v Vector) Density() float64 {
	if v.d == 0 {
		return 0
	}
	return float64(v.CountOnes()) / float64(v.d)
}

// Rotate returns a copy of v with every component moved k positions
// upward with wrap-around: out[(i+k) mod d] = v[i]. This is the
// permutation ρ^k of HD computing; Rotate(v, 1) is the 1-bit rotation
// the temporal encoder applies per time step. Negative k rotates
// downward. Rotation is invertible: Rotate(Rotate(v,k), -k) == v.
func Rotate(v Vector, k int) Vector {
	out := New(v.d)
	RotateTo(out, v, k)
	return out
}

// RotateTo stores Rotate(v, k) into dst. dst must not alias v.
func RotateTo(dst, v Vector, k int) {
	checkSameDim("RotateTo", dst, v)
	if &dst.words[0] == &v.words[0] {
		panic("hv: RotateTo: dst must not alias src")
	}
	d := v.d
	k %= d
	if k < 0 {
		k += d
	}
	if k == 0 {
		copy(dst.words, v.words)
		return
	}
	// Output word j holds output components [32j, 32j+31], i.e. input
	// components starting at s = (32j - k) mod d, read circularly.
	for j := range dst.words {
		s := (j*WordBits - k) % d
		if s < 0 {
			s += d
		}
		dst.words[j] = v.bitsAt(s)
	}
	dst.maskTail()
}

// bitsAt returns 32 consecutive components of the circular bitstring
// starting at component s (s in [0,d)). Components beyond d-1 wrap to
// component 0.
func (v Vector) bitsAt(s int) uint32 {
	var out uint32
	got := 0
	for got < WordBits {
		w, off := s/WordBits, s%WordBits
		// Valid bits remaining in this word before either the word end
		// or the dimension end.
		wordEnd := (w + 1) * WordBits
		if wordEnd > v.d {
			wordEnd = v.d
		}
		n := wordEnd - s
		if n > WordBits-got {
			n = WordBits - got
		}
		chunk := (v.words[w] >> uint(off)) & lowMask(n)
		out |= chunk << uint(got)
		got += n
		s += n
		if s >= v.d {
			s = 0
		}
	}
	return out
}

func lowMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// Majority returns the componentwise majority (the addition operation
// of HD computing) over vs. When len(vs) is even, ties must be broken:
// following the accelerator (DAC'18, §5.1), a random-but-reproducible
// tie-break vector — the XOR of the first two inputs — is appended to
// make the count odd. The result is similar to every input, which is
// why addition represents sets.
//
// Majority panics if vs is empty or dimensions mismatch.
func Majority(vs ...Vector) Vector {
	if len(vs) == 0 {
		panic("hv: Majority of no vectors")
	}
	d := vs[0].d
	for _, v := range vs[1:] {
		checkSameDim("Majority", vs[0], v)
	}
	if len(vs) == 1 {
		return vs[0].Clone()
	}
	set := vs
	if len(vs)%2 == 0 {
		// Deterministic tie-breaker: XOR of the first two inputs, a
		// hypervector uncorrelated with each input ("one random but
		// reproducible hypervector ... for the majority to break the
		// ties at random", DAC'18 §5.1).
		set = make([]Vector, 0, len(vs)+1)
		set = append(set, vs...)
		set = append(set, Xor(vs[0], vs[1]))
	}
	out := New(d)
	MajorityTo(out, set)
	return out
}

// MajorityTo computes the componentwise majority over set (whose
// length must be odd for an unambiguous result; even lengths resolve
// exact ties toward 0) and stores it into dst.
//
// The counting is word-parallel: the per-position sums are maintained
// in bit-sliced form (one "plane" per binary digit of the count) so
// each input word pair is folded in with a handful of 64-bit
// full-adder operations instead of per-bit extractions. This mirrors
// how the packed representation "naturally exploits data level
// parallelism with bitwise operations" (DAC'18, §1); see swar.go for
// the shared word64 kernel.
func MajorityTo(dst Vector, set []Vector) {
	if len(set) == 0 {
		panic("hv: MajorityTo of no vectors")
	}
	checkSameDim("MajorityTo", dst, set[0])
	n := len(set)
	threshold := uint32(n / 2) // strictly-greater-than test
	nplanes := bits.Len(uint(n))
	// Stack scratch for the common small set sizes; majorityWords does
	// not retain either slice, so escape analysis keeps these local.
	var pbuf [16]uint64
	planes := pbuf[:]
	if nplanes > len(pbuf) {
		planes = make([]uint64, nplanes)
	} else {
		planes = pbuf[:nplanes]
	}
	var wbuf [32][]uint32
	words := wbuf[:0]
	if n > len(wbuf) {
		words = make([][]uint32, 0, n)
	}
	for _, v := range set {
		words = append(words, v.words)
	}
	majorityWords(dst.words, words, threshold, planes)
	dst.maskTail()
}

// String renders a short diagnostic form: dimension, density and the
// first words in hex.
func (v Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hv(d=%d, ones=%d", v.d, v.CountOnes())
	n := len(v.words)
	if n > 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " %08x", v.words[i])
	}
	if len(v.words) > 4 {
		sb.WriteString(" …")
	}
	sb.WriteString(")")
	return sb.String()
}

// Bits expands v into one byte per component (0 or 1), the layout used
// by the unpacked golden-model implementation.
func (v Vector) Bits() []byte {
	out := make([]byte, v.d)
	for i := 0; i < v.d; i++ {
		out[i] = byte((v.words[i/WordBits] >> (uint(i) % WordBits)) & 1)
	}
	return out
}

// FlipBits flips n distinct randomly chosen components in place and
// returns v. It is the fault-injection primitive used to study the
// graceful degradation of HD classifiers, and the level-construction
// primitive of the continuous item memory.
func (v Vector) FlipBits(n int, rng *rand.Rand) Vector {
	if n < 0 || n > v.d {
		panic(fmt.Sprintf("hv: FlipBits: n=%d out of range [0,%d]", n, v.d))
	}
	for _, p := range rng.Perm(v.d)[:n] {
		v.words[p/WordBits] ^= 1 << (uint(p) % WordBits)
	}
	return v
}

// FlipWordMask XORs mask into packed word w in place and returns the
// number of components flipped. Mask bits above the dimension in the
// final word are silently dropped, so the tail-masking invariant is
// preserved for any mask — the primitive the fault-injection layer
// (internal/fault) applies its per-word flip patterns through.
func (v Vector) FlipWordMask(w int, mask uint32) int {
	if w < 0 || w >= len(v.words) {
		panic(fmt.Sprintf("hv: FlipWordMask: word %d out of range [0,%d)", w, len(v.words)))
	}
	if w == len(v.words)-1 {
		mask &= v.tailMask()
	}
	v.words[w] ^= mask
	return bits.OnesCount32(mask)
}

// FlipPositions flips the given component indices in place.
func (v Vector) FlipPositions(positions []int) Vector {
	for _, p := range positions {
		v.checkIndex(p)
		v.words[p/WordBits] ^= 1 << (uint(p) % WordBits)
	}
	return v
}

// Truncate returns the first d components of v as a new vector — the
// dimension-reduction surgery that deploys a small model cut from a
// trained large one. Because components are i.i.d., a prefix is a
// valid lower-dimensional hypervector; distances scale ≈ d/v.Dim().
// It panics if d is not in (0, v.Dim()].
func Truncate(v Vector, d int) Vector {
	if d <= 0 || d > v.d {
		panic(fmt.Sprintf("hv: Truncate: dimension %d outside (0,%d]", d, v.d))
	}
	out := New(d)
	copy(out.words, v.words[:len(out.words)])
	out.maskTail()
	return out
}
