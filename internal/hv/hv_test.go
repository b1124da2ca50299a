package hv

import (
	"math/rand"
	"testing"
)

// dims covers word-aligned, sub-word, and the paper's tail case
// (10000 % 32 == 16).
var dims = []int{1, 7, 31, 32, 33, 64, 100, 200, 313, 1000, 10000}

func TestWordsFor(t *testing.T) {
	cases := []struct{ d, want int }{
		{1, 1}, {32, 1}, {33, 2}, {64, 2}, {200, 7}, {10000, 313},
	}
	for _, c := range cases {
		if got := WordsFor(c.d); got != c.want {
			t.Errorf("WordsFor(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// The paper's headline packing: 10,000-D in 313 words (§3).
	if WordsFor(10000) != 313 {
		t.Fatal("10,000-D must pack into 313 words")
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestBitSetGet(t *testing.T) {
	for _, d := range dims {
		v := New(d)
		rng := rand.New(rand.NewSource(1))
		want := make([]uint32, d)
		for i := 0; i < d; i++ {
			b := uint32(rng.Intn(2))
			v.SetBit(i, b)
			want[i] = b
		}
		for i := 0; i < d; i++ {
			if v.Bit(i) != want[i] {
				t.Fatalf("d=%d: Bit(%d)=%d, want %d", d, i, v.Bit(i), want[i])
			}
		}
		// Clearing works too.
		v.SetBit(0, 1)
		v.SetBit(0, 0)
		if v.Bit(0) != 0 {
			t.Fatalf("d=%d: clearing bit 0 failed", d)
		}
	}
}

func TestBitIndexPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestTailMaskInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range dims {
		if d%WordBits == 0 {
			continue
		}
		check := func(name string, v Vector) {
			t.Helper()
			last := v.words[len(v.words)-1]
			if last&^v.tailMask() != 0 {
				t.Errorf("d=%d: %s left garbage above the tail: %08x", d, name, last)
			}
		}
		a := NewRandom(d, rng)
		b := NewRandom(d, rng)
		check("NewRandom", a)
		check("Xor", Xor(a, b))
		check("Rotate", Rotate(a, 5))
		check("Majority", Majority(a, b, Xor(a, b)))
	}
}

func TestXorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range dims {
		a, b := NewRandom(d, rng), NewRandom(d, rng)
		// Self-inverse: a ⊕ b ⊕ b == a (multiplication is invertible,
		// §2.1).
		if !Equal(Xor(Xor(a, b), b), a) {
			t.Errorf("d=%d: XOR not self-inverse", d)
		}
		// Commutative.
		if !Equal(Xor(a, b), Xor(b, a)) {
			t.Errorf("d=%d: XOR not commutative", d)
		}
		// a ⊕ a == 0.
		if Xor(a, a).CountOnes() != 0 {
			t.Errorf("d=%d: a^a != 0", d)
		}
	}
}

func TestXorTo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := NewRandom(313*32, rng), NewRandom(313*32, rng)
	dst := New(313 * 32)
	XorTo(dst, a, b)
	if !Equal(dst, Xor(a, b)) {
		t.Fatal("XorTo disagrees with Xor")
	}
	// In-place with dst aliasing a.
	want := Xor(a, b)
	XorTo(a, a, b)
	if !Equal(a, want) {
		t.Fatal("XorTo in place disagrees")
	}
}

func TestBindingDissimilarity(t *testing.T) {
	// Multiplication "produces a dissimilar hypervector" (§2.1): the
	// bound vector should be ~orthogonal to both factors.
	rng := rand.New(rand.NewSource(5))
	const d = 10000
	a, b := NewRandom(d, rng), NewRandom(d, rng)
	x := Xor(a, b)
	for _, p := range []struct {
		name string
		dist int
	}{{"x,a", Hamming(x, a)}, {"x,b", Hamming(x, b)}, {"a,b", Hamming(a, b)}} {
		if p.dist < 4700 || p.dist > 5300 {
			t.Errorf("%s: distance %d not near d/2", p.name, p.dist)
		}
	}
}

func TestRotateInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, d := range dims {
		v := NewRandom(d, rng)
		for _, k := range []int{0, 1, 2, 31, 32, 33, d - 1, d, d + 5, -1, -31, -32} {
			if !Equal(Rotate(Rotate(v, k), -k), v) {
				t.Errorf("d=%d k=%d: rotation not invertible", d, k)
			}
		}
	}
}

func TestRotateComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{33, 313, 10000} {
		v := NewRandom(d, rng)
		// ρ^j(ρ^k(v)) == ρ^(j+k)(v)
		for _, jk := range [][2]int{{1, 1}, {3, 7}, {31, 2}, {100, d - 50}} {
			j, k := jk[0], jk[1]
			if !Equal(Rotate(Rotate(v, k), j), Rotate(v, j+k)) {
				t.Errorf("d=%d: ρ^%d∘ρ^%d != ρ^%d", d, j, k, j+k)
			}
		}
	}
}

func TestRotateMovesBits(t *testing.T) {
	for _, d := range dims {
		if d < 2 {
			continue
		}
		v := New(d)
		v.SetBit(0, 1)
		for _, k := range []int{1, d / 2, d - 1} {
			r := Rotate(v, k)
			if r.Bit(k%d) != 1 || r.CountOnes() != 1 {
				t.Errorf("d=%d k=%d: bit 0 did not land on %d", d, k, k%d)
			}
		}
	}
}

func TestRotatePreservesOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range dims {
		v := NewRandom(d, rng)
		n := v.CountOnes()
		for k := 0; k < 40 && k < d; k++ {
			if got := Rotate(v, k).CountOnes(); got != n {
				t.Fatalf("d=%d k=%d: ones %d != %d", d, k, got, n)
			}
		}
	}
}

func TestRotateToAliasPanics(t *testing.T) {
	v := NewRandom(64, rand.New(rand.NewSource(9)))
	defer func() {
		if recover() == nil {
			t.Fatal("RotateTo with aliased dst did not panic")
		}
	}()
	RotateTo(v, v, 1)
}

func TestPermutationDissimilarity(t *testing.T) {
	// "The permutation also generates a dissimilar pseudo-orthogonal
	// hypervector" (§2.1).
	rng := rand.New(rand.NewSource(10))
	v := NewRandom(10000, rng)
	d := Hamming(v, Rotate(v, 1))
	if d < 4600 || d > 5400 {
		t.Errorf("rotated vector distance %d not near d/2", d)
	}
}

func TestMajorityOdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{33, 313, 1000} {
		a, b, c := NewRandom(d, rng), NewRandom(d, rng), NewRandom(d, rng)
		m := Majority(a, b, c)
		for i := 0; i < d; i++ {
			sum := a.Bit(i) + b.Bit(i) + c.Bit(i)
			want := uint32(0)
			if sum >= 2 {
				want = 1
			}
			if m.Bit(i) != want {
				t.Fatalf("d=%d i=%d: majority bit %d, want %d", d, i, m.Bit(i), want)
			}
		}
	}
}

func TestMajorityEvenUsesTieBreaker(t *testing.T) {
	// With an even input count the accelerator appends a⊕b; verify by
	// recomputing with the explicit 5-vector odd majority.
	rng := rand.New(rand.NewSource(12))
	const d = 1000
	vs := make([]Vector, 4)
	for i := range vs {
		vs[i] = NewRandom(d, rng)
	}
	got := Majority(vs...)
	want := Majority(vs[0], vs[1], vs[2], vs[3], Xor(vs[0], vs[1]))
	if !Equal(got, want) {
		t.Fatal("even majority does not match explicit tie-break construction")
	}
}

func TestMajoritySingle(t *testing.T) {
	v := NewRandom(100, rand.New(rand.NewSource(13)))
	if !Equal(Majority(v), v) {
		t.Fatal("Majority of one vector must be the vector itself")
	}
}

func TestMajoritySimilarity(t *testing.T) {
	// Addition "produces a hypervector that is similar to the input
	// hypervectors" (§2.1): each input is much closer to the bundle
	// than an unrelated random vector is.
	rng := rand.New(rand.NewSource(14))
	const d = 10000
	vs := make([]Vector, 5)
	for i := range vs {
		vs[i] = NewRandom(d, rng)
	}
	m := Majority(vs...)
	for i, v := range vs {
		if dist := Hamming(m, v); dist > 4000 {
			t.Errorf("input %d distance %d: bundle not similar to inputs", i, dist)
		}
	}
	if dist := Hamming(m, NewRandom(d, rng)); dist < 4600 {
		t.Errorf("unrelated vector distance %d: suspiciously close", dist)
	}
}

func TestGreaterThan(t *testing.T) {
	// Exhaustive check of the bit-sliced comparator for counts 0..7
	// against thresholds 0..7, including the equality mask.
	for count := uint64(0); count < 8; count++ {
		for th := uint64(0); th < 8; th++ {
			planes := []uint64{0, 0, 0}
			for b := 0; b < 3; b++ {
				if count&(1<<uint(b)) != 0 {
					planes[b] = ^uint64(0)
				}
			}
			got := greaterThan64(planes, th) & 1
			want := uint64(0)
			if count > th {
				want = 1
			}
			if got != want {
				t.Fatalf("greaterThan64(count=%d, t=%d) = %d, want %d", count, th, got, want)
			}
			gt, eq := compare64(planes, th)
			if gt&1 != want {
				t.Fatalf("compare64(count=%d, t=%d) gt = %d, want %d", count, th, gt&1, want)
			}
			wantEq := uint64(0)
			if count == th {
				wantEq = 1
			}
			if eq&1 != wantEq {
				t.Fatalf("compare64(count=%d, t=%d) eq = %d, want %d", count, th, eq&1, wantEq)
			}
		}
	}
}

func TestHammingBasics(t *testing.T) {
	a := New(100)
	b := New(100)
	if Hamming(a, b) != 0 {
		t.Fatal("identical vectors must have distance 0")
	}
	b.SetBit(0, 1)
	b.SetBit(99, 1)
	if Hamming(a, b) != 2 {
		t.Fatalf("distance = %d, want 2", Hamming(a, b))
	}
}

func TestHammingMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, d := range []int{313, 10000} {
		a, b, c := NewRandom(d, rng), NewRandom(d, rng), NewRandom(d, rng)
		// Symmetry.
		if Hamming(a, b) != Hamming(b, a) {
			t.Errorf("d=%d: Hamming not symmetric", d)
		}
		// Identity.
		if Hamming(a, a) != 0 {
			t.Errorf("d=%d: Hamming(a,a) != 0", d)
		}
		// Triangle inequality.
		if Hamming(a, c) > Hamming(a, b)+Hamming(b, c) {
			t.Errorf("d=%d: triangle inequality violated", d)
		}
		// Translation invariance under XOR.
		if Hamming(Xor(a, c), Xor(b, c)) != Hamming(a, b) {
			t.Errorf("d=%d: XOR does not preserve distance", d)
		}
	}
}

func TestNewRandomBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range []int{10, 100, 313, 10000} {
		v := NewRandomBalanced(d, rng)
		if got := v.CountOnes(); got != d/2 {
			t.Errorf("d=%d: %d ones, want exactly %d", d, got, d/2)
		}
	}
}

func TestNearOrthogonality(t *testing.T) {
	// "There exist a huge number of different, nearly orthogonal
	// hypervectors" (§2.1): pairwise normalized distances of random
	// 10,000-D vectors concentrate near 0.5.
	rng := rand.New(rand.NewSource(17))
	const d = 10000
	vs := make([]Vector, 8)
	for i := range vs {
		vs[i] = NewRandom(d, rng)
	}
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			nd := NormalizedHamming(vs[i], vs[j])
			if nd < 0.47 || nd > 0.53 {
				t.Errorf("pair (%d,%d): normalized distance %.4f not near 0.5", i, j, nd)
			}
		}
	}
}

func TestFromBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, d := range dims {
		v := NewRandom(d, rng)
		r := FromBits(v.Bits())
		if !Equal(v, r) {
			t.Errorf("d=%d: Bits/FromBits round trip failed", d)
		}
	}
}

func TestClone(t *testing.T) {
	v := NewRandom(100, rand.New(rand.NewSource(19)))
	c := v.Clone()
	if !Equal(v, c) {
		t.Fatal("clone differs")
	}
	c.SetBit(0, 1^c.Bit(0))
	if Equal(v, c) {
		t.Fatal("clone shares storage with original")
	}
}

func TestFlipBits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	v := NewRandom(10000, rng)
	orig := v.Clone()
	v.FlipBits(250, rng)
	if got := Hamming(v, orig); got != 250 {
		t.Fatalf("FlipBits(250) changed %d components", got)
	}
	v.FlipBits(0, rng)
	if Hamming(v, orig) != 250 {
		t.Fatal("FlipBits(0) changed the vector")
	}
}

func TestFlipPositions(t *testing.T) {
	v := New(64)
	v.FlipPositions([]int{0, 5, 63})
	if v.CountOnes() != 3 || v.Bit(0) != 1 || v.Bit(5) != 1 || v.Bit(63) != 1 {
		t.Fatal("FlipPositions set wrong bits")
	}
	v.FlipPositions([]int{5})
	if v.Bit(5) != 0 {
		t.Fatal("FlipPositions did not clear bit 5")
	}
}

func TestDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	v := NewRandom(10000, rng)
	dens := v.Density()
	if dens < 0.47 || dens > 0.53 {
		t.Errorf("random density %.4f not near 0.5", dens)
	}
	if New(100).Density() != 0 {
		t.Error("zero vector density must be 0")
	}
}

func TestString(t *testing.T) {
	s := NewRandom(10000, rand.New(rand.NewSource(22))).String()
	if s == "" || len(s) > 120 {
		t.Fatalf("String() unreasonable: %q", s)
	}
}

func TestTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	v := NewRandom(1000, rng)
	s := Truncate(v, 100)
	if s.Dim() != 100 {
		t.Fatalf("dim %d", s.Dim())
	}
	for i := 0; i < 100; i++ {
		if s.Bit(i) != v.Bit(i) {
			t.Fatalf("bit %d not preserved", i)
		}
	}
	// Tail invariant on a non-aligned cut.
	u := Truncate(v, 77)
	if u.Word(u.NumWords()-1)&^u.tailMask() != 0 {
		t.Fatal("garbage above the truncated tail")
	}
	// Distances shrink proportionally in expectation.
	w := NewRandom(1000, rng)
	full := Hamming(v, w)
	part := Hamming(Truncate(v, 500), Truncate(w, 500))
	if part < full/2-60 || part > full/2+60 {
		t.Fatalf("truncated distance %d vs half of %d", part, full)
	}
	for _, bad := range []int{0, -1, 1001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Truncate(%d) did not panic", bad)
				}
			}()
			Truncate(v, bad)
		}()
	}
}

// TestNearestTieBreakAndPanics pins Slab.Nearest's edges on both
// kernels: equidistant rows resolve to the lowest index, within a
// block and across blocks, and an empty slab, a query or row of
// another dimension, or a row index past the end panics.
func TestNearestTieBreakAndPanics(t *testing.T) {
	const d = 1000
	q := New(d)
	q.SetBit(999, 1)
	far := New(d).FlipBits(500, rand.New(rand.NewSource(3)))
	rows := []Vector{far, New(d), New(d), far}
	across := make([]Vector, 19)
	for i := range across {
		across[i] = far
	}
	across[9], across[17] = New(d), New(d)
	forEachHammingKernel(t, func(t *testing.T) {
		if idx, dist := NewSlab(d, rows).Nearest(q); idx != 1 || dist != 1 {
			t.Fatalf("tie within a block resolved to (%d,%d), want (1,1)", idx, dist)
		}
		if idx, dist := NewSlab(d, across).Nearest(q); idx != 9 || dist != 1 {
			t.Fatalf("tie across blocks resolved to (%d,%d), want (9,1)", idx, dist)
		}
	})
	for name, call := range map[string]func(){
		"empty slab":               func() { NewSlab(d, nil).Nearest(q) },
		"query dimension mismatch": func() { NewSlab(d+1, []Vector{New(d + 1)}).Nearest(q) },
		"row dimension mismatch":   func() { NewSlab(d, []Vector{New(d), New(d + 1)}) },
		"With past the end":        func() { NewSlab(d, rows).With(5, q) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}
