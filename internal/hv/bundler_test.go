package hv

import (
	"math/rand"
	"testing"
)

func TestBundlerEmptyPanics(t *testing.T) {
	b := NewBundler(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Vector() on empty bundler did not panic")
		}
	}()
	b.Vector(nil)
}

func TestBundlerSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewRandom(313, rng)
	b := NewBundler(313)
	b.Add(v)
	if !Equal(b.Vector(nil), v) {
		t.Fatal("bundle of one vector must be the vector itself")
	}
}

func TestBundlerMajoritySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const d = 1000
	set := make([]Vector, 7)
	b := NewBundler(d)
	for i := range set {
		set[i] = NewRandom(d, rng)
		b.Add(set[i])
	}
	want := New(d)
	MajorityTo(want, set)
	if !Equal(b.Vector(nil), want) {
		t.Fatal("bundler disagrees with MajorityTo for odd count")
	}
}

func TestBundlerTieBreakDeterministicWithoutRNG(t *testing.T) {
	const d = 64
	a := New(d)
	bvec := New(d)
	for i := 0; i < d; i++ {
		a.SetBit(i, 1) // a is all ones, bvec all zeros: every position ties
	}
	b := NewBundler(d)
	b.Add(a)
	b.Add(bvec)
	if got := b.Vector(nil).CountOnes(); got != 0 {
		t.Fatalf("nil-rng tie break produced %d ones, want 0", got)
	}
}

func TestBundlerTieBreakRandomIsFair(t *testing.T) {
	const d = 10000
	a := New(d)
	for i := 0; i < d; i++ {
		a.SetBit(i, 1)
	}
	b := NewBundler(d)
	b.Add(a)
	b.Add(New(d))
	out := b.Vector(rand.New(rand.NewSource(3)))
	ones := out.CountOnes()
	if ones < 4700 || ones > 5300 {
		t.Fatalf("random tie break produced %d ones, want ≈%d", ones, d/2)
	}
}

func TestBundlerAddBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 500
	b1 := NewBundler(d)
	b2 := NewBundler(d)
	for i := 0; i < 5; i++ {
		v := NewRandom(d, rng)
		b1.Add(v)
		b2.AddBits(v.Bits())
	}
	if !Equal(b1.Vector(nil), b2.Vector(nil)) {
		t.Fatal("Add and AddBits disagree")
	}
}

func TestBundlerReset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBundler(200)
	b.Add(NewRandom(200, rng))
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset did not clear count")
	}
	v := NewRandom(200, rng)
	b.Add(v)
	if !Equal(b.Vector(nil), v) {
		t.Fatal("Reset left stale counts behind")
	}
}

func TestBundlerDimensionMismatchPanics(t *testing.T) {
	b := NewBundler(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong dimension did not panic")
		}
	}()
	b.Add(New(101))
}

func TestBundlerClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d = 500
	b := NewBundler(d)
	for i := 0; i < 6; i++ {
		b.Add(NewRandom(d, rng))
	}
	c := b.Clone()
	if c.Count() != b.Count() {
		t.Fatalf("clone count %d, want %d", c.Count(), b.Count())
	}
	if !Equal(c.Vector(nil), b.Vector(nil)) {
		t.Fatal("clone thresholds differently from the original")
	}
	// Diverge the clone; the original must not move.
	before := b.Vector(nil)
	for i := 0; i < 5; i++ {
		c.Add(NewRandom(d, rng))
	}
	if !Equal(b.Vector(nil), before) {
		t.Fatal("adding to the clone mutated the original")
	}
	if b.Count() == c.Count() {
		t.Fatal("clone count still aliased to the original")
	}
}

func TestBundlerPrototypeSimilarity(t *testing.T) {
	// A prototype bundled from noisy copies of a template stays close
	// to the template — the learning mechanism of the HD classifier.
	rng := rand.New(rand.NewSource(6))
	const d = 10000
	template := NewRandom(d, rng)
	b := NewBundler(d)
	for i := 0; i < 21; i++ {
		noisy := template.Clone()
		noisy.FlipBits(d/10, rng) // 10% component noise
		b.Add(noisy)
	}
	proto := b.Vector(rng)
	if dist := Hamming(proto, template); dist > d/20 {
		t.Fatalf("prototype distance %d from template; bundling failed to denoise", dist)
	}
}

// TestBundlerFromStateAdoptsPlanes pins the snapshot seam's ownership
// contract: the rebuilt bundler counts on in the caller's plane
// arrays (no copy), State hands back those same arrays, and the plane
// a later Add appends never lands in spare capacity of the caller's
// plane stack.
func TestBundlerFromStateAdoptsPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const d = 200
	src := NewBundler(d)
	for i := 0; i < 3; i++ {
		src.Add(NewRandom(d, rng))
	}
	n, live := src.State()
	stack := make([][]uint64, len(live), len(live)+1)
	for p := range stack {
		stack[p] = append([]uint64(nil), live[p]...)
	}
	b, err := NewBundlerFromState(d, n, stack)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := b.State(); &got[0][0] != &stack[0][0] {
		t.Fatal("NewBundlerFromState copied the planes it was handed")
	}
	v := NewRandom(d, rng)
	src.Add(v)
	b.Add(v) // count 4 needs a third plane
	if spare := stack[:len(stack)+1][len(stack)]; spare != nil {
		t.Fatal("the new plane was appended into the caller's plane stack")
	}
	if !Equal(b.Vector(nil), src.Vector(nil)) {
		t.Fatal("the rebuilt bundler counts differently from the original")
	}
}
