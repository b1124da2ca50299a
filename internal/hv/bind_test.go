package hv

import (
	"math/rand"
	"testing"
)

// bindDims are the dimensions of the fused kernel's checks: one word,
// the 32- and 64-bit boundaries, the 512-bit step of the vector kernel
// with every tail shape around it, and the paper's 10,000-D (19 full
// steps and a 9-word tail).
var bindDims = []int{1, 31, 32, 33, 63, 64, 65, 511, 512, 513, 1000, 10000}

// bindChannels covers every carry-save size, odd and even (1–7), the
// first counts that take the count planes (8, 9), and the §4.2
// scalability sweep's 16, 64 and 256.
var bindChannels = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 256}

// guardedVector returns a d-dimensional vector whose words sit in a
// larger backing array at word offset off, with the guard pattern
// 0xdeadbeef in every word outside them, and whose last word carries
// ones above d when dirty is set.
func guardedVector(d, off int, dirty bool, rng *rand.Rand) (Vector, []uint32) {
	nw := WordsFor(d)
	back := make([]uint32, off+nw+17)
	for i := range back {
		back[i] = 0xdeadbeef
	}
	v := Vector{d: d, words: back[off : off+nw]}
	for i := range v.words {
		v.words[i] = rng.Uint32()
	}
	if !dirty {
		v.maskTail()
	}
	return v, back
}

// bindMajorityRef is BindMajorityTo the stored way: XorTo into one
// bound vector per channel, the XOR of the first two for an even
// count, then MajorityTo.
func bindMajorityRef(items, levels []Vector) Vector {
	c := len(items)
	bound := make([]Vector, c, c+1)
	for i := range bound {
		bound[i] = New(items[i].d)
		XorTo(bound[i], items[i], levels[i])
	}
	if c%2 == 0 {
		bound = append(bound, Xor(bound[0], bound[1]))
	}
	out := New(items[0].d)
	MajorityTo(out, bound)
	return out
}

// TestBindMajorityMatchesXorMajority checks both kernels against
// XorTo+MajorityTo at every dimension of bindDims and channel count of
// bindChannels. Rows start on even and odd words, the level rows are
// drawn from a table of three so channels share them, as quantized
// levels do, and every row's last word carries ones above the
// dimension half the time, which the result must not. Guard words
// around every row and around dst must come through unchanged: neither
// kernel reads or writes past a vector.
func TestBindMajorityMatchesXorMajority(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, d := range bindDims {
			for _, c := range bindChannels {
				for trial := 0; trial < 2; trial++ {
					off, dirty := trial, trial == 1
					var backs [][]uint32
					row := func() Vector {
						v, back := guardedVector(d, off, dirty, rng)
						backs = append(backs, back)
						return v
					}
					items := make([]Vector, c)
					for i := range items {
						items[i] = row()
					}
					table := []Vector{row(), row(), row()}
					levels := make([]Vector, c)
					for i := range levels {
						levels[i] = table[rng.Intn(len(table))]
					}
					want := bindMajorityRef(items, levels)
					dst, dstBack := guardedVector(d, off, true, rng)
					BindMajorityTo(dst, items, levels)
					if !Equal(dst, want) {
						t.Fatalf("d=%d c=%d off=%d dirty=%v: BindMajorityTo %v, want %v", d, c, off, dirty, dst, want)
					}
					for _, back := range append(backs, dstBack) {
						nw := WordsFor(d)
						for i, w := range back {
							if (i < off || i >= off+nw) && w != 0xdeadbeef {
								t.Fatalf("d=%d c=%d off=%d: guard word %d of a row or dst changed to %#x", d, c, off, i, w)
							}
						}
					}
				}
			}
		}
	})
}

// TestBindMajorityPanics pins the argument checks: no channels, unequal
// item and level counts, and a row of another dimension.
func TestBindMajorityPanics(t *testing.T) {
	a, b := New(64), New(64)
	for name, f := range map[string]func(){
		"no channels":     func() { BindMajorityTo(a, nil, nil) },
		"unequal counts":  func() { BindMajorityTo(a, []Vector{a}, []Vector{a, b}) },
		"item dimension":  func() { BindMajorityTo(a, []Vector{New(65)}, []Vector{b}) },
		"level dimension": func() { BindMajorityTo(a, []Vector{b}, []Vector{New(63)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BindMajorityTo did not panic", name)
				}
			}()
			f()
		}()
	}
}
