package hv

import (
	"math/bits"
	"math/rand"
	"testing"
)

// swarDims exercises the word64 fast paths at every interesting shape:
// below one uint64 (scalar only), odd word counts (uint64 view plus a
// trailing uint32), non-word-aligned dimensions (masked tails), the
// unroll boundary, and the paper's 10,000-D operating point.
var swarDims = []int{8, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 255, 256, 257, 1000, 2048, 4096, 9999, 10000}

func randWords(n int, rng *rand.Rand) []uint32 {
	ws := make([]uint32, n)
	for i := range ws {
		ws[i] = rng.Uint32()
	}
	return ws
}

func TestSwarKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range swarDims {
		nw := WordsFor(d)
		// offset 0 takes the aligned uint64 view; offset 1 starts on an
		// odd uint32 and must fall back to composing pairs.
		for _, off := range []int{0, 1} {
			if nw <= off {
				continue
			}
			back := func() []uint32 { return randWords(nw+off, rng)[off:] }
			a, b := back(), back()
			n := len(a)

			wantOnes := 0
			for _, w := range a {
				wantOnes += bits.OnesCount32(w)
			}
			if got := countOnesWords(a); got != wantOnes {
				t.Errorf("d=%d off=%d: countOnesWords=%d want %d", d, off, got, wantOnes)
			}

			dst := make([]uint32, n)
			xorWords(dst, a, b)
			for i := range dst {
				if dst[i] != a[i]^b[i] {
					t.Fatalf("d=%d off=%d: xorWords word %d = %#x want %#x", d, off, i, dst[i], a[i]^b[i])
				}
			}
		}
	}
}

// forEachHammingKernel runs f once per kernel, flipping the init-time
// selector so HammingWords and Slab.Nearest take the vector kernels or
// the Go loops, and restores the host's choice afterwards. On a host
// without AVX-512 VPOPCNTDQ the vector half logs and skips.
func forEachHammingKernel(t *testing.T, f func(t *testing.T)) {
	host := useVPOPCNTDQ
	defer func() { useVPOPCNTDQ = host }()
	for _, k := range []struct {
		name   string
		vector bool
	}{{"portable", false}, {"vpopcntdq", true}} {
		t.Run(k.name, func(t *testing.T) {
			if k.vector && !host {
				t.Skip("host has no AVX-512 VPOPCNTDQ: vector kernel not exercised")
			}
			useVPOPCNTDQ = k.vector
			f(t)
		})
	}
}

// TestHammingKernelsMatchScalar checks both kernels against a per-word
// popcount at every word count from 0 to 170 — every step, tail and
// odd-word shape of both kernels (a step scores 32 word pairs in the
// vector kernel, 8 in the Go loop) — on aligned and odd-offset slices.
func TestHammingKernelsMatchScalar(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for nw := 0; nw <= 170; nw++ {
			for _, off := range []int{0, 1} {
				a := randWords(nw+off, rng)[off:]
				b := randWords(nw+off, rng)[off:]
				want := 0
				for i := range a {
					want += bits.OnesCount32(a[i] ^ b[i])
				}
				if got := HammingWords(a, b); got != want {
					t.Fatalf("%d words off=%d: HammingWords=%d want %d", nw, off, got, want)
				}
			}
		}
	})
}

// TestSwarMajorityMatchesScalar cross-checks majorityWords — both the
// CSA-specialized odd sizes and the generic bit-sliced path — against
// a per-bit counting loop, on aligned and misaligned inputs.
func TestSwarMajorityMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, d := range []int{33, 64, 96, 127, 313, 1000, 10000} {
		nw := (d + 31) / 32
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
			for _, off := range []int{0, 1} {
				set := make([][]uint32, n)
				for i := range set {
					set[i] = randWords(nw+off, rng)[off:]
				}
				threshold := uint32(n / 2)
				want := make([]uint32, nw)
				for w := 0; w < nw; w++ {
					var out uint32
					for bit := 0; bit < 32; bit++ {
						count := uint32(0)
						for _, ws := range set {
							count += ws[w] >> uint(bit) & 1
						}
						if count > threshold {
							out |= 1 << uint(bit)
						}
					}
					want[w] = out
				}
				dst := make([]uint32, nw)
				planes := make([]uint64, bits.Len(uint(n)))
				majorityWords(dst, set, threshold, planes)
				for w := range dst {
					if dst[w] != want[w] {
						t.Fatalf("d=%d n=%d off=%d: majority word %d = %#x want %#x", d, n, off, w, dst[w], want[w])
					}
				}
			}
		}
	}
}

// TestSwarHighDimMatchesWide spot-checks the packed kernels against
// the byte-per-component view at 10,000-D, the scale the quick-check
// suite (capped at 2048) never reaches.
func TestSwarHighDimMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const d = 10000
	a, b := NewRandom(d, rng), NewRandom(d, rng)
	ab, bb := a.Bits(), b.Bits()
	wantHam := 0
	wantOnes := 0
	for i := 0; i < d; i++ {
		if ab[i] != bb[i] {
			wantHam++
		}
		if ab[i] != 0 {
			wantOnes++
		}
	}
	if got := Hamming(a, b); got != wantHam {
		t.Errorf("Hamming=%d want %d", got, wantHam)
	}
	if got := a.CountOnes(); got != wantOnes {
		t.Errorf("CountOnes=%d want %d", got, wantOnes)
	}
	x := Xor(a, b)
	xb := x.Bits()
	for i := 0; i < d; i++ {
		if xb[i] != ab[i]^bb[i] {
			t.Fatalf("Xor bit %d = %d want %d", i, xb[i], ab[i]^bb[i])
		}
	}
}
