package hv

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"pulphd/internal/hdref"
)

// Property-based cross-validation of the bit-packed implementation
// against the unpacked golden model (internal/hdref), in the role of
// the paper's MATLAB reference.

// genPair produces a deterministic pseudo-random vector of dimension d
// in both representations.
func genPair(d int, seed int64) (Vector, hdref.Bits) {
	rng := rand.New(rand.NewSource(seed))
	bits := hdref.Random(d, rng)
	return FromBits(bits), bits
}

// propDim maps an arbitrary uint16 to an interesting dimension,
// biased toward tail-carrying sizes.
func propDim(x uint16) int {
	d := int(x)%2048 + 1
	return d
}

func TestQuickXorMatchesReference(t *testing.T) {
	f := func(x uint16, s1, s2 int64) bool {
		d := propDim(x)
		a, ra := genPair(d, s1)
		b, rb := genPair(d, s2)
		return Equal(Xor(a, b), FromBits(hdref.Xor(ra, rb)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRotateMatchesReference(t *testing.T) {
	f := func(x uint16, s int64, k int16) bool {
		d := propDim(x)
		a, ra := genPair(d, s)
		return Equal(Rotate(a, int(k)), FromBits(hdref.Rotate(ra, int(k))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHammingMatchesReference(t *testing.T) {
	f := func(x uint16, s1, s2 int64) bool {
		d := propDim(x)
		a, ra := genPair(d, s1)
		b, rb := genPair(d, s2)
		return Hamming(a, b) == hdref.Hamming(ra, rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMajorityMatchesReference(t *testing.T) {
	f := func(x uint16, seed int64, nRaw uint8) bool {
		d := propDim(x)
		n := int(nRaw)%9 + 1
		if n%2 == 0 {
			n++ // reference has no tie-breaker; compare odd sets
		}
		packed := make([]Vector, n)
		unpacked := make([]hdref.Bits, n)
		for i := 0; i < n; i++ {
			packed[i], unpacked[i] = genPair(d, seed+int64(i))
		}
		return Equal(Majority(packed...), FromBits(hdref.Majority(unpacked)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBundlerMatchesMajority(t *testing.T) {
	// Thresholding an odd number of accumulated vectors must equal the
	// direct componentwise majority.
	f := func(x uint16, seed int64, nRaw uint8) bool {
		d := propDim(x)
		n := int(nRaw)%7*2 + 1 // odd in [1,13]
		b := NewBundler(d)
		set := make([]Vector, n)
		for i := 0; i < n; i++ {
			set[i], _ = genPair(d, seed+int64(i))
			b.Add(set[i])
		}
		m := New(d)
		MajorityTo(m, set)
		return Equal(b.Vector(nil), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRotateInverse(t *testing.T) {
	f := func(x uint16, s int64, k int16) bool {
		d := propDim(x)
		a, _ := genPair(d, s)
		return Equal(Rotate(Rotate(a, int(k)), -int(k)), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXorPreservesHamming(t *testing.T) {
	// Binding by a common key is an isometry of Hamming space.
	f := func(x uint16, s1, s2, s3 int64) bool {
		d := propDim(x)
		a, _ := genPair(d, s1)
		b, _ := genPair(d, s2)
		k, _ := genPair(d, s3)
		return Hamming(Xor(a, k), Xor(b, k)) == Hamming(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(x uint16, s int64) bool {
		d := propDim(x)
		a, ra := genPair(d, s)
		bits := a.Bits()
		if len(bits) != len(ra) {
			return false
		}
		for i := range bits {
			if bits[i] != ra[i] {
				return false
			}
		}
		return Equal(FromBits(bits), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNearestMatchesReference checks Slab.Nearest on both
// kernels against the golden model's AM (hdref.RefAM: a per-bit
// Hamming argmin, ties to the lowest index). Row counts run 1–40, so
// the last block holds every count of lanes from 1 to 8; dimensions
// run 1–6,000 (most not a multiple of 64, many with an odd word count)
// plus 10,000. About one row in four copies an earlier row, in its own
// block or another, so ties occur. Half the queries sit a few flipped
// bits from one row — the case where blocks are dropped after their
// first steps; a random query is ≈ d/2 from every row and is scored
// almost in full.
func TestQuickNearestMatchesReference(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		f := func(x uint16, seed int64, kRaw, flips uint8, near bool) bool {
			d := int(x)%6000 + 1
			if x%16 == 0 {
				d = 10000
			}
			rng := rand.New(rand.NewSource(seed))
			set := make([]Vector, int(kRaw)%40+1)
			ref := hdref.RefAM{}
			for i := range set {
				if i > 0 && rng.Intn(4) == 0 {
					set[i] = set[rng.Intn(i)].Clone()
				} else {
					set[i] = NewRandom(d, rng)
				}
				ref.Labels = append(ref.Labels, strconv.Itoa(i))
				ref.Prototypes = append(ref.Prototypes, set[i].Bits())
			}
			q := NewRandom(d, rng)
			if near {
				q = set[rng.Intn(len(set))].Clone().FlipBits(min(int(flips)%8, d), rng)
			}
			wantLabel, wantDist := ref.Classify(q.Bits())
			idx, dist := NewSlab(d, set).Nearest(q)
			return strconv.Itoa(idx) == wantLabel && dist == wantDist
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}); err != nil {
			t.Fatal(err)
		}
	})
}
