package hv

import "math/bits"

// This file implements seed expansion: regenerating the packed words
// of a pseudorandom hypervector on demand from a 64-bit key instead of
// loading them from a stored matrix. Schmuck, Benini & Rahimi
// (arXiv:1807.08583) show that item-memory hypervectors never need to
// exist in memory — a cellular-automaton or hash expansion of a tiny
// seed reproduces them on the fly inside the encode loop, shrinking
// the model working set from matrices to a few cache lines. Here the
// expansion is a counter-based SplitMix64 hash keyed by (seed, domain,
// row, block): a pure function, so any access order, truncation or
// parallel split regenerates identical bits, and the same construction
// the fault layer already uses for its deterministic flip patterns.
//
// Layout: block j of a row covers packed words 2j and 2j+1, i.e.
// binary components [64j, 64j+64), with the low word in the low half
// exactly as pair64 composes stored vectors. One hash call therefore
// yields 64 components, and a 10,000-D row is 157 hash calls — cheap
// enough to sit under the bind/bundle inner loop.

// golden is the SplitMix64 sequence increment (2^64/φ), also used by
// the fault layer's counter hash.
const golden = 0x9e3779b97f4a7c15

// Splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
// It is the shared counter-based hash behind both seed expansion
// (this file) and the deterministic bit-error channel (internal/fault):
// hashing a (key, counter) pair instead of advancing a sequential RNG
// is what makes regeneration order-independent.
func Splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RowKey derives the expansion key of one hypervector row from the
// model seed, a domain tag separating vector families (item memory,
// CIM base, CIM flip pattern, ...), and the row index within the
// family. Distinct (domain, row) pairs give independent rows under the
// same seed; distinct seeds give independent models.
func RowKey(seed uint64, domain uint32, row uint32) uint64 {
	return seed ^ Splitmix64(uint64(domain)<<32|uint64(row))
}

// ExpandBlock returns 64-bit block j of the row keyed by key:
// components [64j, 64j+64) with component 64j in bit 0. Blocks are
// independent uniform draws — the hash input walks the golden-ratio
// sequence, never the previous output — so expansion needs no state
// and no order.
func ExpandBlock(key uint64, j int) uint64 {
	return Splitmix64(key + golden*(uint64(j)+1))
}

// ExpandWord returns packed 32-bit word w of the row keyed by key,
// bit-identical to the corresponding half of ExpandBlock(key, w/2).
func ExpandWord(key uint64, w int) uint32 {
	return uint32(ExpandBlock(key, w>>1) >> (uint(w&1) * 32))
}

// ExpandRow materializes the d-dimensional row keyed by key — the
// stored form of the expansion, against which the word-by-word
// generators are pinned bit-identical. The tail above d is masked like
// every vector of this package.
func ExpandRow(d int, key uint64) Vector {
	v := New(d)
	ExpandRowWords(v.words, key)
	v.maskTail()
	return v
}

// ExpandRowWords fills a packed word buffer with the expansion of key,
// without tail masking (the caller owns the dimension).
func ExpandRowWords(dst []uint32, key uint64) {
	for j := 0; 2*j < len(dst); j++ {
		b := ExpandBlock(key, j)
		dst[2*j] = uint32(b)
		if 2*j+1 < len(dst) {
			dst[2*j+1] = uint32(b >> 32)
		}
	}
}

// PrefixMask64 returns the mask of components within block j that lie
// below the component index cut: all-ones when the whole block is
// below, zero when the whole block is at or above, and a low-bits
// partial mask when cut falls inside the block. It is the block form
// of "the first cut components" used by the rematerialized continuous
// item memory's interpolation.
func PrefixMask64(cut, j int) uint64 {
	base := j * 64
	switch {
	case cut >= base+64:
		return ^uint64(0)
	case cut <= base:
		return 0
	default:
		return (uint64(1) << uint(cut-base)) - 1
	}
}

// MajorityBlock64 returns the positionwise majority over one 64-bit
// block of each input: a bit of the result is 1 where strictly more
// than threshold of the set words have a 1 — exactly the majorityWords
// semantics, restricted to a single block so rematerializing encoders
// can bundle generated words without materializing full vectors. The
// odd 3/5/7-input cases with the standard floor(n/2) threshold reduce
// through the same carry-save adder forms as the vector kernel; other
// shapes fall back to bit-sliced count planes. len(set) must be at
// most 65535.
func MajorityBlock64(set []uint64, threshold uint64) uint64 {
	if threshold == uint64(len(set)/2) {
		switch len(set) {
		case 1:
			return set[0]
		case 3:
			return maj3(set[0], set[1], set[2])
		case 5:
			return maj5(set[0], set[1], set[2], set[3], set[4])
		case 7:
			return maj7(set[0], set[1], set[2], set[3], set[4], set[5], set[6])
		}
	}
	var planes [16]uint64
	for _, w := range set {
		carry := w
		for b := 0; carry != 0; b++ {
			planes[b], carry = planes[b]^carry, planes[b]&carry
		}
	}
	return greaterThan64(planes[:bits.Len(uint(len(set)))], threshold)
}
