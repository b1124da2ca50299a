package hv

import (
	"fmt"
	"math/bits"
)

// maxCSAChannels is the largest channel count whose bound set (with
// the tie word of an even count: 3, 5 or 7 words) reduces through a
// carry-save tree; larger sets count in bit-sliced planes.
const maxCSAChannels = 7

// BindMajorityTo stores in dst the spatial encoder's bind and bundle,
// [(items[0] ⊕ levels[0]) + … + (items[c-1] ⊕ levels[c-1])], in one
// pass: the componentwise strict majority of the c bound vectors, with
// the §5.1 tie-break vector (the XOR of the first two bound vectors)
// joining the set when c is even. It is bit-identical to XorTo into c
// scratch vectors, the tie vector, then MajorityTo, but no bound vector
// is ever stored: per 64-bit word each channel's two words are XORed
// and folded straight into the majority, the software form of the
// combinational bundling of Schmuck, Benini & Rahimi
// (arXiv:1807.08583). items and levels have the same length, 1 to
// 65,535, and every vector dst's dimension; dst may not alias them. It
// runs whichever kernel the host selected at init.
func BindMajorityTo(dst Vector, items, levels []Vector) {
	if len(items) == 0 || len(items) != len(levels) {
		panic(fmt.Sprintf("hv: BindMajorityTo: %d items for %d levels", len(items), len(levels)))
	}
	for i := range items {
		checkSameDim("BindMajorityTo", dst, items[i])
		checkSameDim("BindMajorityTo", dst, levels[i])
	}
	bindMajority(dst.words, items, levels)
	dst.maskTail()
}

// bindMajorityPortable is the Go form of BindMajorityTo's word loop,
// the only one off amd64. The carry-save sizes run over uint64 views
// of 8-byte-aligned rows (bindMajorityCSA); the rest, and an odd last
// word, go through the count planes (bindMajorityPlanes).
func bindMajorityPortable(dst []uint32, items, levels []Vector) {
	from := 0
	if len(items) <= maxCSAChannels {
		from = bindMajorityCSA(dst, items, levels)
	}
	bindMajorityPlanes(dst, items, levels, from)
}

// bindMajorityCSA is the word loop for 1–7 channels: per 64-bit word it
// XORs each channel's item and level words and reduces the bound set
// of 3, 5 or 7, the tie word of an even count included, through a
// carry-save tree (maj3, maj5, maj7), keeping no bound set. It reads
// uint64 views, so it returns the number of packed words it wrote:
// every full 64-bit word of dst, or none when a vector is not 8-byte
// aligned.
func bindMajorityCSA(dst []uint32, items, levels []Vector) int {
	d64, ok := words64(dst)
	if !ok {
		return 0
	}
	n := len(d64)
	var rows [2 * maxCSAChannels][]uint64
	for i := range items {
		a, okA := words64(items[i].words)
		b, okB := words64(levels[i].words)
		if !okA || !okB {
			return 0
		}
		rows[2*i], rows[2*i+1] = a, b
	}
	// The set's last word x is channel c-1's bound word when c is odd.
	// When c is even it is the tie word x0 ⊕ x1: channel 0's rows give
	// x0, and tie (all ones) XORs in x1.
	c := len(items)
	last, tie := c-1, uint64(0)
	if c%2 == 0 {
		last, tie = 0, ^uint64(0)
	}
	al, bl := rows[2*last][:n], rows[2*last+1][:n]
	a0, b0 := rows[0][:n], rows[1][:n]
	switch c {
	case 1:
		for j := range d64 {
			d64[j] = a0[j] ^ b0[j]
		}
	case 2, 3:
		a1, b1 := rows[2][:n], rows[3][:n]
		for j := range d64 {
			x1 := a1[j] ^ b1[j]
			d64[j] = maj3(a0[j]^b0[j], x1, al[j]^bl[j]^x1&tie)
		}
	case 4, 5:
		a1, b1, a2, b2, a3, b3 := rows[2][:n], rows[3][:n], rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
		for j := range d64 {
			x1 := a1[j] ^ b1[j]
			d64[j] = maj5(a0[j]^b0[j], x1, a2[j]^b2[j], a3[j]^b3[j], al[j]^bl[j]^x1&tie)
		}
	default:
		a1, b1, a2, b2, a3, b3 := rows[2][:n], rows[3][:n], rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
		a4, b4, a5, b5 := rows[8][:n], rows[9][:n], rows[10][:n], rows[11][:n]
		for j := range d64 {
			x1 := a1[j] ^ b1[j]
			d64[j] = maj7(a0[j]^b0[j], x1, a2[j]^b2[j], a3[j]^b3[j], a4[j]^b4[j], a5[j]^b5[j], al[j]^bl[j]^x1&tie)
		}
	}
	return 2 * n
}

// bindMajorityPlanes is the word loop for any channel count, from
// packed word from (even) to the end of dst: per 64-bit word (two
// packed words; an odd last word rides in the low half) it XORs each
// channel's item and level words and adds the bound word, then the tie
// word of an even count, into bit-sliced count planes, as
// MajorityBlock64 does past its carry-save sizes.
func bindMajorityPlanes(dst []uint32, items, levels []Vector, from int) {
	c := len(items)
	var planes [16]uint64
	ps := planes[:bits.Len(uint(c|1))]
	for j := from; j < len(dst); j += 2 {
		clear(ps)
		var tie uint64
		for i := range items {
			x := load64(items[i].words, j) ^ load64(levels[i].words, j)
			if i < 2 {
				tie ^= x
			}
			addPlanes(ps, x)
		}
		if c%2 == 0 {
			addPlanes(ps, tie)
		}
		m := greaterThan64(ps, uint64(c/2))
		dst[j] = uint32(m)
		if j+1 < len(dst) {
			dst[j+1] = uint32(m >> 32)
		}
	}
}

// addPlanes adds one to the bit-sliced count in planes wherever x has a
// 1: a ripple of half adders through every plane, which the caller
// sizes to hold its largest count.
func addPlanes(planes []uint64, x uint64) {
	for b := range planes {
		planes[b], x = planes[b]^x, planes[b]&x
	}
}

// load64 returns packed words j and j+1 of w as one uint64, low word in
// the low half (pair64), or word j alone when it is w's last.
func load64(w []uint32, j int) uint64 {
	if j+1 < len(w) {
		return pair64(w[j], w[j+1])
	}
	return uint64(w[j])
}
