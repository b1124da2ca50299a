package hv

import (
	"math/bits"
	"unsafe"
)

// This file holds the word64 SWAR fast paths: the public hypervector
// layout stays packed uint32 words (the accelerator's representation,
// DAC'18 §3), but on the host the kernels consume those words 64 bits
// at a time so every XOR, popcount and majority plane operation covers
// two packed words at once. The same restructuring-for-width idea
// appears in the hardware optimizations of Schmuck, Benini & Rahimi
// (arXiv:1807.08583); here it is the software analogue.
//
// When the backing array is 8-byte aligned (the heap aligns every
// vector of two or more words so) the kernels read it through an
// unsafe []uint64 view, eliminating the compose shifts; a slice that
// starts on an odd word falls back to composing uint32 pairs. Both
// paths are bit-identical to the plain word-at-a-time loops for every
// dimension, including non-word-aligned tails.
//
// Hamming distance has its own dispatch: HammingWords runs the
// platform's kernel (hamming_amd64.go selects an AVX-512 VPOPCNTDQ
// assembly loop from CPUID at init, which reads misaligned slices as
// they are; every other host runs hammingPortable below). The
// associative-memory scan, Slab.Nearest, and the fused bind and
// majority, BindMajorityTo (bind.go), are dispatched the same way.

// pair64 composes two consecutive packed words into one uint64 with
// the low word in the low half, matching the little-endian component
// order of the packed layout.
func pair64(lo, hi uint32) uint64 {
	return uint64(lo) | uint64(hi)<<32
}

// words64 returns a uint64 view over the first len(ws)/2*2 words of
// ws, or false when ws is too short or its backing array is not
// 8-byte aligned (odd-offset subslices, exotic platforms). The view
// aliases ws: writes through it are writes to ws.
func words64(ws []uint32) ([]uint64, bool) {
	if len(ws) < 2 || uintptr(unsafe.Pointer(&ws[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&ws[0])), len(ws)/2), true
}

// xorWords stores a[i]^b[i] into dst[i]. The slices must have equal
// length; dst may alias a or b.
func xorWords(dst, a, b []uint32) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	if d64, ok := words64(dst); ok {
		if a64, ok := words64(a); ok {
			if b64, ok := words64(b); ok {
				a64 = a64[:len(d64)] // bounds-check elimination
				b64 = b64[:len(d64)]
				// Four words a step: the one-word loop's speed hung on
				// where the linker put it (80 or 125 ns at 10,000-D for
				// the same machine code, 32 bytes apart).
				j := 0
				for ; j+4 <= len(d64); j += 4 {
					d, x, y := d64[j:j+4:j+4], a64[j:j+4:j+4], b64[j:j+4:j+4]
					d[0], d[1], d[2], d[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
				}
				for ; j < len(d64); j++ {
					d64[j] = a64[j] ^ b64[j]
				}
				i = len(d64) * 2
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// HammingWords returns the number of differing bits between a and b.
// b must be at least as long as a. It runs whichever kernel the host
// selected at init.
func HammingWords(a, b []uint32) int {
	return hamming(a, b[:len(a)])
}

// hammingPortable is the pure-Go Hamming kernel, the only one off
// amd64 and the fallback on amd64 hosts without VPOPCNTDQ. It
// popcounts 64 bits (two packed words) at a time in an 8-wide unroll
// whose full slice expressions keep the body free of bounds checks;
// misaligned slices take a plain 32-bit loop. b is as long as a.
func hammingPortable(a, b []uint32) int {
	a64, okA := words64(a)
	b64, okB := words64(b)
	if !okA || !okB {
		total := 0
		for i := range a {
			total += bits.OnesCount32(a[i] ^ b[i])
		}
		return total
	}
	total := 0
	if n := len(a); n%2 == 1 {
		total = bits.OnesCount32(a[n-1] ^ b[n-1])
	}
	b64 = b64[:len(a64)] // bounds-check elimination
	j := 0
	for ; j+8 <= len(a64); j += 8 {
		x := a64[j : j+8 : j+8]
		y := b64[j : j+8 : j+8]
		total += bits.OnesCount64(x[0]^y[0]) + bits.OnesCount64(x[1]^y[1]) +
			bits.OnesCount64(x[2]^y[2]) + bits.OnesCount64(x[3]^y[3]) +
			bits.OnesCount64(x[4]^y[4]) + bits.OnesCount64(x[5]^y[5]) +
			bits.OnesCount64(x[6]^y[6]) + bits.OnesCount64(x[7]^y[7])
	}
	for ; j < len(a64); j++ {
		total += bits.OnesCount64(a64[j] ^ b64[j])
	}
	return total
}

// countOnesWords returns the number of set bits in ws.
func countOnesWords(ws []uint32) int {
	total := 0
	i := 0
	if w64, ok := words64(ws); ok {
		j := 0
		for ; j+4 <= len(w64); j += 4 {
			x := w64[j : j+4 : j+4]
			total += bits.OnesCount64(x[0]) + bits.OnesCount64(x[1]) +
				bits.OnesCount64(x[2]) + bits.OnesCount64(x[3])
		}
		for ; j < len(w64); j++ {
			total += bits.OnesCount64(w64[j])
		}
		i = len(w64) * 2
	}
	for ; i < len(ws); i++ {
		total += bits.OnesCount32(ws[i])
	}
	return total
}

// majorityWords writes into dst the positionwise majority of the
// packed slices in set: a bit of dst is 1 where strictly more than
// threshold of the set slices have a 1. Each set slice must be at
// least len(dst) long. planes is caller-provided scratch of length
// ≥ bits.Len(len(set)) holding the bit-sliced per-position counts;
// providing it externally lets MajorityTo keep it on the stack.
//
// 64 positions are counted per full-adder ripple step. A trailing odd
// word is folded with its high half zero, which contributes count 0
// everywhere and therefore can never exceed the threshold — the extra
// half-word stays 0 in dst.
func majorityWords(dst []uint32, set [][]uint32, threshold uint32, planes []uint64) {
	nw := len(dst)
	t64 := uint64(threshold)
	i := 0
	if d64, ok := words64(dst); ok && len(set) <= 32 {
		var vbuf [32][]uint64
		views := vbuf[:0]
		for _, ws := range set {
			v, ok := words64(ws[:nw])
			if !ok {
				views = nil
				break
			}
			views = append(views, v[:len(d64)]) // bounds-check elimination
		}
		if views != nil {
			if !majorityOddCSA(d64, views, t64) {
				for j := range d64 {
					for b := range planes {
						planes[b] = 0
					}
					for _, v := range views {
						carry := v[j]
						for b := 0; carry != 0; b++ {
							planes[b], carry = planes[b]^carry, planes[b]&carry
						}
					}
					d64[j] = greaterThan64(planes, t64)
				}
			}
			i = len(d64) * 2
		}
	}
	for ; i < nw; i += 2 {
		for b := range planes {
			planes[b] = 0
		}
		if i+1 < nw {
			for _, ws := range set {
				carry := pair64(ws[i], ws[i+1])
				for b := 0; carry != 0; b++ {
					planes[b], carry = planes[b]^carry, planes[b]&carry
				}
			}
		} else {
			for _, ws := range set {
				carry := uint64(ws[i])
				for b := 0; carry != 0; b++ {
					planes[b], carry = planes[b]^carry, planes[b]&carry
				}
			}
		}
		gt := greaterThan64(planes, t64)
		dst[i] = uint32(gt)
		if i+1 < nw {
			dst[i+1] = uint32(gt >> 32)
		}
	}
}

// csa64 is a positionwise full adder (carry-save adder): across the 64
// positions, a+b+c = sum + 2*carry.
func csa64(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// maj3 returns the positionwise majority of three words: the carry of
// their sum, count ≥ 2.
func maj3(a, b, c uint64) uint64 {
	return (a & b) | ((a ^ b) & c)
}

// maj5 returns the positionwise majority of five words. count = s2 +
// 2*(c1+c2), so count ≥ 3 ⇔ both twos, or one two plus the ones bit:
// the majority of c1, c2 and s2.
func maj5(a, b, c, d, e uint64) uint64 {
	s1, c1 := csa64(a, b, c)
	s2, c2 := csa64(s1, d, e)
	return maj3(c1, c2, s2)
}

// maj7 returns the positionwise majority of seven words. count = s3 +
// 2*(c1+c2+c3) with s3 ≤ 1, so count ≥ 4 ⇔ at least two of the three
// carries: their majority.
func maj7(a, b, c, d, e, f, g uint64) uint64 {
	// csa64 of (a, b, c) and of (d, e, f), written out to stay inlinable.
	u, v := a^b, d^e
	s1, c1 := u^c, a&b|u&c
	s2, c2 := v^f, d&e|v&f
	return maj3(c1, c2, maj3(s1, s2, g))
}

// majorityOddCSA handles the majority sizes the encoders actually
// produce — odd sets of 3, 5 or 7 with the standard floor(n/2)
// threshold — by reducing the inputs with a carry-save adder tree and
// reading the majority straight off the carry bits, with no count
// planes at all. Reports whether it handled the case.
func majorityOddCSA(d64 []uint64, views [][]uint64, t64 uint64) bool {
	if t64 != uint64(len(views)/2) {
		return false
	}
	switch len(views) {
	case 3:
		a, b, c := views[0], views[1], views[2]
		for j := range d64 {
			d64[j] = maj3(a[j], b[j], c[j])
		}
	case 5:
		v0, v1, v2, v3, v4 := views[0], views[1], views[2], views[3], views[4]
		for j := range d64 {
			d64[j] = maj5(v0[j], v1[j], v2[j], v3[j], v4[j])
		}
	case 7:
		v0, v1, v2 := views[0], views[1], views[2]
		v3, v4, v5, v6 := views[3], views[4], views[5], views[6]
		for j := range d64 {
			d64[j] = maj7(v0[j], v1[j], v2[j], v3[j], v4[j], v5[j], v6[j])
		}
	default:
		return false
	}
	return true
}

// greaterThan64 returns, positionwise, whether the bit-sliced counts
// in planes exceed the constant t. Evaluated MSB-first: gt becomes 1
// at the first plane where the count has a 1 and t a 0, while still
// tied.
func greaterThan64(planes []uint64, t uint64) uint64 {
	var gt uint64    // positions already decided greater
	eq := ^uint64(0) // positions still tied
	for b := len(planes) - 1; b >= 0; b-- {
		tb := uint64(0)
		if t&(1<<uint(b)) != 0 {
			tb = ^uint64(0)
		}
		gt |= eq & planes[b] &^ tb
		eq &= ^(planes[b] ^ tb)
	}
	return gt
}

// compare64 is greaterThan64 also returning the positionwise equality
// mask, which the Bundler needs to locate exact majority ties.
func compare64(planes []uint64, t uint64) (gt, eq uint64) {
	eq = ^uint64(0)
	for b := len(planes) - 1; b >= 0; b-- {
		tb := uint64(0)
		if t&(1<<uint(b)) != 0 {
			tb = ^uint64(0)
		}
		gt |= eq & planes[b] &^ tb
		eq &= ^(planes[b] ^ tb)
	}
	return gt, eq
}
