package hv

import "math/bits"

// useVPOPCNTDQ selects the AVX-512 VPOPCNTDQ Hamming kernel. It is set
// once, at init, from CPUID and XGETBV, and nothing else sets it: no
// flag, environment variable or build tag. The kernel tests flip it to
// run every case through both kernels.
var useVPOPCNTDQ = hasVPOPCNTDQ()

// hasVPOPCNTDQ reports whether the CPU has AVX512F and
// AVX512_VPOPCNTDQ (plus POPCNT for the scalar tail) and the OS saves
// the opmask and full ZMM register state across context switches.
func hasVPOPCNTDQ() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, popcnt = 1 << 27, 1 << 23
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	// XCR0 bits 1–2 (XMM, YMM) and 5–7 (opmask, upper halves of
	// ZMM0–15, ZMM16–31).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, vpopcntdq = 1 << 16, 1 << 14
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&avx512f != 0 && ecx7&vpopcntdq != 0
}

// hammingWithin returns the number of differing bits between a and
// the first len(a) words of b. It is exact when that distance is below
// bound; otherwise it may stop early and return any value ≥ bound.
// The word pairs go to the VPOPCNTDQ kernel when the host has it,
// which reads them unaligned, so odd-offset subslices take the vector
// path too; a trailing odd word is counted here.
func hammingWithin(a, b []uint32, bound int) int {
	n := len(a)
	if !useVPOPCNTDQ || n < 2 {
		return hammingPortable(a, b, bound)
	}
	b = b[:n]
	total := hammingVPOPCNTDQ(&a[0], &b[0], n/2, bound)
	if n%2 == 1 {
		total += bits.OnesCount32(a[n-1] ^ b[n-1])
	}
	return total
}

// The functions below are implemented in hamming_amd64.s.

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hammingVPOPCNTDQ popcounts a^b over n word pairs (2n packed words,
// read as uint64s at any alignment) under hammingWithin's bound
// contract. It scores 32 pairs per step with four 512-bit VPOPCNTQ and
// returns once the running count reaches bound; the pairs after the
// last full step run through 8-pair vector steps and a scalar POPCNTQ
// tail without a check.
//
//go:noescape
func hammingVPOPCNTDQ(a, b *uint32, n, bound int) int
