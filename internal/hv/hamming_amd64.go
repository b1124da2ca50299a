package hv

import "math/bits"

// useVPOPCNTDQ selects the AVX-512 VPOPCNTDQ kernels of HammingWords,
// Slab.Nearest and the slab's bound upkeep. It is set once, at init, from CPUID and XGETBV, and
// nothing else sets it: no flag, environment variable or build tag. The
// kernel tests flip it to run every case through both kernels.
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

// hamming returns the number of differing bits between a and b, which
// have equal length. The word pairs go to the VPOPCNTDQ kernel when
// the host has it, which reads them unaligned, so odd-offset subslices
// take the vector path too; a trailing odd word is counted here.
func hamming(a, b []uint32) int {
	n := len(a)
	if !useVPOPCNTDQ || n < 2 {
		return hammingPortable(a, b)
	}
	total := hammingVPOPCNTDQ(&a[0], &b[0], n/2)
	if n%2 == 1 {
		total += bits.OnesCount32(a[n-1] ^ b[n-1])
	}
	return total
}

// nearest is Slab.Nearest's scan of query words q over blocks, whose
// last block holds lanes rows, on the host's kernel.
func nearest(q []uint32, blocks [][]uint64, lanes int) (index, distance int) {
	if !useVPOPCNTDQ {
		return nearestPortable(q, blocks, lanes)
	}
	return nearestVPOPCNTDQ(&q[0], len(q), &blocks[0], len(blocks), lanes)
}

// anchorDistances returns the distances from the row starting lane,
// one lane of a block, to the eight anchors, whose interleaved lines
// are anchor, on the host's kernel.
func anchorDistances(lane, anchor []uint64) [blockLanes]uint64 {
	if !useVPOPCNTDQ {
		return anchorDistancesPortable(lane, anchor)
	}
	var dist [blockLanes]uint64
	anchorDistancesVPOPCNTDQ(&lane[0], &anchor[0], len(anchor)/(stepWords*blockLanes), &dist)
	return dist
}

// bindMajority is BindMajorityTo's word loop on the host's kernel: the
// AVX-512 loop for the channel counts whose bound set reduces through a
// carry-save tree (2–7), the Go loop for the rest. The assembly walks
// the rows through a table of their first words, built here on the
// stack.
func bindMajority(dst []uint32, items, levels []Vector) {
	c := len(items)
	if !useVPOPCNTDQ || c < 2 || c > maxCSAChannels {
		bindMajorityPortable(dst, items, levels)
		return
	}
	var rows [2 * maxCSAChannels]*uint32
	for i := range items {
		rows[2*i] = &items[i].words[0]
		rows[2*i+1] = &levels[i].words[0]
	}
	bindMajorityAVX512(&dst[0], len(dst), &rows, c)
}

// The functions below are implemented in hamming_amd64.s, apart from
// bindMajorityAVX512, which is in bind_amd64.s.

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hammingVPOPCNTDQ popcounts a^b over n word pairs (2n packed words,
// read as uint64s at any alignment): 32 pairs per step with four
// 512-bit VPOPCNTQ into one vector of lane sums, then 8-pair steps, one
// horizontal sum and a scalar POPCNTQ tail.
//
//go:noescape
func hammingVPOPCNTDQ(a, b *uint32, n int) int

// nearestVPOPCNTDQ is nearestPortable in one call: q points at the
// query's nw packed words, blocks at the slab's nblocks blocks, and
// lanes counts the rows of the last block. Per block it broadcasts
// each query uint64, XORs it with the block's line and adds the
// VPOPCNTQ of the eight lanes into one vector of partial distances;
// after every 8-word (512-bit) step, and after the tail words, one
// unsigned compare against the broadcast best drops the block when no
// live lane is below it. Once block 0 is scored, and only when a later
// block follows, its distances plus and minus drift are narrowed to
// int32 and broadcast per anchor pair into eight registers; before
// each later block, four loads of its D[a][r], eight subtractions, a
// signed maximum fold and one signed compare against the best give the
// mask of live rows, which skips the block when it is empty and masks
// every later compare of the block. The packed words are read only up
// to nw: an odd last word is loaded as 32 bits.
//
//go:noescape
func nearestVPOPCNTDQ(q *uint32, nw int, blocks *[]uint64, nblocks, lanes int) (index, distance int)

// anchorDistancesVPOPCNTDQ stores in dist the distances from the row
// at lane, one uint64 every 64 bytes (one lane of a block), to the
// eight interleaved rows at anchor, over steps 512-bit steps.
//
//go:noescape
func anchorDistancesVPOPCNTDQ(lane, anchor *uint64, steps int, dist *[blockLanes]uint64)

// bindMajorityAVX512 stores in the nw packed words at dst the majority
// of the bound words of c channels, 2 to 7: channel i's item row starts
// at rows[2i] and its level row at rows[2i+1]. Per 512-bit step one
// VPXORD binds each channel, one more forms the §5.1 tie word of an
// even count, and the set of 3, 5 or 7 reduces through full adders, one
// VPTERNLOGQ for each sum (imm 0x96) and carry (0xE8), to one final
// VPTERNLOGQ majority (0xE8). A partial last step is loaded and stored
// under a lane mask, so no word past nw is read or written.
//
//go:noescape
func bindMajorityAVX512(dst *uint32, nw int, rows *[2 * maxCSAChannels]*uint32, c int)
