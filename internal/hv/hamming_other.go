//go:build !amd64

package hv

// useVPOPCNTDQ is always false off amd64, where the Go loops are the
// only kernels; the kernel tests read it to skip their vector half.
var useVPOPCNTDQ bool

// hamming returns the number of differing bits between a and b, which
// have equal length.
func hamming(a, b []uint32) int {
	return hammingPortable(a, b)
}

// nearest is Slab.Nearest's scan of query words q over blocks, whose
// last block holds lanes rows.
func nearest(q []uint32, blocks [][]uint64, lanes int) (index, distance int) {
	return nearestPortable(q, blocks, lanes)
}

// anchorDistances returns the distances from the row starting lane,
// one lane of a block, to the eight anchors, whose interleaved lines
// are anchor.
func anchorDistances(lane, anchor []uint64) [blockLanes]uint64 {
	return anchorDistancesPortable(lane, anchor)
}

// bindMajority is BindMajorityTo's word loop.
func bindMajority(dst []uint32, items, levels []Vector) {
	bindMajorityPortable(dst, items, levels)
}
