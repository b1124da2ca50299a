//go:build !amd64

package hv

// useVPOPCNTDQ is always false off amd64, where hammingPortable is the
// only kernel; the kernel tests read it to skip their vector half.
var useVPOPCNTDQ bool

// hammingWithin returns the number of differing bits between a and
// the first len(a) words of b. It is exact when that distance is below
// bound; otherwise it may stop early and return any value ≥ bound.
func hammingWithin(a, b []uint32, bound int) int {
	return hammingPortable(a, b, bound)
}
