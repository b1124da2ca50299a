package hv

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// Micro-benchmarks for the word64 fast-path kernels at the paper's
// 10,000-D operating point (313 packed words). These are the targets
// the bench-regression harness (scripts/bench.sh) locks in.

func benchVecs(n int) []Vector {
	rng := rand.New(rand.NewSource(1))
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = NewRandom(10000, rng)
	}
	return vs
}

func BenchmarkXor(b *testing.B) {
	vs := benchVecs(2)
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XorTo(dst, vs[0], vs[1])
	}
}

func BenchmarkHamming(b *testing.B) {
	vs := benchVecs(2)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Hamming(vs[0], vs[1])
	}
	_ = sink
}

// BenchmarkHammingPortable is BenchmarkHamming with the pure-Go kernel
// forced, so the vector kernel's speed-up reads as a same-run ratio.
// On a host without AVX-512 VPOPCNTDQ both measure the same loop.
func BenchmarkHammingPortable(b *testing.B) {
	host := useVPOPCNTDQ
	useVPOPCNTDQ = false
	defer func() { useVPOPCNTDQ = host }()
	BenchmarkHamming(b)
}

// wideAM returns the rows and query of the nearest-row rungs: 1,029
// rows at 10,000-D, the wide-am workload's class count. The query's
// own class is row 2, at 250–290 bits, and every other row is at
// 1,100–2,000 bits. The distances are synthetic: on hdbench's test
// windows (seeds 1–5) 24–31 % of wide-am predicts are won in block 0,
// and the rest by a distractor a median 278–337 bits from the query,
// at most 726.
func wideAM() (rows []Vector, q Vector) {
	rng := rand.New(rand.NewSource(1))
	q = NewRandom(10000, rng)
	rows = make([]Vector, 1029)
	for i := range rows {
		flips := 1100 + rng.Intn(901)
		if i == 2 {
			flips = 250 + rng.Intn(41)
		}
		rows[i] = q.Clone().FlipBits(flips, rng)
	}
	return rows, q
}

// BenchmarkNearest is one associative-memory scan on the host's
// kernel over wideAM's rows: the AM search of a wide-am predict. In
// first-block the answer is row 2, so block 0's rows, the slab's
// anchors, rule out every row of every later block: the rung times
// block 0's scan plus the row test of the 128 blocks it skips. In
// later-block the answer is swapped to the last row: no anchor is
// near the query, so the bounds rule out almost nothing and the rung
// times the scan plus its row tests. one-block is the first five
// rows, the paper's class count: one block, which never runs the row
// test or its set-up. None of these is wide-am's geometry (hdc's
// BenchmarkServingPredictWide is).
func BenchmarkNearest(b *testing.B) {
	rows, q := wideAM()
	for _, bc := range []struct {
		name   string
		n      int
		answer int
	}{{"first-block", len(rows), 2}, {"later-block", len(rows), len(rows) - 1}, {"one-block", 5, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			rows := slices.Clone(rows)
			rows[2], rows[bc.answer] = rows[bc.answer], rows[2]
			s := NewSlab(10000, rows[:bc.n])
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				idx, _ := s.Nearest(q)
				sink += idx
			}
			_ = sink
		})
	}
}

// BenchmarkNewSlab builds a slab of wideAM's 1,029 rows, as a snapshot
// load or fault-in of a wide-am model does: one pass of every later
// row against the anchors, on the host's kernel.
func BenchmarkNewSlab(b *testing.B) {
	rows, _ := wideAM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSlab(10000, rows)
	}
}

// BenchmarkNearestPortable is BenchmarkNearest with the Go loop
// forced, the scan every host without AVX-512 VPOPCNTDQ runs.
func BenchmarkNearestPortable(b *testing.B) {
	host := useVPOPCNTDQ
	useVPOPCNTDQ = false
	defer func() { useVPOPCNTDQ = host }()
	BenchmarkNearest(b)
}

func BenchmarkCountOnes(b *testing.B) {
	vs := benchVecs(1)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += vs[0].CountOnes()
	}
	_ = sink
}

func BenchmarkMajority(b *testing.B) {
	vs := benchVecs(5)
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MajorityTo(dst, vs)
	}
}

// BenchmarkBindMajority is the stored spatial encode's kernel at the
// EMG operating point on the host's kernel: four channels, each IM row
// bound to one of 22 CIM rows, and the §5.1 tie word, at 10,000-D.
func BenchmarkBindMajority(b *testing.B) {
	vs := benchVecs(4 + 22)
	items := vs[:4]
	levels := []Vector{vs[4+3], vs[4+17], vs[4+3], vs[4+9]}
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BindMajorityTo(dst, items, levels)
	}
}

// BenchmarkBindMajorityPortable is BenchmarkBindMajority with the Go
// loop forced, so the AVX-512 kernel's gain reads as a same-run ratio.
// On a host without AVX-512 VPOPCNTDQ both measure the same loop.
func BenchmarkBindMajorityPortable(b *testing.B) {
	host := useVPOPCNTDQ
	useVPOPCNTDQ = false
	defer func() { useVPOPCNTDQ = host }()
	BenchmarkBindMajority(b)
}

func BenchmarkBundlerAdd(b *testing.B) {
	vs := benchVecs(1)
	bd := NewBundler(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.Add(vs[0])
	}
}

// --- pre-fast-path reference loops, kept so the speedup of the word64
// kernels is measured inside one benchmark run (machine-state
// independent); the fast paths must stay ≥2× below these on 10,000-D.

func hammingRef(a, b Vector) int {
	checkSameDim("Hamming", a, b)
	n := 0
	for i := range a.words {
		n += bits.OnesCount32(a.words[i] ^ b.words[i])
	}
	return n
}

func BenchmarkHammingRef(b *testing.B) {
	vs := benchVecs(2)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += hammingRef(vs[0], vs[1])
	}
	_ = sink
}

func majorityRef(dst Vector, set []Vector) {
	n := len(set)
	threshold := n / 2
	nplanes := bits.Len(uint(n))
	planes := make([]uint32, nplanes)
	for j := range dst.words {
		for b := range planes {
			planes[b] = 0
		}
		for _, v := range set {
			carry := v.words[j]
			for b := 0; b < nplanes && carry != 0; b++ {
				planes[b], carry = planes[b]^carry, planes[b]&carry
			}
		}
		var gt uint32
		eq := ^uint32(0)
		for b := nplanes - 1; b >= 0; b-- {
			tb := uint32(0)
			if uint32(threshold)&(1<<uint(b)) != 0 {
				tb = ^uint32(0)
			}
			gt |= eq & planes[b] &^ tb
			eq &= ^(planes[b] ^ tb)
		}
		dst.words[j] = gt
	}
	dst.maskTail()
}

func BenchmarkMajorityRef(b *testing.B) {
	vs := benchVecs(5)
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		majorityRef(dst, vs)
	}
}

func bundlerAddRef(counts []int32, v Vector) {
	for i := 0; i < v.d; i += WordBits {
		w := v.words[i/WordBits]
		end := i + WordBits
		if end > v.d {
			end = v.d
		}
		for j := i; j < end; j++ {
			counts[j] += int32(w & 1)
			w >>= 1
		}
	}
}

func BenchmarkBundlerAddRef(b *testing.B) {
	vs := benchVecs(1)
	counts := make([]int32, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bundlerAddRef(counts, vs[0])
	}
}

func BenchmarkBundlerVectorTo(b *testing.B) {
	vs := benchVecs(7)
	bd := NewBundler(10000)
	for _, v := range vs {
		bd.Add(v)
	}
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.VectorTo(dst, nil)
	}
}
