package hv

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// blockLanes is the number of rows a Slab block interleaves: one
// 512-bit vector of uint64 partial distances.
const blockLanes = 8

// stepWords is the number of uint64 row words one scan step scores
// per row: 512 bits.
const stepWords = 8

// unreached starts the running best of a scan and every missing lane
// of a slab's last block. It is above any distance, and a missing lane
// (all zero words) adds at most the query's dimension to it, far below
// overflow.
const unreached = 1 << 62

// Slab is an immutable table of d-dimensional binary rows laid out for
// the associative memory's nearest-row scan: the prototype matrix of
// DAC'18 §3, which the paper's AM kernel searches by XOR and popcount.
//
// Rows are grouped into blocks of eight, word-interleaved: uint64 word
// w (packed words 2w and 2w+1) of rows 8g…8g+7 is one 64-byte line of
// block g. One query word broadcast, XORed with the line and
// popcounted scores eight rows at once, and the eight partial
// distances sit in one vector with no horizontal sum. Every row is
// padded with zero words to whole 512-bit steps, so a 10,000-D row
// (313 packed words) takes 160 uint64. Lanes past the last row of the
// last block are zero.
//
// A slab of two or more blocks also keeps LAESA bounds (Micó, Oncina
// and Vidal, 1994), which let Nearest rule out a row, or a whole block,
// without reading it. The pivots are the anchors: a copy of block 0's
// eight rows, taken when the slab first held two blocks or was built,
// and shared by every slab derived from it. Each block ends in 64
// uint32 bounds, 256 bytes, so a 10,000-D block takes 10,496 bytes. In
// block g ≥ 1 they are D[a][r], the distance from anchor a to row r,
// anchor-major: D[a][0…7] are contiguous, and a lane past the slab's
// last row has D = 0. Block 0's first eight are the drift, the
// distance from anchor a to block 0's current row a; its others are
// zero. A one-block slab has no anchors, and its bounds stay zero.
//
// A Slab never changes after construction. With and WithBundle return
// a new Slab that copies one block and the block-pointer slice and
// shares every other block, so a copy-on-write publish costs one block
// at any row count, and any number of goroutines may search any Slab.
// Only the written row's bounds change: a write into block 0
// recomputes its drift, and a write into block g ≥ 1 its eight anchor
// distances; either is one pass of the row against the anchors.
type Slab struct {
	d      int
	n      int
	blocks [][]uint64
	anchor []uint64 // block 0's interleaved lines when it was anchored
}

// NewSlab returns a slab holding copies of rows, in order. It panics
// if d is not in [1, 2^31) or a row's dimension differs from d.
func NewSlab(d int, rows []Vector) *Slab {
	b := NewSlabBuilder(d)
	for _, v := range rows {
		b.s.checkRow("NewSlab", v)
		b.s.push(v.words)
	}
	return b.Build()
}

// SlabBuilder fills a new Slab one row at a time, allocating a block
// every eight rows, so a decoder never holds a row outside the slab
// longer than it takes to check it. Build hands the slab over; the
// builder must not be used after it.
type SlabBuilder struct{ s *Slab }

// NewSlabBuilder returns a builder for a slab of d-dimensional rows.
// It panics if d is not in [1, 2^31): Nearest compares its bounds as
// int32.
func NewSlabBuilder(d int) SlabBuilder {
	if d <= 0 || d > math.MaxInt32 {
		panic(fmt.Sprintf("hv: slab dimension must be in [1, 2^31), got %d", d))
	}
	return SlabBuilder{s: &Slab{d: d}}
}

// AddWords appends a row given as the WordsFor(d) packed words of
// Vector.Words. Like FromWords, it rejects a wrong word count or bits
// set above the dimension, and then the slab is unchanged.
func (b SlabBuilder) AddWords(words []uint32) error {
	s := b.s
	if len(words) != WordsFor(s.d) {
		return fmt.Errorf("hv: SlabBuilder.AddWords: %d words for %d-D, want %d", len(words), s.d, WordsFor(s.d))
	}
	if last := words[len(words)-1]; last&^(Vector{d: s.d}).tailMask() != 0 {
		return fmt.Errorf("hv: SlabBuilder.AddWords: bits set above dimension %d in final word %08x", s.d, last)
	}
	s.push(words)
	return nil
}

// Build returns the slab of the rows added so far, anchored at its
// current block 0 when it holds two or more blocks.
func (b SlabBuilder) Build() *Slab {
	if len(b.s.blocks) > 1 {
		b.s.anchorBounds()
	}
	return b.s
}

// tailWords is the number of uint64 words that end every block and
// hold its 64 uint32 bounds, bound k in half k%2 of word k/2. Bound
// 8a+r of block g ≥ 1 is D[a][r]; bound a of block 0 is drift a.
const tailWords = blockLanes * blockLanes / 2

// push appends packed words ws as row n, starting a zero block when
// the last one is full.
func (s *Slab) push(ws []uint32) {
	if s.n%blockLanes == 0 {
		s.blocks = append(s.blocks, make([]uint64, s.blockLen()))
	}
	putRow(s.blocks[s.n/blockLanes][s.n%blockLanes:], ws)
	s.n++
}

// blockLen returns the uint64 words of one block: eight rows of
// WordsFor(d) packed words, padded to whole steps, and the bounds.
func (s *Slab) blockLen() int {
	steps := (WordsFor(s.d) + 2*stepWords - 1) / (2 * stepWords)
	return steps*stepWords*blockLanes + tailWords
}

// bound returns bound k of block blk.
func bound(blk []uint64, k int) uint64 {
	return blk[len(blk)-tailWords+k/2] >> (32 * (k % 2)) & (1<<32 - 1)
}

// setBound sets bound k of block blk to v, a distance, which is below
// 2^31 because NewSlabBuilder refuses larger dimensions.
func setBound(blk []uint64, k int, v uint64) {
	w, shift := &blk[len(blk)-tailWords+k/2], 32*(k%2)
	*w = *w&^((1<<32-1)<<shift) | v<<shift
}

func (s *Slab) checkRow(op string, v Vector) {
	if v.d != s.d {
		panic(fmt.Sprintf("hv: %s: dimension mismatch %d != %d", op, v.d, s.d))
	}
}

// putRow stores packed words ws as one lane of a block: uint64 word w
// goes to lane[w*blockLanes].
func putRow(lane []uint64, ws []uint32) {
	for w := 0; 2*w < len(ws); w++ {
		x := uint64(ws[2*w])
		if 2*w+1 < len(ws) {
			x |= uint64(ws[2*w+1]) << 32
		}
		lane[w*blockLanes] = x
	}
}

// Dim returns the row dimensionality.
func (s *Slab) Dim() int { return s.d }

// Len returns the number of rows.
func (s *Slab) Len() int { return s.n }

// Row returns a copy of row i.
func (s *Slab) Row(i int) Vector {
	v := New(s.d)
	s.RowTo(v, i)
	return v
}

// RowTo is Row without the allocation: it copies row i into dst, which
// must have the slab's dimensionality.
func (s *Slab) RowTo(dst Vector, i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("hv: Slab.Row: row %d out of range [0,%d)", i, s.n))
	}
	s.checkRow("Slab.RowTo", dst)
	lane := s.blocks[i/blockLanes][i%blockLanes:]
	for w := range dst.words {
		dst.words[w] = uint32(lane[w/2*blockLanes] >> (32 * uint(w%2)))
	}
}

// With returns a slab whose row i is a copy of v and whose other rows
// are s's; i == Len() appends. s is unchanged.
func (s *Slab) With(i int, v Vector) *Slab {
	s.checkRow("Slab.With", v)
	next, lane := s.cow(i)
	putRow(lane, v.words)
	next.rebound(i)
	return next
}

// WithBundle is With of b.Vector(rng) without the intermediate vector:
// the thresholded prototype is written straight into the copied block,
// drawing ties from rng exactly as Bundler.Vector does.
func (s *Slab) WithBundle(i int, b *Bundler, rng *rand.Rand) *Slab {
	if b.d != s.d {
		panic(fmt.Sprintf("hv: Slab.WithBundle: dimension mismatch %d != %d", b.d, s.d))
	}
	t := b.threshold()
	next, lane := s.cow(i)
	var colbuf [64]uint64
	col := colbuf[:len(b.planes)]
	for j := 0; j < b.nw64; j++ {
		lane[j*blockLanes] = b.word(j, col, t, rng)
	}
	next.rebound(i)
	return next
}

// cow returns a copy of s with row i's block replaced by a private
// copy (a fresh zero block when i appends a block), and row i's lane
// of that copy. It panics unless 0 ≤ i ≤ Len().
func (s *Slab) cow(i int) (*Slab, []uint64) {
	if i < 0 || i > s.n {
		panic(fmt.Sprintf("hv: Slab.With: row %d out of range [0,%d]", i, s.n))
	}
	next := &Slab{d: s.d, n: max(s.n, i+1), anchor: s.anchor}
	g := i / blockLanes
	next.blocks = make([][]uint64, max(len(s.blocks), g+1))
	copy(next.blocks, s.blocks)
	var blk []uint64
	if g < len(s.blocks) {
		blk = append(blk, s.blocks[g]...) // no zeroing before the copy
	} else {
		blk = make([]uint64, s.blockLen())
	}
	next.blocks[g] = blk
	return next, blk[i%blockLanes:]
}

// rebound brings the bounds of s up to date after a write into row i
// of a copy made by cow, which holds row i's block alone. A slab that
// has just reached two blocks is anchored; otherwise row i's bounds
// are recomputed.
func (s *Slab) rebound(i int) {
	switch {
	case len(s.blocks) < 2:
	case s.anchor == nil:
		s.anchorBounds()
	default:
		s.rowBounds(i)
	}
}

// anchorBounds makes a copy of block 0's rows the anchors of s and
// computes the bounds of every later row. Block 0's drift bounds are
// zero already: its rows have never been written since they were
// added, and it may be shared with a one-block slab.
func (s *Slab) anchorBounds() {
	blk := s.blocks[0]
	s.anchor = append([]uint64(nil), blk[:len(blk)-tailWords]...)
	for i := blockLanes; i < s.n; i++ {
		s.rowBounds(i)
	}
}

// rowBounds sets the bounds of row i from one pass of the row against
// the anchors: its drift when it is in block 0, and otherwise its
// eight anchor distances D[a][r].
func (s *Slab) rowBounds(i int) {
	blk, r := s.blocks[i/blockLanes], i%blockLanes
	dist := anchorDistances(blk[r:], s.anchor)
	if i < blockLanes {
		setBound(blk, r, dist[r])
		return
	}
	for a, x := range dist {
		setBound(blk, a*blockLanes+r, x)
	}
}

// Nearest returns the index of the row closest to q in Hamming
// distance, and that distance. Ties keep the lowest index. It panics
// if the slab is empty or q's dimension differs. It allocates nothing.
//
// The scan visits the blocks in order and drops a block after any
// 512-bit step at which all eight partial distances have reached the
// best distance so far: the full distances can only be larger or
// equal, and an equal one loses the tie to the earlier index. A block
// that scores all its words holds exact distances, and its lanes are
// taken in index order, replacing the best only when strictly smaller.
//
// Block 0 is always scored in full, so its eight distances d0 are
// exact. In a slab of two or more blocks, d(q, anchor a) then lies in
// [d0[a] − drift[a], d0[a] + drift[a]], by the triangle inequality
// through block 0's row a, and so every row r of block g ≥ 1 has
//
//	d(q,r) ≥ LB[r] = max over a of max(D[a][r] − (d0[a] + drift[a]),
//	                                   (d0[a] − drift[a]) − D[a][r]).
//
// Before reading block g, the scan rules out every row with LB[r] at
// least the best: it cannot be nearer, and a tie loses to the earlier
// index the best already holds. It skips the block unread when no row
// is left, and otherwise leaves the ruled-out rows out of the drops
// and the walk, as if they were already past the best. The interval is
// first clamped to [0, 2^31 − 1], which every distance lies in, so the
// bound fits int32.
//
// The answer is the one an exhaustive scan gives. The host's kernel
// runs the scan (see hamming_amd64.go): an AVX-512 VPOPCNTDQ loop that
// scores a block's eight rows per instruction, or nearestPortable.
func (s *Slab) Nearest(q Vector) (index, distance int) {
	if s.n == 0 {
		panic("hv: Slab.Nearest on an empty slab")
	}
	s.checkRow("Slab.Nearest", q)
	return nearest(q.words, s.blocks, s.n-(len(s.blocks)-1)*blockLanes)
}

// Distances writes the Hamming distance from q to every row, in row
// order, into dst, grown only when its capacity is short, and returns
// it.
func (s *Slab) Distances(dst []int, q Vector) []int {
	s.checkRow("Slab.Distances", q)
	if cap(dst) < s.n {
		dst = make([]int, s.n)
	}
	dst = dst[:s.n]
	for i := range dst {
		dst[i] = laneDistance(q.words, s.blocks[i/blockLanes][i%blockLanes:])
	}
	return dst
}

// laneDistance returns the Hamming distance from packed words q to the
// row that starts lane, one lane of a block.
func laneDistance(q []uint32, lane []uint64) int {
	full := len(q) / 2
	d := 0
	if q64, ok := words64(q); ok {
		for w, x := range q64 {
			d += bits.OnesCount64(x ^ lane[w*blockLanes])
		}
	} else {
		for w := 0; w < full; w++ {
			d += bits.OnesCount64(pair64(q[2*w], q[2*w+1]) ^ lane[w*blockLanes])
		}
	}
	if len(q)%2 == 1 {
		d += bits.OnesCount64(uint64(q[len(q)-1]) ^ lane[full*blockLanes])
	}
	return d
}

// nearestPortable is Slab.Nearest's scan in Go, the only kernel off
// amd64 and the fallback on amd64 hosts without VPOPCNTDQ. q holds the
// query's packed words, blocks the slab's blocks, and lanes the rows
// of the last block (1–8). It scores the same words as the vector
// kernel, skips the same blocks and returns the same answer. A row the
// anchors rule out starts at unreached, like a missing lane, so it
// never keeps a block alive and never wins.
//
// Whole steps go through blockStep, which reads the step's 512
// contiguous block bytes in order; the words after them, and a query
// not 8-byte aligned, take a word-pair loop. Dropping whole blocks
// scores more words than dropping each row on its own would, but on
// the wide-am rows it ran faster than a row-at-a-time scan down the
// interleaved lanes: the reads stay sequential, and the block has one
// unpredictable exit where each row has its own.
func nearestPortable(q []uint32, blocks [][]uint64, lanes int) (index, distance int) {
	full := len(q) / 2 // query uint64 words with both halves inside q
	q64, ok := words64(q)
	steps := full / stepWords
	if !ok {
		steps = 0
	}
	best := uint64(unreached)
	index = -1
	var hi, lo [blockLanes]int64 // block 0's distances plus and minus drift
	for g, blk := range blocks {
		var acc [blockLanes]uint64
		if g > 0 && !ruleOut(&acc, blk, &hi, &lo, best) {
			continue
		}
		if g == len(blocks)-1 {
			for l := lanes; l < blockLanes; l++ {
				acc[l] = unreached
			}
		}
		alive := true
		for s := 0; alive && s < steps; s++ {
			blockStep(&acc, q64[s*stepWords:], blk[s*stepWords*blockLanes:])
			alive = anyBelow(&acc, best)
		}
		if w := steps * stepWords; alive && w < full {
			for ; w < full; w++ {
				x := pair64(q[2*w], q[2*w+1])
				for l := range acc {
					acc[l] += uint64(bits.OnesCount64(x ^ blk[w*blockLanes+l]))
				}
			}
			alive = anyBelow(&acc, best)
		}
		if !alive {
			continue
		}
		if len(q)%2 == 1 {
			x := uint64(q[len(q)-1])
			for l := range acc {
				acc[l] += uint64(bits.OnesCount64(x ^ blk[full*blockLanes+l]))
			}
		}
		for l, a := range acc {
			if a < best {
				best, index = a, g*blockLanes+l
			}
		}
		if g == 0 && len(blocks) > 1 {
			for a, x := range acc {
				drift := bound(blk, a)
				hi[a] = int64(min(x+drift, math.MaxInt32))
				lo[a] = int64(max(x, drift) - drift)
			}
		}
	}
	return index, int(best)
}

// ruleOut starts at unreached the accumulator of every row of block
// blk whose anchor bound is at least best, given block 0's distances
// plus drift (hi) and minus drift (lo), and reports whether a row is
// left. A row is left when lo[a] − best < D[a][r] < hi[a] + best for
// every anchor a. Both tests run on the two bounds of a word at once,
// as subtractions from which bit 31 of each half says whether the
// half borrowed: every bound is below 2^31. The loop stops at the
// first anchor that leaves no row.
func ruleOut(acc *[blockLanes]uint64, blk []uint64, hi, lo *[blockLanes]int64, best uint64) bool {
	const sign, ones = 1<<63 | 1<<31, 1<<32 | 1
	tail := (*[tailWords]uint64)(blk[len(blk)-tailWords:])
	left := [blockLanes / 2]uint64{sign, sign, sign, sign}
	for a := range hi {
		least := uint64(max(lo[a]-int64(best)+1, 0))
		most := uint64(min(hi[a]+int64(best)-1, math.MaxInt32))
		if hi[a]+int64(best)-1 < int64(least) {
			return false
		}
		for k, w := range tail[a*blockLanes/2 : (a+1)*blockLanes/2] {
			left[k] &= (w | sign - least*ones) & (most*ones | sign - w)
		}
		if left[0]|left[1]|left[2]|left[3] == 0 {
			return false
		}
	}
	kept := false
	for k, x := range left {
		for h := range 2 {
			if x>>(32*h+31)&1 == 0 {
				acc[2*k+h] = unreached
			} else {
				kept = true
			}
		}
	}
	return kept
}

// anchorDistancesPortable is anchorDistances in Go: one pass of the
// row starting lane, one lane of a block, against the anchors' lines.
// Both are zero past the row's last bit, so the padding adds nothing.
func anchorDistancesPortable(lane, anchor []uint64) (dist [blockLanes]uint64) {
	for w := 0; w*blockLanes < len(anchor); w++ {
		x, line := lane[w*blockLanes], anchor[w*blockLanes:w*blockLanes+blockLanes]
		for a := range dist {
			dist[a] += uint64(bits.OnesCount64(x ^ line[a]))
		}
	}
	return dist
}

// blockStep adds to the eight partial distances in acc one 512-bit
// step: query words y[0:8] against the step's lines x[0:64].
func blockStep(acc *[blockLanes]uint64, y, x []uint64) {
	y = y[:stepWords:stepWords]
	x = x[: stepWords*blockLanes : stepWords*blockLanes]
	for l := range acc {
		acc[l] += uint64(bits.OnesCount64(y[0]^x[l]) + bits.OnesCount64(y[1]^x[8+l]) +
			bits.OnesCount64(y[2]^x[16+l]) + bits.OnesCount64(y[3]^x[24+l]) +
			bits.OnesCount64(y[4]^x[32+l]) + bits.OnesCount64(y[5]^x[40+l]) +
			bits.OnesCount64(y[6]^x[48+l]) + bits.OnesCount64(y[7]^x[56+l]))
	}
}

// anyBelow reports whether any of the eight partial distances is below
// bound.
func anyBelow(acc *[blockLanes]uint64, bound uint64) bool {
	return acc[0] < bound || acc[1] < bound || acc[2] < bound || acc[3] < bound ||
		acc[4] < bound || acc[5] < bound || acc[6] < bound || acc[7] < bound
}
