package hv

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"pulphd/internal/hdref"
)

// TestSlabWithLeavesOldRows pins copy-on-write: With, WithBundle and
// an append return slabs with the new row, while the slab they came
// from keeps every row and every answer. It fails if a write reaches a
// block the old slab shares.
func TestSlabWithLeavesOldRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d, n = 1000, 20
	rows := make([]Vector, n)
	for i := range rows {
		rows[i] = NewRandom(d, rng)
	}
	old := NewSlab(d, rows)
	queries := make([]Vector, 0, n)
	var answers [][2]int
	for _, r := range rows {
		q := r.Clone().FlipBits(20, rng)
		i, dist := old.Nearest(q)
		queries = append(queries, q)
		answers = append(answers, [2]int{i, dist})
	}
	b := NewBundler(d)
	for k := 0; k < 4; k++ {
		b.Add(NewRandom(d, rng))
	}
	v := NewRandom(d, rng)
	for name, tc := range map[string]struct {
		next *Slab
		i    int
		want Vector
	}{
		"With":       {old.With(3, v), 3, v},
		"WithBundle": {old.WithBundle(17, b, rand.New(rand.NewSource(5))), 17, b.Vector(rand.New(rand.NewSource(5)))},
		"append":     {old.With(n, v), n, v},
	} {
		if got := tc.next.Row(tc.i); !Equal(got, tc.want) {
			t.Fatalf("%s: new slab row %d differs from the written row", name, tc.i)
		}
		if i, dist := tc.next.Nearest(tc.want); i != tc.i || dist != 0 {
			t.Fatalf("%s: new slab finds its own row %d at (%d,%d)", name, tc.i, i, dist)
		}
		for i, r := range rows {
			if !Equal(old.Row(i), r) {
				t.Fatalf("%s wrote row %d of the old slab", name, i)
			}
			if i != tc.i && !Equal(tc.next.Row(i), r) {
				t.Fatalf("%s: new slab row %d differs from the old one", name, i)
			}
		}
		if old.Len() != n {
			t.Fatalf("%s: old slab length %d, want %d", name, old.Len(), n)
		}
		for k, q := range queries {
			if i, dist := old.Nearest(q); [2]int{i, dist} != answers[k] {
				t.Fatalf("%s: old slab answers (%d,%d), was %v", name, i, dist, answers[k])
			}
		}
	}
}

// TestSlabDistancesAndRows checks Row round-trips every shape of row
// and Distances matches Hamming, at dimensions with odd and even word
// counts and a partial last block.
func TestSlabDistancesAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range []int{1, 33, 64, 1000, 10000} {
		rows := make([]Vector, 11)
		for i := range rows {
			rows[i] = NewRandom(d, rng)
		}
		s := NewSlab(d, rows)
		q := NewRandom(d, rng)
		dist := s.Distances(nil, q)
		for i, r := range rows {
			if !Equal(s.Row(i), r) {
				t.Fatalf("d=%d: Row(%d) differs from the stored row", d, i)
			}
			if want := Hamming(q, r); dist[i] != want {
				t.Fatalf("d=%d: Distances[%d]=%d, want %d", d, i, dist[i], want)
			}
		}
	}
}

// TestSlabNearestAllocationFree pins that a scan allocates nothing,
// on both kernels, above the 16,384-D a stack copy of the query would
// outgrow.
func TestSlabNearestAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 20000
	rows := make([]Vector, 9)
	for i := range rows {
		rows[i] = NewRandom(d, rng)
	}
	s := NewSlab(d, rows)
	q := rows[4].Clone().FlipBits(30, rng)
	forEachHammingKernel(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(100, func() { s.Nearest(q) }); allocs != 0 {
			t.Fatalf("Nearest allocates %.1f per scan", allocs)
		}
	})
}

// TestSlabBuilderMatchesNewSlab pins that a slab built row by row from
// packed words equals NewSlab over the same rows, and that AddWords
// rejects a wrong word count or bits above the dimension without
// adding a row.
func TestSlabBuilderMatchesNewSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, n = 1000, 11
	rows := make([]Vector, n)
	b := NewSlabBuilder(d)
	for i := range rows {
		rows[i] = NewRandom(d, rng)
		if err := b.AddWords(rows[i].Words()); err != nil {
			t.Fatal(err)
		}
	}
	bad := append([]uint32(nil), rows[0].Words()...)
	bad[len(bad)-1] |= 1 << 31 // 1000 = 31×32 + 8: bit 31 of word 31 is past the dimension
	for name, ws := range map[string][]uint32{"tail bits": bad, "short": bad[:len(bad)-1]} {
		if err := b.AddWords(ws); err == nil {
			t.Fatalf("AddWords accepted a row with %s", name)
		}
	}
	got, want := b.Build(), NewSlab(d, rows)
	if got.Len() != n {
		t.Fatalf("built slab has %d rows, want %d", got.Len(), n)
	}
	for i := range rows {
		if !Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("row %d differs from NewSlab's", i)
		}
	}
	q := NewRandom(d, rng)
	gi, gd := got.Nearest(q)
	if wi, wd := want.Nearest(q); gi != wi || gd != wd {
		t.Fatalf("built slab answers (%d,%d), NewSlab (%d,%d)", gi, gd, wi, wd)
	}
}

// tailBounds is the number of uint32 bounds that end every block.
const tailBounds = 2 * tailWords

// boundsOf returns the bounds of every block of s.
func boundsOf(s *Slab) [][tailBounds]uint64 {
	out := make([][tailBounds]uint64, len(s.blocks))
	for g, blk := range s.blocks {
		for k := range out[g] {
			out[g][k] = bound(blk, k)
		}
	}
	return out
}

// anchorRow returns anchor a of s.
func anchorRow(s *Slab, a int) Vector {
	return (&Slab{d: s.d, n: blockLanes, blocks: [][]uint64{s.anchor}}).Row(a)
}

// checkBounds fails unless s carries the LAESA bounds its rows define:
// no anchors and zero bounds in a one-block slab; otherwise anchors
// equal to want, block 0's bound a equal to the distance from anchor a
// to row a (its drift) and its other bounds zero, and block g's bound
// 8a+r equal to the distance from anchor a to row 8g+r, zero past the
// last row, all recomputed through Distances.
func checkBounds(t *testing.T, s *Slab, want []Vector) {
	t.Helper()
	if len(s.blocks) < 2 {
		if s.anchor != nil || len(s.blocks) == 1 && boundsOf(s)[0] != [tailBounds]uint64{} {
			t.Fatalf("one-block slab of %d rows carries bounds", s.n)
		}
		return
	}
	if s.anchor == nil {
		t.Fatalf("%d-block slab has no anchors", len(s.blocks))
	}
	recomputed := make([][tailBounds]uint64, len(s.blocks))
	for a := range blockLanes {
		anchor := anchorRow(s, a)
		if !Equal(anchor, want[a]) {
			t.Fatalf("anchor %d differs from block 0's row %d when the slab first held two blocks", a, a)
		}
		dist := s.Distances(nil, anchor)
		recomputed[0][a] = uint64(dist[a])
		for i := blockLanes; i < s.n; i++ {
			recomputed[i/blockLanes][a*blockLanes+i%blockLanes] = uint64(dist[i])
		}
	}
	for g, b := range boundsOf(s) {
		if b != recomputed[g] {
			t.Fatalf("bounds of block %d are %v, recomputed %v", g, b, recomputed[g])
		}
	}
}

// ruleBounds returns, for every row i of a later block of s, the two
// sides of the anchors' bound on its distance to q, read from the
// stored bounds: upper[i] is the largest D[a][r] − (d0[a] + drift[a])
// and lower[i] the largest (d0[a] − drift[a]) − D[a][r], d0 being q's
// distances to block 0's rows. Rows of block 0 get math.MinInt.
func ruleBounds(s *Slab, q Vector) (upper, lower []int) {
	upper, lower = make([]int, s.n), make([]int, s.n)
	for i := range upper {
		upper[i], lower[i] = math.MinInt, math.MinInt
	}
	if len(s.blocks) < 2 {
		return upper, lower
	}
	d0 := s.Distances(nil, q)[:blockLanes]
	for i := blockLanes; i < s.n; i++ {
		blk, r := s.blocks[i/blockLanes], i%blockLanes
		for a, x := range d0 {
			d, drift := int(bound(blk, a*blockLanes+r)), int(bound(s.blocks[0], a))
			upper[i] = max(upper[i], d-(x+drift))
			lower[i] = max(lower[i], (x-drift)-d)
		}
	}
	return upper, lower
}

// checkSkips fails unless Nearest leaves unread every row its bounds
// rule out. A row of block g ≥ 1 is ruled out when either side of its
// bound (ruleBounds) is at least the exhaustive best of the blocks
// before g, the best the scan holds when it reaches g. A copy of s
// with a copy of q written into every such row, bounds unchanged, must
// answer as an exhaustive scan of s does: a scan that read one of them
// would find q there (unless the best is 0 already).
func checkSkips(t *testing.T, s *Slab, q Vector) {
	t.Helper()
	if len(s.blocks) < 2 {
		return
	}
	dist := s.Distances(nil, q)
	upper, lower := ruleBounds(s, q)
	planted := &Slab{d: s.d, n: s.n, blocks: slices.Clone(s.blocks), anchor: s.anchor}
	best := slices.Min(dist[:blockLanes])
	for g := 1; g < len(s.blocks); g++ {
		rows := dist[g*blockLanes : min((g+1)*blockLanes, s.n)]
		for r := range rows {
			if i := g*blockLanes + r; max(upper[i], lower[i]) >= best {
				if &planted.blocks[g][0] == &s.blocks[g][0] {
					planted.blocks[g] = slices.Clone(s.blocks[g])
				}
				putRow(planted.blocks[g][r:], q.words)
			}
		}
		best = min(best, slices.Min(rows))
	}
	want := exhaustiveNearest(s, q)
	if i, dist := planted.Nearest(q); [2]int{i, dist} != want {
		t.Fatalf("Nearest read a row its bounds rule out: (%d,%d) with q planted in every such row, exhaustive %v", i, dist, want)
	}
}

// exhaustiveNearest is the argmin of Distances, ties to the lowest
// index.
func exhaustiveNearest(s *Slab, q Vector) [2]int {
	dist := s.Distances(nil, q)
	best := 0
	for i, x := range dist {
		if x < dist[best] {
			best = i
		}
	}
	return [2]int{best, dist[best]}
}

// TestSlabBoundsExact pins the bounds to their definition (checkBounds)
// on slabs from NewSlab, from SlabBuilder.Build, and from random
// sequences of With, WithBundle and appends into block 0 and later
// blocks, starting empty, at one block and at three. Rows sit within
// d/8 bits of one another, so the bounds rule rows and blocks out, and
// Nearest must answer queries near each block-0 row, near a later row
// and at random as an exhaustive argmin does, without reading a row
// the bounds rule out (checkSkips). Every older slab must keep its
// bounds and its answers after the newer ones were written.
func TestSlabBoundsExact(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		for _, d := range []int{1000, 10000} {
			rng := rand.New(rand.NewSource(int64(d)))
			base := NewRandom(d, rng)
			nearBase := func() Vector { return base.Clone().FlipBits(1+rng.Intn(d/16), rng) }
			rows := make([]Vector, 20)
			b := NewSlabBuilder(d)
			for i := range rows {
				rows[i] = nearBase()
				if err := b.AddWords(rows[i].Words()); err != nil {
					t.Fatal(err)
				}
			}
			starts := []struct {
				name string
				s    *Slab
				rows []Vector
			}{
				{"NewSlab", NewSlab(d, rows), rows},
				{"Build", b.Build(), rows},
				{"empty", NewSlab(d, nil), nil},
				{"one block", NewSlab(d, rows[:6]), rows[:6]},
			}
			for _, st := range starts {
				t.Run(st.name+"/d="+strconv.Itoa(d), func(t *testing.T) {
					model := slices.Clone(st.rows)
					var anchor []Vector
					if len(model) > blockLanes {
						anchor = slices.Clone(model[:blockLanes])
					}
					type kept struct {
						s       *Slab
						bounds  [][tailBounds]uint64
						queries []Vector
						answers [][2]int
					}
					var history []kept
					s := st.s
					for step := 0; step < 48; step++ {
						checkBounds(t, s, anchor)
						k := kept{s: s, bounds: boundsOf(s)}
						if s.Len() > 0 {
							for l := 0; l < min(blockLanes, s.Len()); l++ {
								k.queries = append(k.queries, s.Row(l).FlipBits(rng.Intn(40), rng))
							}
							k.queries = append(k.queries, s.Row(rng.Intn(s.Len())).FlipBits(rng.Intn(40), rng), NewRandom(d, rng))
							for _, q := range k.queries {
								ans := exhaustiveNearest(s, q)
								if i, dist := s.Nearest(q); [2]int{i, dist} != ans {
									t.Fatalf("step %d: Nearest=(%d,%d), exhaustive %v", step, i, dist, ans)
								}
								checkSkips(t, s, q)
								k.answers = append(k.answers, ans)
							}
						}
						history = append(history, k)

						// The next write: into block 0, into a later
						// block, or an append.
						i := len(model)
						switch r := rng.Intn(3); {
						case r == 0 && len(model) > 0:
							i = rng.Intn(min(blockLanes, len(model)))
						case r == 1 && len(model) > blockLanes:
							i = blockLanes + rng.Intn(len(model)-blockLanes)
						}
						var v Vector
						if rng.Intn(2) == 0 {
							v = nearBase()
							s = s.With(i, v)
						} else {
							bd := NewBundler(d)
							for n := 1 + rng.Intn(3); n > 0; n-- {
								bd.Add(nearBase())
							}
							seed := rng.Int63()
							v = bd.Vector(rand.New(rand.NewSource(seed)))
							s = s.WithBundle(i, bd, rand.New(rand.NewSource(seed)))
						}
						if i == len(model) {
							model = append(model, v)
						} else {
							model[i] = v
						}
						if anchor == nil && len(model) > blockLanes {
							anchor = slices.Clone(model[:blockLanes])
						}
					}
					for step, k := range history {
						if !slices.Equal(boundsOf(k.s), k.bounds) {
							t.Fatalf("slab of step %d: bounds changed by a later write", step)
						}
						for j, q := range k.queries {
							if i, dist := k.s.Nearest(q); [2]int{i, dist} != k.answers[j] {
								t.Fatalf("slab of step %d: Nearest=(%d,%d), was %v", step, i, dist, k.answers[j])
							}
						}
					}
				})
			}
		}
	})
}

// TestNearestSkipsExcludedBlocks fails if the scan reads a block its
// bounds rule out. The query is row 2 with 5 bits flipped, and block 2
// holds random rows, ≈ d/2 from every anchor, so each row's bound
// through anchor 2 is ≈ d/2 − 5. A copy of the query is then written
// straight into block 2 without updating its bounds: an exhaustive
// scan answers the copy at 0 bits, but Nearest, which must skip block
// 2 unread, answers row 2 at 5.
func TestNearestSkipsExcludedBlocks(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		const d = 10000
		rows := make([]Vector, 24)
		for i := range rows {
			rows[i] = NewRandom(d, rng)
		}
		s := NewSlab(d, rows)
		q := rows[2].Clone().FlipBits(5, rng)
		if i, dist := s.Nearest(q); i != 2 || dist != 5 {
			t.Fatalf("Nearest=(%d,%d) before the plant, want (2,5)", i, dist)
		}
		upper, lower := ruleBounds(s, q)
		for i := 16; i < 24; i++ {
			if max(upper[i], lower[i]) < 5 {
				t.Fatalf("row %d's bound %d does not rule it out", i, max(upper[i], lower[i]))
			}
		}
		putRow(s.blocks[2][4:], q.words)
		if got := exhaustiveNearest(s, q); got != [2]int{20, 0} {
			t.Fatalf("planted copy: exhaustive answer %v, want [20 0]", got)
		}
		if i, dist := s.Nearest(q); i != 2 || dist != 5 {
			t.Fatalf("Nearest=(%d,%d): the scan read block 2, which its bounds rule out", i, dist)
		}
	})
}

// TestNearestMasksRuledOutRows fails if the scan scores a row its
// bounds rule out in a block it reads. The query is row 2 with 5 bits
// flipped. Row 17 is 6 bits from the query, 3 of row 2's flips and 3
// more, so its bound stays below 5 and keeps block 2 alive; row 20 is
// random, ruled out through anchor 2. A copy of the query is then
// written straight into row 20 without updating its bounds: Nearest
// must still answer row 2 at 5, where a scan that left row 20 in its
// compares answers the copy at 0.
func TestNearestMasksRuledOutRows(t *testing.T) {
	forEachHammingKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		const d = 10000
		rows := make([]Vector, 24)
		for i := range rows {
			rows[i] = NewRandom(d, rng)
		}
		perm := rng.Perm(d)
		q := rows[2].Clone().FlipPositions(perm[:5])
		rows[17] = rows[2].Clone().FlipPositions(perm[2:11])
		s := NewSlab(d, rows)
		upper, lower := ruleBounds(s, q)
		if lb := max(upper[17], lower[17]); lb >= 5 {
			t.Fatalf("row 17's bound %d rules it out", lb)
		}
		if lb := max(upper[20], lower[20]); lb < 5 {
			t.Fatalf("row 20's bound %d leaves it alive", lb)
		}
		if got := exhaustiveNearest(s, q); got != [2]int{2, 5} {
			t.Fatalf("exhaustive answer %v before the plant, want [2 5]", got)
		}
		putRow(s.blocks[2][4:], q.words)
		if got := exhaustiveNearest(s, q); got != [2]int{20, 0} {
			t.Fatalf("planted copy: exhaustive answer %v, want [20 0]", got)
		}
		if i, dist := s.Nearest(q); i != 2 || dist != 5 {
			t.Fatalf("Nearest=(%d,%d): the scan scored row 20, which its bounds rule out", i, dist)
		}
	})
}

// TestNearestSkipBoundary places a later row, row 17, where one side
// of its bound is tight, so the bound equals its distance to the
// query, and checks Nearest on both kernels against hdref.RefAM and
// checkSkips. The row is delta bits from the best: one bit closer
// must be found, a tie and one bit farther lose to the best and must
// be left unread.
//
//   - Upper side: the query is k bits from row 3 (anchor 3, or after
//     drift a row m bits further from it), the best, and row 17 is
//     k+delta bits past the query, away from both, so D − (d0 + drift)
//     is tight.
//   - Lower side: the query is k bits from anchor 3, on the far side
//     of it from row 3 after drift, and row 17 lies between them, so
//     (d0 − drift) − D is tight. The best is row 5, rewritten to e bits
//     from the query, whose own anchor is far from it; the upper sides
//     leave row 17 alive.
//
// A skip at one below the best, or one that drops the drift, answers
// the best where row 17 is closer; a scan without the lower side reads
// row 17 where it must not. The last case ties a later row with its
// copy in block 0.
func TestNearestSkipBoundary(t *testing.T) {
	const d, k, m, e = 2000, 40, 30, 25
	for _, tc := range []struct {
		name  string
		lower bool
		delta int
		drift bool
		dup   bool
	}{
		{"later row one closer", false, -1, false, false},
		{"later row tied", false, 0, false, false},
		{"later row one farther", false, 1, false, false},
		{"later row one closer after drift", false, -1, true, false},
		{"later row tied after drift", false, 0, true, false},
		{"later row a copy of a block-0 row", false, 0, false, true},
		{"lower side one closer", true, -1, false, false},
		{"lower side tied", true, 0, false, false},
		{"lower side one farther", true, 1, false, false},
		{"lower side one closer after drift", true, -1, true, false},
		{"lower side tied after drift", true, 0, true, false},
		{"lower side one farther after drift", true, 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachHammingKernel(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				rows := make([]Vector, 24)
				for i := range rows {
					rows[i] = NewRandom(d, rng)
				}
				s := NewSlab(d, rows)
				perm := rng.Perm(d)
				anchor, r := rows[3], rows[3]
				if tc.drift {
					r = r.Clone().FlipPositions(perm[:m])
					s = s.With(3, r)
				}
				var q, c Vector
				best := 3
				if tc.lower {
					// The query is anchor 3 plus K, row 17 anchor 3 plus
					// the first k − e − delta bits of K, and row 5 the
					// query plus e other bits.
					K := perm[m : m+k]
					q = anchor.Clone().FlipPositions(K)
					c = anchor.Clone().FlipPositions(K[:k-e-tc.delta])
					s = s.With(5, q.Clone().FlipPositions(perm[m+k:m+k+e]))
					best = 5
				} else {
					q = r.Clone().FlipPositions(perm[m : m+k])
					c = q.Clone().FlipPositions(perm[m+k : m+2*k+tc.delta])
				}
				if tc.dup {
					c = r
				}
				s = s.With(17, c)
				if upper, _ := ruleBounds(s, q); tc.lower && upper[17] >= s.Distances(nil, q)[best] {
					t.Fatalf("the upper sides rule row 17 out (%d)", upper[17])
				}
				ref := hdref.RefAM{}
				for i := 0; i < s.Len(); i++ {
					ref.Labels = append(ref.Labels, strconv.Itoa(i))
					ref.Prototypes = append(ref.Prototypes, s.Row(i).Bits())
				}
				wantLabel, wantDist := ref.Classify(q.Bits())
				if want := map[bool]string{true: "17", false: strconv.Itoa(best)}[tc.delta < 0]; wantLabel != want {
					t.Fatalf("reference answers row %s, the case means row %s", wantLabel, want)
				}
				if idx, dist := s.Nearest(q); strconv.Itoa(idx) != wantLabel || dist != wantDist {
					t.Fatalf("Nearest=(%d,%d), reference (%s,%d)", idx, dist, wantLabel, wantDist)
				}
				checkSkips(t, s, q)
			})
		})
	}
}
