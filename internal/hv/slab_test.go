package hv

import (
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

// boundsOf returns the bounds of every block of s.
func boundsOf(s *Slab) [][blockLanes]uint64 {
	out := make([][blockLanes]uint64, len(s.blocks))
	for g, blk := range s.blocks {
		for l := range out[g] {
			out[g][l] = bound(blk, l)
		}
	}
	return out
}

// checkBounds fails unless s carries the LAESA bounds its rows define:
// no anchors and zero bounds in a one-block slab; otherwise anchors
// equal to want, block 0's bound l equal to the distance from anchor l
// to row l (its drift), and block g's bound l equal to the distance
// from anchor l to block g's nearest row, all recomputed through
// Distances.
func checkBounds(t *testing.T, s *Slab, want []Vector) {
	t.Helper()
	if len(s.blocks) < 2 {
		if s.anchor != nil || len(s.blocks) == 1 && boundsOf(s)[0] != [blockLanes]uint64{} {
			t.Fatalf("one-block slab of %d rows carries bounds", s.n)
		}
		return
	}
	if s.anchor == nil {
		t.Fatalf("%d-block slab has no anchors", len(s.blocks))
	}
	for l, a := range s.anchor {
		if !Equal(a, want[l]) {
			t.Fatalf("anchor %d differs from block 0's row %d when the slab first held two blocks", l, l)
		}
		dist := s.Distances(nil, a)
		if got := bound(s.blocks[0], l); got != uint64(dist[l]) {
			t.Fatalf("drift of row %d is %d, recomputed %d", l, got, dist[l])
		}
		for g := 1; g < len(s.blocks); g++ {
			if got, want := bound(s.blocks[g], l), slices.Min(dist[g*blockLanes:min((g+1)*blockLanes, s.n)]); got != uint64(want) {
				t.Fatalf("bound of block %d from anchor %d is %d, recomputed %d", g, l, got, want)
			}
		}
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
// d/8 bits of one another, so the bounds rule blocks out, and
// Nearest must answer queries near each block-0 row, near a later row
// and at random as an exhaustive argmin does. Every older slab must
// keep its bounds and its answers after the newer ones were written.
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
						bounds  [][blockLanes]uint64
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
// holds random rows, ≈ d/2 from every anchor. A copy of the query is
// then written straight into block 2 without updating its bounds: an
// exhaustive scan answers the copy at 0 bits, but Nearest, which must
// skip block 2 unread, answers row 2 at 5.
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
		var floor [blockLanes]uint64
		for l, x := range s.Distances(nil, q)[:blockLanes] {
			floor[l] = uint64(x) + bound(s.blocks[0], l)
		}
		if !ruledOut(s.blocks[2], &floor, 5) {
			t.Fatalf("bounds %v do not rule block 2 out", boundsOf(s)[2])
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

// TestNearestSkipBoundary places a later row where the triangle
// inequality is tight, so its block's bound minus block 0's floor is
// exactly its distance to the query, and checks Nearest on both
// kernels against hdref.RefAM. The query is k bits from row 3 (anchor
// 3, or after drift a row m bits further from it), and the later row
// is k+delta bits past the query, away from both: one bit closer than
// the best must be found, a tie and one bit farther lose to row 3. A
// skip at one below the best, or one that drops the drift, answers row
// 3 where the later row is closer. The last case ties a later row
// with its copy in block 0.
func TestNearestSkipBoundary(t *testing.T) {
	const d, k, m = 2000, 40, 30
	for _, tc := range []struct {
		name  string
		delta int
		drift bool
		dup   bool
	}{
		{"later row one closer", -1, false, false},
		{"later row tied", 0, false, false},
		{"later row one farther", 1, false, false},
		{"later row one closer after drift", -1, true, false},
		{"later row tied after drift", 0, true, false},
		{"later row a copy of a block-0 row", 0, false, true},
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
				r := rows[3]
				if tc.drift {
					r = r.Clone().FlipPositions(perm[:m])
					s = s.With(3, r)
				}
				q := r.Clone().FlipPositions(perm[m : m+k])
				c := q.Clone().FlipPositions(perm[m+k : m+2*k+tc.delta])
				if tc.dup {
					c = r
				}
				s = s.With(17, c)
				ref := hdref.RefAM{}
				for i := 0; i < s.Len(); i++ {
					ref.Labels = append(ref.Labels, strconv.Itoa(i))
					ref.Prototypes = append(ref.Prototypes, s.Row(i).Bits())
				}
				wantLabel, wantDist := ref.Classify(q.Bits())
				if want := map[bool]string{true: "17", false: "3"}[tc.delta < 0]; wantLabel != want {
					t.Fatalf("reference answers row %s, the case means row %s", wantLabel, want)
				}
				if idx, dist := s.Nearest(q); strconv.Itoa(idx) != wantLabel || dist != wantDist {
					t.Fatalf("Nearest=(%d,%d), reference (%s,%d)", idx, dist, wantLabel, wantDist)
				}
			})
		})
	}
}
