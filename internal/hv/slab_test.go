package hv

import (
	"math/rand"
	"testing"
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
