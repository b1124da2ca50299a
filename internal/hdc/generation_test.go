package hdc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pulphd/internal/hdref"
	"pulphd/internal/hv"
)

// randomGeneration builds a k-class serving generation over random
// prototypes — about one in four a copy of an earlier class, in its
// own 8-class block or another, so equidistant classes occur — plus an
// AssociativeMemory and the golden model's AM (hdref.RefAM: a per-bit
// Hamming argmin, ties to the lowest index) holding the same
// prototypes. Labels are unique, so equal labels mean equal indexes.
func randomGeneration(t testing.TB, d, k int, rng *rand.Rand) (*generation, *AssociativeMemory, *hdref.RefAM) {
	t.Helper()
	labels := make([]string, k)
	protos := make([]hv.Vector, k)
	flat := NewAssociativeMemory(d, 1)
	ref := &hdref.RefAM{Labels: labels}
	for i := 0; i < k; i++ {
		labels[i] = string(rune('a' + i%26))
		labels[i] += string(rune('0' + i/26%10))
		if i > 0 && rng.Intn(4) == 0 {
			protos[i] = protos[rng.Intn(i)].Clone()
		} else {
			protos[i] = hv.NewRandom(d, rng)
		}
		flat.SetPrototype(labels[i], protos[i])
		ref.Prototypes = append(ref.Prototypes, protos[i].Bits())
	}
	return &generation{labels: labels, am: hv.NewSlab(d, protos)}, flat, ref
}

// testQuery returns either a random query, ≈ d/2 from every class so
// the scan scores nearly every word, or — when near — a prototype with
// a few flipped bits, so the scan drops the other blocks early.
func testQuery(gen *generation, near bool, rng *rand.Rand) hv.Vector {
	d := gen.am.Dim()
	if !near {
		return hv.NewRandom(d, rng)
	}
	return gen.am.Row(rng.Intn(gen.am.Len())).FlipBits(rng.Intn(min(8, d+1)), rng)
}

// TestShardedAMEmptyPanics pins that a serving model with no classes
// refuses to predict.
func TestShardedAMEmptyPanics(t *testing.T) {
	sv, err := NewServing(EMGConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict on an empty model did not panic")
		}
	}()
	sv.Predict(make([][]float64, EMGConfig().NGram))
}

func TestShardedAMDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gen, _, _ := randomGeneration(t, 100, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest with wrong query dimension did not panic")
		}
	}()
	gen.am.Nearest(hv.New(101))
}

// TestShardedNearestMatchesFlat checks the serving generation and
// AssociativeMemory against hdref.RefAM at every class count from 1 to
// 40 — every count of rows in the last 8-class block — at dimensions
// with odd and even word counts, on random and near queries.
func TestShardedNearestMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1000, 4097, 10000} {
		for classes := 1; classes <= 40; classes++ {
			gen, flat, ref := randomGeneration(t, d, classes, rng)
			for q := 0; q < 6; q++ {
				query := testQuery(gen, q%2 == 1, rng)
				wantLabel, wantDist := ref.Classify(query.Bits())
				if idx, dist := gen.am.Nearest(query); gen.labels[idx] != wantLabel || dist != wantDist {
					t.Fatalf("d=%d classes=%d: generation (%s,%d), want (%s,%d)", d, classes, gen.labels[idx], dist, wantLabel, wantDist)
				}
				if label, dist := flat.Classify(query); label != wantLabel || dist != wantDist {
					t.Fatalf("d=%d classes=%d: AssociativeMemory (%s,%d), want (%s,%d)", d, classes, label, dist, wantLabel, wantDist)
				}
			}
		}
	}
}

// TestShardedNearestTieBreak pins the lowest-index tie-break:
// equidistant prototypes resolve to the first class, exactly as
// AssociativeMemory does.
func TestShardedNearestTieBreak(t *testing.T) {
	const d = 256
	proto := hv.New(d)
	protos := []hv.Vector{proto.Clone(), proto.Clone(), proto.Clone(), proto.Clone()}
	am := hv.NewSlab(d, protos)
	query := hv.New(d)
	query.SetBit(7, 1)
	if idx, dist := am.Nearest(query); idx != 0 || dist != 1 {
		t.Fatalf("tie resolved to (%d,%d), want (0,1)", idx, dist)
	}
}

// TestQuickShardedEquivalence is the property test: for random AMs of
// 1–40 classes (dimensions 1–6,000 and 10,000, duplicated classes) and
// random or near queries, the serving generation's scan equals
// hdref.RefAM's bit for bit.
func TestQuickShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(dRaw uint16, kRaw uint8, near bool, seed int64) bool {
		d := int(dRaw)%6000 + 1
		if dRaw%16 == 0 {
			d = 10000
		}
		k := int(kRaw)%40 + 1
		r := rand.New(rand.NewSource(seed))
		gen, _, ref := randomGeneration(t, d, k, r)
		query := testQuery(gen, near, r)
		wantLabel, wantDist := ref.Classify(query.Bits())
		idx, dist := gen.am.Nearest(query)
		return gen.labels[idx] == wantLabel && dist == wantDist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
