package hdc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pulphd/internal/hdref"
	"pulphd/internal/hv"
)

// randomShardedAM builds a k-class AM over random prototypes — about
// one in four a copy of an earlier class, so equidistant classes occur
// — plus an AssociativeMemory and the golden model's AM (hdref.RefAM:
// a per-bit Hamming argmin, ties to the lowest index) holding the same
// prototypes. Labels are unique, so equal labels mean equal indexes.
func randomShardedAM(t testing.TB, d, k int, rng *rand.Rand) (*ShardedAM, *AssociativeMemory, *hdref.RefAM) {
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
	return NewShardedAM(d, labels, protos), flat, ref
}

// testQuery returns either a random query, ≈ d/2 from every class so
// the bounded scan scores nearly every word, or — when near — a
// prototype with a few flipped bits, so the bound prunes the others.
func testQuery(am *ShardedAM, near bool, rng *rand.Rand) hv.Vector {
	if !near {
		return hv.NewRandom(am.d, rng)
	}
	return am.protos[rng.Intn(len(am.protos))].Clone().FlipBits(rng.Intn(min(8, am.d+1)), rng)
}

func TestShardedAMEmptyPanics(t *testing.T) {
	am := NewShardedAM(100, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest on empty AM did not panic")
		}
	}()
	am.Nearest(hv.New(100))
}

func TestShardedAMDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	am, _, _ := randomShardedAM(t, 100, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest with wrong query dimension did not panic")
		}
	}()
	am.Nearest(hv.New(101))
}

// TestShardedNearestMatchesFlat checks ShardedAM and AssociativeMemory
// against hdref.RefAM across class counts, from a single class up, at
// dimensions that are not a multiple of 64, on random and near queries.
func TestShardedNearestMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1000, 10000} {
		for _, classes := range []int{1, 2, 5, 17, 64} {
			am, flat, ref := randomShardedAM(t, d, classes, rng)
			for q := 0; q < 20; q++ {
				query := testQuery(am, q%2 == 1, rng)
				wantLabel, wantDist := ref.Classify(query.Bits())
				if idx, dist := am.Nearest(query); am.labels[idx] != wantLabel || dist != wantDist {
					t.Fatalf("d=%d classes=%d: ShardedAM (%s,%d), want (%s,%d)", d, classes, am.labels[idx], dist, wantLabel, wantDist)
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
	am := NewShardedAM(d, []string{"a", "b", "c", "d"}, protos)
	query := hv.New(d)
	query.SetBit(7, 1)
	if idx, dist := am.Nearest(query); idx != 0 || dist != 1 {
		t.Fatalf("tie resolved to (%d,%d), want (0,1)", idx, dist)
	}
}

// TestQuickShardedEquivalence is the property test: for random AMs
// (non-word-aligned dimensions up to several vector-kernel steps,
// duplicated classes) and random or near queries, the serving AM's
// scan equals hdref.RefAM's bit for bit.
func TestQuickShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(dRaw uint16, kRaw uint8, near bool, seed int64) bool {
		d := int(dRaw)%6000 + 33
		k := int(kRaw)%30 + 1
		r := rand.New(rand.NewSource(seed))
		am, _, ref := randomShardedAM(t, d, k, r)
		query := testQuery(am, near, r)
		wantLabel, wantDist := ref.Classify(query.Bits())
		idx, dist := am.Nearest(query)
		return am.labels[idx] == wantLabel && dist == wantDist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
