package hdc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pulphd/internal/hv"
)

// randomShardedAM builds a k-class AM over random prototypes plus an
// AssociativeMemory holding the same prototypes, for equivalence
// checks.
func randomShardedAM(t testing.TB, d, k int, rng *rand.Rand) (*ShardedAM, *AssociativeMemory) {
	t.Helper()
	labels := make([]string, k)
	protos := make([]hv.Vector, k)
	flat := NewAssociativeMemory(d, 1)
	for i := 0; i < k; i++ {
		labels[i] = string(rune('a' + i%26))
		labels[i] += string(rune('0' + i/26%10))
		protos[i] = hv.NewRandom(d, rng)
		flat.SetPrototype(labels[i], protos[i])
	}
	return NewShardedAM(d, labels, protos), flat
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
	am, _ := randomShardedAM(t, 100, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest with wrong query dimension did not panic")
		}
	}()
	am.Nearest(hv.New(101))
}

// TestShardedNearestMatchesFlat checks bit-identical results against
// AssociativeMemory across class counts, from a single class up.
func TestShardedNearestMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, classes := range []int{1, 2, 5, 17, 64} {
		am, flat := randomShardedAM(t, 1000, classes, rng)
		for q := 0; q < 20; q++ {
			query := hv.NewRandom(1000, rng)
			wantIdx, wantDist := flat.Nearest(query)
			if idx, dist := am.Nearest(query); idx != wantIdx || dist != wantDist {
				t.Fatalf("classes=%d: (%d,%d), want (%d,%d)", classes, idx, dist, wantIdx, wantDist)
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
// (including non-word-aligned dimensions) and queries, the serving
// AM's scan equals AssociativeMemory.Nearest bit for bit.
func TestQuickShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(dRaw, kRaw uint8, seed int64) bool {
		d := int(dRaw)%500 + 33
		k := int(kRaw)%30 + 1
		r := rand.New(rand.NewSource(seed))
		am, flat := randomShardedAM(t, d, k, r)
		query := hv.NewRandom(d, r)
		wantIdx, wantDist := flat.Nearest(query)
		idx, dist := am.Nearest(query)
		return idx == wantIdx && dist == wantDist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
