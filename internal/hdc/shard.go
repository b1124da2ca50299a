package hdc

import (
	"fmt"

	"pulphd/internal/hv"
)

// ShardedAM is the immutable associative memory one serving generation
// publishes: the class labels and their prototypes in class-index
// order, searched by hv.Nearest's bounded minimum-Hamming scan. The PULP
// cluster parallelizes inside each prototype's words (parallel.AMSearch);
// at the paper's 5 classes a whole scan is a few microseconds, so the
// serving layer runs it serially on the caller.
//
// A ShardedAM never changes after construction — the copy-on-write
// serving layer publishes a fresh one per model generation — so any
// number of goroutines may search it concurrently.
type ShardedAM struct {
	d      int
	labels []string
	protos []hv.Vector
}

// NewShardedAM builds the table. labels and protos run in class-index
// order and are captured by reference — the caller must treat them as
// frozen from here on (the serving layer guarantees this by
// construction).
func NewShardedAM(d int, labels []string, protos []hv.Vector) *ShardedAM {
	if len(labels) != len(protos) {
		panic(fmt.Sprintf("hdc: NewShardedAM: %d labels for %d prototypes", len(labels), len(protos)))
	}
	for i, p := range protos {
		if p.Dim() != d {
			panic(fmt.Sprintf("hdc: NewShardedAM: prototype %d has dimension %d, want %d", i, p.Dim(), d))
		}
	}
	return &ShardedAM{d: d, labels: labels, protos: protos}
}

// Classes returns the stored class count.
func (am *ShardedAM) Classes() int { return len(am.protos) }

// SizeBytes returns the prototype matrix footprint in bytes.
func (am *ShardedAM) SizeBytes() int {
	return len(am.protos) * hv.WordsFor(am.d) * 4
}

// Nearest returns the index and Hamming distance of the closest
// prototype through hv.Nearest, the scan AssociativeMemory and
// AdaptiveMemory share: ties resolve to the lowest class index. It
// panics if the AM is empty or the query dimension differs.
func (am *ShardedAM) Nearest(query hv.Vector) (index, distance int) {
	if len(am.protos) == 0 {
		panic("hdc: ShardedAM.Nearest on empty associative memory")
	}
	if query.Dim() != am.d {
		panic(fmt.Sprintf("hdc: ShardedAM.Nearest: dimension mismatch %d != %d", query.Dim(), am.d))
	}
	return hv.Nearest(query, am.protos)
}
