package hdc

import (
	"fmt"

	"pulphd/internal/hv"
)

// This file is the durability seam of the serving layer: a Serving
// lends its complete learner state — published generation id, class
// labels, prototypes, and the per-class count accumulators — to a
// reader under the learner lock, and can be rebuilt from that state
// bit-for-bit. The model registry persists it as the per-model
// snapshot (internal/model SaveServing/LoadServing) and replays the
// write-ahead-log tail on top of it; because serving rebinarization
// breaks ties deterministically (never via an rng stream), replaying
// the same Learn sequence onto the same restored state publishes
// byte-identical generations.

// ServingState is a Serving's complete learner state at one published
// generation: the class labels in index order, their prototypes, and
// each class's count accumulator. A nil accumulator marks a fixed
// (deployment) prototype, which serves but rejects Learn. ReadState
// lends the live state; NewServingFromState adopts one.
type ServingState struct {
	Generation uint64
	Labels     []string
	Prototypes *hv.Slab
	Accums     []*hv.Bundler
}

// ReadState calls fn with the live learner state under the learner
// lock, so the generation id, labels, prototypes and accumulators fn
// sees are one consistent cut: a Learn racing the read lands entirely
// before or entirely after it. Nothing is copied. fn must only read,
// must not keep any of the state after it returns, and must not call
// back into sv; every Learn waits while it runs, so it should copy
// what it needs into memory and return.
func (sv *Serving) ReadState(fn func(ServingState)) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	gen := sv.gen.Load()
	fn(ServingState{Generation: gen.id, Labels: gen.labels, Prototypes: gen.am, Accums: sv.accum})
}

// NewServingFromState builds a serving model that adopts st: the
// restored instance publishes the stored generation id, prototypes and
// labels, and learns on into the stored accumulators, so a Learn
// sequence applied after restore publishes exactly the generations the
// original would have. Ownership of st's slices and accumulators
// passes to the model; the caller must not use them afterwards. Item
// memories come from cfg.Seed (or are shared, for a stored cfg seen
// last — see storedTables); cfg must therefore be the configuration
// the state was exported under.
func NewServingFromState(cfg Config, st ServingState) (*Serving, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(st.Labels)
	switch {
	case st.Prototypes == nil || st.Prototypes.Dim() != cfg.D:
		return nil, fmt.Errorf("hdc: NewServingFromState: prototypes are not %d-D", cfg.D)
	case st.Prototypes.Len() != n || len(st.Accums) != n:
		return nil, fmt.Errorf("hdc: NewServingFromState: %d labels, %d prototypes, %d accumulators",
			n, st.Prototypes.Len(), len(st.Accums))
	}
	index := make(map[string]int, n)
	for i, label := range st.Labels {
		if label == "" {
			return nil, fmt.Errorf("hdc: NewServingFromState: class %d has an empty label", i)
		}
		if _, dup := index[label]; dup {
			return nil, fmt.Errorf("hdc: NewServingFromState: duplicate label %q", label)
		}
		index[label] = i
		if b := st.Accums[i]; b != nil && (b.Dim() != cfg.D || b.Count() < 1) {
			return nil, fmt.Errorf("hdc: NewServingFromState: learnable class %q has a %d-D accumulator of count %d",
				label, b.Dim(), b.Count())
		}
	}
	im, cim := servingTables(cfg)
	sv := &Serving{cfg: cfg, im: im, cim: cim, labels: st.Labels, index: index, accum: st.Accums}
	sv.gen.Store(newGeneration(st.Generation, sv.labels, st.Prototypes))
	return sv, nil
}
