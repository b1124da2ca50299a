package hdc

import (
	"fmt"

	"pulphd/internal/hv"
)

// This file is the durability seam of the serving layer: a Serving can
// export its complete learner state — published generation id, class
// labels, prototypes, and the per-class count accumulators — as plain
// data, and be rebuilt from that state bit-for-bit. The model registry
// persists ServingState as the per-model snapshot (internal/model
// SaveServing/LoadServing) and replays the write-ahead-log tail on top
// of it; because serving rebinarization breaks ties deterministically
// (never via an rng stream), replaying the same Learn sequence onto
// the same restored state publishes byte-identical generations.

// ServingClassState is one class of a ServingState: its label, the
// published prototype, and — for learnable classes — the exact count
// accumulator. A nil accumulator marks a fixed (deployment) prototype,
// which serves but rejects Learn.
type ServingClassState struct {
	Label     string
	Prototype hv.Vector
	// AccumCount and AccumPlanes are hv.Bundler.State() output;
	// AccumPlanes nil with AccumCount 0 on a fixed-prototype class is
	// distinguished from a learnable class by Learnable.
	Learnable   bool
	AccumCount  int
	AccumPlanes [][]uint64
}

// ServingState is a complete, self-contained export of a Serving's
// learner state at one published generation.
type ServingState struct {
	Generation uint64
	Classes    []ServingClassState
}

// State exports the serving model's current learner state. It takes
// the learner lock, so the exported generation id, labels, prototypes
// and accumulators are one consistent cut — a Learn racing the export
// lands entirely before or entirely after it. All storage is deep
// copied; the returned state shares nothing with the live model.
func (sv *Serving) State() ServingState {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	gen := sv.gen.Load()
	st := ServingState{Generation: gen.id}
	st.Classes = make([]ServingClassState, len(sv.labels))
	for i, label := range sv.labels {
		cs := ServingClassState{Label: label, Prototype: gen.am.Row(i)}
		if sv.accum[i] != nil {
			cs.Learnable = true
			cs.AccumCount, cs.AccumPlanes = sv.accum[i].State()
		}
		st.Classes[i] = cs
	}
	return st
}

// NewServingFromState rebuilds a serving model from State output: the
// restored instance publishes the stored generation id, prototypes and
// labels, and its class accumulators resume from the stored counts, so
// a Learn sequence applied after restore publishes exactly the
// generations the original would have. Item memories come from
// NewServing, derived from cfg.Seed (or shared, for a stored cfg seen
// last); cfg must therefore be the configuration the state was
// exported under.
func NewServingFromState(cfg Config, st ServingState) (*Serving, error) {
	sv, err := NewServing(cfg, 1)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(st.Classes))
	protos := make([]hv.Vector, len(st.Classes))
	sv.accum = make([]*hv.Bundler, len(st.Classes))
	for i, cs := range st.Classes {
		if cs.Label == "" {
			return nil, fmt.Errorf("hdc: NewServingFromState: class %d has an empty label", i)
		}
		if _, dup := sv.index[cs.Label]; dup {
			return nil, fmt.Errorf("hdc: NewServingFromState: duplicate label %q", cs.Label)
		}
		sv.index[cs.Label] = i
		if cs.Prototype.Dim() != cfg.D {
			return nil, fmt.Errorf("hdc: NewServingFromState: class %q prototype dimension %d != %d", cs.Label, cs.Prototype.Dim(), cfg.D)
		}
		labels[i] = cs.Label
		protos[i] = cs.Prototype
		if cs.Learnable {
			if cs.AccumCount < 1 {
				return nil, fmt.Errorf("hdc: NewServingFromState: learnable class %q has count %d", cs.Label, cs.AccumCount)
			}
			b, err := hv.NewBundlerFromState(cfg.D, cs.AccumCount, cs.AccumPlanes)
			if err != nil {
				return nil, fmt.Errorf("hdc: NewServingFromState: class %q: %w", cs.Label, err)
			}
			sv.accum[i] = b
		}
	}
	sv.labels = labels
	sv.gen.Store(newGeneration(st.Generation, labels, hv.NewSlab(cfg.D, protos)))
	return sv, nil
}
