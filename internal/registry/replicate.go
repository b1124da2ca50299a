package registry

import (
	"fmt"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs"
)

// This file is the registry's replication surface: a primary exports
// consistent generation-stamped snapshots, a replica installs them
// under the same atomic served pointer every other path uses. Neither
// side needs anything beyond the machinery the registry already has —
// snapshot encodes are learner-lock consistent, snapshots carry a CRC
// trailer, and an Install is one pointer store.

// ExportServing returns name's complete serving state in snapshot
// format (PULPHD03) and the generation the cut was taken at. The cut
// is consistent — model.EncodeServing reads the state under the
// learner lock — so the bytes always describe exactly the returned
// generation, and the lock is released before the caller writes them
// anywhere. Cold models fault in first (their WAL tail folds in during
// fault-in, so the export is never stale). The snapshot is encoded
// with walSeq 0: the receiver owns no WAL pairing for it. A fault-in
// records on rec (nil: none).
func (r *Registry) ExportServing(rec *obs.Spans, name string) (snap []byte, generation uint64, err error) {
	sv, err := r.Serving(rec, name)
	if err != nil {
		return nil, 0, err
	}
	return model.EncodeServing(sv, 0)
}

// Install publishes sv under name, replacing any existing model's
// served state — the replica-side apply path. The swap is one atomic
// pointer store: predicts in flight keep whichever generation they
// already resolved, new predicts see the installed one, and nothing
// blocks. The entry's drift monitor survives the swap (feedback is
// process-local and should not reset every sync cycle).
//
// Install requires an ephemeral registry. Replicas do not own
// durability — the primary does — and installing over a persistent
// entry would desynchronize a WAL this path deliberately bypasses.
func (r *Registry) Install(name string, sv *hdc.Serving) error {
	if err := ValidateModelName(name); err != nil {
		return err
	}
	if r.Persistent() {
		return fmt.Errorf("registry: Install requires an ephemeral registry (replicas do not own durability)")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name, drift: new(obs.DriftMonitor)}
		r.entries[name] = e
	}
	r.mu.Unlock()
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.sv.Store(sv)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.mu.Unlock()
	r.touch(e)
	r.m().RecordOp(name, "install")
	return nil
}
