package registry

import (
	"context"
	"math/rand"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
)

// spanNames collects the names of every span a recorder holds.
func spanNames(rec *obs.Spans) map[string]int {
	names := map[string]int{}
	for i := 0; i < rec.Len(); i++ {
		names[rec.Span(i).Name]++
	}
	return names
}

// TestLifecycleSpans threads a span recorder through the registry's
// write and recovery paths and asserts every lifecycle stage shows up
// in the request timeline: wal.append and wal.fsync under a durable
// learn, registry.snapshot when the cadence fires, registry.evict
// under budget pressure (annotated with wal_records, and followed by a
// registry.snapshot only when that count is non-zero), and
// registry.faultin / registry.recover when
// a cold model loads — plus the fsync and fault-in latency histograms
// moving alongside.
func TestLifecycleSpans(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewRegistryMetrics()
	cfg := testConfig(hdc.BackendStored)
	rng := rand.New(rand.NewSource(7))

	r, err := Open(Config{Dir: dir, SyncWAL: true, SnapshotEvery: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("emg", cfg); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpans(64)
	ctx := obs.WithSpans(context.Background(), rec)
	if err := r.CorrectCtx(ctx, "emg", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	names := spanNames(rec)
	for _, want := range []string{"wal.append", "wal.fsync", "registry.snapshot"} {
		if names[want] == 0 {
			t.Errorf("durable learn timeline lacks %s span: %v", want, names)
		}
	}
	if m.WALFsyncNanos.Snapshot().Count == 0 {
		t.Error("wal fsync histogram did not move under SyncWAL")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a 1-byte budget: the first ServingCtx faults the model
	// in (recover span included), and learning a second model evicts the
	// first — all inside the recorders that asked for the work.
	r2, err := Open(Config{Dir: dir, ResidentBudget: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rec2 := obs.NewSpans(64)
	ctx2 := obs.WithSpans(context.Background(), rec2)
	if _, err := r2.ServingCtx(ctx2, "emg"); err != nil {
		t.Fatal(err)
	}
	names2 := spanNames(rec2)
	for _, want := range []string{"registry.faultin", "registry.recover"} {
		if names2[want] == 0 {
			t.Errorf("fault-in timeline lacks %s span: %v", want, names2)
		}
	}
	if m.FaultInNanos.Snapshot().Count == 0 {
		t.Error("fault-in histogram did not move")
	}

	if _, err := r2.Create("other", cfg); err != nil {
		t.Fatal(err)
	}
	// Make emg resident again so the learn against other must evict it
	// under the 1-byte budget — inside the learn's own timeline.
	if _, err := r2.ServingCtx(context.Background(), "emg"); err != nil {
		t.Fatal(err)
	}
	rec3 := obs.NewSpans(64)
	ctx3 := obs.WithSpans(context.Background(), rec3)
	if err := r2.CorrectCtx(ctx3, "other", "fist", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	names3 := spanNames(rec3)
	if names3["registry.evict"] == 0 {
		t.Errorf("budget-pressure learn timeline lacks registry.evict span: %v", names3)
	}
	// emg's WAL was empty, so that eviction wrote no snapshot, and the
	// evict span says why.
	if got := evictWALRecords(t, rec3); got != 0 {
		t.Errorf("clean eviction annotated wal_records=%d, want 0", got)
	}
	if names3["registry.snapshot"] != 0 {
		t.Errorf("clean eviction wrote a snapshot: %v", names3)
	}

	// A learn leaves emg one WAL record; evicting it again folds that
	// record into a snapshot inside the evicting request's timeline.
	if err := r2.Learn("emg", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	rec4 := obs.NewSpans(64)
	ctx4 := obs.WithSpans(context.Background(), rec4)
	if err := r2.CorrectCtx(ctx4, "other", "fist", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	if got := evictWALRecords(t, rec4); got != 1 {
		t.Errorf("dirty eviction annotated wal_records=%d, want 1", got)
	}
	if names4 := spanNames(rec4); names4["registry.snapshot"] == 0 {
		t.Errorf("dirty eviction timeline lacks registry.snapshot span: %v", names4)
	}
}

// evictWALRecords returns the wal_records annotation of the one
// registry.evict span rec holds.
func evictWALRecords(t *testing.T, rec *obs.Spans) int64 {
	t.Helper()
	for i := 0; i < rec.Len(); i++ {
		sp := rec.Span(i)
		if sp.Name != "registry.evict" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "wal_records" {
				return a.Value
			}
		}
		t.Fatalf("registry.evict span lacks wal_records: %+v", sp.Attrs)
	}
	t.Fatal("no registry.evict span")
	return 0
}
