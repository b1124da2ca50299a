package registry

import (
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
// learn, registry.snapshot when the cadence fires, registry.faultin /
// registry.recover when a cold model loads, no eviction span in the
// request that pushes the resident set over the budget (the evictor
// runs that eviction), and registry.evict (annotated with wal_records,
// and followed by a registry.snapshot only when that count is
// non-zero) in a fault-in that had to make room — plus the fsync and
// fault-in latency histograms moving alongside.
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
	if _, err := r.CorrectInfo(rec, "emg", "rest", randomWindow(cfg, rng)); err != nil {
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
	info, err := r.ModelInfo("emg")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a budget of one one-class model: the first Serving
	// faults the model in (recover span included) inside the recorder
	// that asked for it.
	budget := int64(info.ResidentBytes)
	r2, err := Open(Config{Dir: dir, ResidentBudget: budget, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rec2 := obs.NewSpans(64)
	if _, err := r2.Serving(rec2, "emg"); err != nil {
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

	// other, one class and one WAL record, fills the budget alone.
	if _, err := r2.Create("other", cfg); err != nil {
		t.Fatal(err)
	}
	r2.EnforceBudget()
	if err := r2.Learn("other", "fist", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	// A learn faulting emg back in pushes the set over the budget. The
	// evictor snapshots and evicts other; the learn's timeline holds
	// none of that.
	rec3 := obs.NewSpans(64)
	if _, err := r2.CorrectInfo(rec3, "emg", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	names3 := spanNames(rec3)
	if names3["registry.evict"] != 0 || names3["registry.snapshot"] != 0 {
		t.Errorf("overflowing learn's timeline holds eviction spans: %v", names3)
	}
	r2.EnforceBudget()
	if info, _ := r2.ModelInfo("other"); info.Resident || info.WALRecords != 0 {
		t.Errorf("other after the evictor's pass: %+v, want cold with its WAL folded", info)
	}

	// A second class grows emg, dirty with two WAL records, past the
	// budget on its own. Faulting other in must first make room inline:
	// a registry.evict span, then the snapshot folding emg's records.
	if err := r2.Learn("emg", "fist", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	rec4 := obs.NewSpans(64)
	if _, err := r2.Serving(rec4, "other"); err != nil {
		t.Fatal(err)
	}
	if got := evictWALRecords(t, rec4); got != 2 {
		t.Errorf("inline eviction annotated wal_records=%d, want 2", got)
	}
	if names4 := spanNames(rec4); names4["registry.snapshot"] == 0 || names4["registry.faultin"] == 0 {
		t.Errorf("fault-in that made room lacks registry.snapshot or registry.faultin: %v", names4)
	}

	// other, grown past the budget too and then snapshotted, is clean:
	// making room for emg evicts it without writing, and the span says
	// why.
	if err := r2.Learn("other", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Snapshot("other"); err != nil {
		t.Fatal(err)
	}
	rec5 := obs.NewSpans(64)
	if _, err := r2.Serving(rec5, "emg"); err != nil {
		t.Fatal(err)
	}
	if got := evictWALRecords(t, rec5); got != 0 {
		t.Errorf("clean inline eviction annotated wal_records=%d, want 0", got)
	}
	if names5 := spanNames(rec5); names5["registry.snapshot"] != 0 {
		t.Errorf("clean inline eviction wrote a snapshot: %v", names5)
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
