package obs

import (
	"sort"
	"sync"
	"time"
)

// This file is the per-tenant half of the serving observability: the
// model registry serves many named models from one process, so its
// gauges and counters need a label dimension. GaugeVec is the
// one-label gauge family and CounterVec the two-label counter family;
// RegistryMetrics bundles everything the registry records, nil-safe
// like every other domain bundle in domains.go.

// GaugeVec is a family of gauges distinguished by one label value —
// a replica's per-model lag. Cell lookup takes a lock (sync cycles,
// not hot-path predicts, touch it); the returned *Gauge is the usual
// lock-free atomic.
type GaugeVec struct {
	mu    sync.RWMutex
	name  string
	cells map[string]*Gauge
}

// NewGaugeVec returns an empty family with the given label name.
func NewGaugeVec(label string) *GaugeVec {
	return &GaugeVec{name: label, cells: map[string]*Gauge{}}
}

// LabelName returns the label name.
func (v *GaugeVec) LabelName() string { return v.name }

// With returns the gauge for the label value, creating it on first
// use. Nil-safe: a nil family hands back a nil (no-op) gauge.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g := v.cells[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.cells[value]; g == nil {
		g = &Gauge{}
		v.cells[value] = g
	}
	return g
}

// Delete drops the cell for the label value, so a deleted model stops
// exporting. A no-op on nil families and absent cells.
func (v *GaugeVec) Delete(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	delete(v.cells, value)
	v.mu.Unlock()
}

// GaugeCell is one exported cell of a GaugeVec.
type GaugeCell struct {
	Value string
	Gauge int64
}

// Snapshot returns every cell sorted by label value, for export.
func (v *GaugeVec) Snapshot() []GaugeCell {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]GaugeCell, 0, len(v.cells))
	for value, g := range v.cells {
		out = append(out, GaugeCell{Value: value, Gauge: g.Value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// CounterVec is a family of counters distinguished by a fixed pair of
// label names — per-model operation counts, labelled (model, op). Cell
// lookup takes a read lock; the returned *Counter is the usual
// lock-free atomic.
type CounterVec struct {
	mu    sync.RWMutex
	names [2]string
	cells map[[2]string]*Counter
}

// NewCounterVec returns an empty family with the given label names.
func NewCounterVec(name1, name2 string) *CounterVec {
	return &CounterVec{names: [2]string{name1, name2}, cells: map[[2]string]*Counter{}}
}

// LabelNames returns the two label names.
func (v *CounterVec) LabelNames() (string, string) { return v.names[0], v.names[1] }

// With returns the counter for the given label values, creating it on
// first use. Nil-safe: a nil family hands back a nil (no-op) counter.
func (v *CounterVec) With(v1, v2 string) *Counter {
	if v == nil {
		return nil
	}
	key := [2]string{v1, v2}
	v.mu.RLock()
	c := v.cells[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.cells[key]; c == nil {
		c = &Counter{}
		v.cells[key] = c
	}
	return c
}

// VecCell is one exported cell of a CounterVec.
type VecCell struct {
	Values [2]string
	Count  int64
}

// Snapshot returns every cell sorted by label values, for export.
func (v *CounterVec) Snapshot() []VecCell {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]VecCell, 0, len(v.cells))
	for key, c := range v.cells {
		out = append(out, VecCell{Values: key, Count: c.Value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Values[0] != out[j].Values[0] {
			return out[i].Values[0] < out[j].Values[0]
		}
		return out[i].Values[1] < out[j].Values[1]
	})
	return out
}

// DeleteCells drops the cells for the label pair values whose first
// label equals value — how a deleted model's per-op request counters
// leave the exposition. A no-op on nil families.
func (v *CounterVec) DeleteCells(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	for key := range v.cells {
		if key[0] == value {
			delete(v.cells, key)
		}
	}
	v.mu.Unlock()
}

// RegistryMetrics instruments the multi-tenant model registry: the
// durability counters (WAL appends/replays, snapshots, evictions,
// fault-ins), their latency histograms, and the per-model operation
// counts exported with a `model` label. The registry's fleet and
// per-model state gauges are not recorded here: Registry.RegisterMetrics
// reads them from the registry itself at scrape time.
type RegistryMetrics struct {
	// Evictions counts models written out and dropped under the
	// resident-bytes budget; FaultIns counts cold models loaded back on
	// first request (including recovery loads at first use).
	Evictions Counter
	FaultIns  Counter
	// WALAppends counts records logged; WALReplayed counts records
	// replayed onto snapshots during fault-in/recovery; Snapshots
	// counts per-model snapshot writes; SnapshotNanos their latency.
	WALAppends    Counter
	WALReplayed   Counter
	Snapshots     Counter
	SnapshotNanos Histogram
	// WALFsyncNanos times the fsync after each durable WAL append
	// (exported seconds-scaled as pulphd_registry_wal_fsync_seconds);
	// FaultInNanos times whole cold-model loads, snapshot read plus WAL
	// replay (exported as pulphd_registry_faultin_seconds).
	WALFsyncNanos Histogram
	FaultInNanos  Histogram
	// ModelRequests counts registry operations by (model, op) where op
	// is predict, learn, correct, create, delete, evict or fault_in.
	ModelRequests *CounterVec
}

// NewRegistryMetrics builds the bundle with its labelled family
// allocated (the zero value's nil family is valid but records nothing
// per-model).
func NewRegistryMetrics() *RegistryMetrics {
	return &RegistryMetrics{ModelRequests: NewCounterVec("model", "op")}
}

// RecordOp counts one registry operation against a named model.
func (m *RegistryMetrics) RecordOp(model, op string) {
	if m == nil {
		return
	}
	m.ModelRequests.With(model, op).Inc()
}

// RecordWALAppend counts one logged record.
func (m *RegistryMetrics) RecordWALAppend() {
	if m == nil {
		return
	}
	m.WALAppends.Inc()
}

// RecordSnapshot folds one per-model snapshot write.
func (m *RegistryMetrics) RecordSnapshot(d time.Duration) {
	if m == nil {
		return
	}
	m.Snapshots.Inc()
	m.SnapshotNanos.Observe(d)
}

// RecordEviction counts one model evicted to disk.
func (m *RegistryMetrics) RecordEviction() {
	if m == nil {
		return
	}
	m.Evictions.Inc()
}

// RecordFaultIn folds one cold-model load that replayed n WAL records
// and took d end to end (snapshot read + replay + publish).
func (m *RegistryMetrics) RecordFaultIn(replayed int, d time.Duration) {
	if m == nil {
		return
	}
	m.FaultIns.Inc()
	m.WALReplayed.Add(int64(replayed))
	m.FaultInNanos.Observe(d)
}

// RecordWALFsync times one fsync on the durable WAL append path.
func (m *RegistryMetrics) RecordWALFsync(d time.Duration) {
	if m == nil {
		return
	}
	m.WALFsyncNanos.Observe(d)
}

// ForgetModel drops a deleted model's operation counts.
func (m *RegistryMetrics) ForgetModel(model string) {
	if m == nil {
		return
	}
	m.ModelRequests.DeleteCells(model)
}
