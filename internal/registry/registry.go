// Package registry is the multi-tenant model layer: many named,
// versioned serving models behind one process, each a copy-on-write
// hdc.Serving, each durable as a (snapshot, write-ahead log) pair on
// disk. Online Learn/Correct records are framed and logged before they
// are applied, so a restart — graceful or kill -9 — replays the WAL
// tail onto the latest snapshot and recovers every model to its exact
// pre-crash generation, byte for byte. Cold models are evicted under a
// configurable resident-bytes budget and faulted back in on their next
// request. Eviction snapshots only a dirty model, one whose WAL holds
// records; a clean model's state already is its snapshot plus an empty
// WAL, so it is dropped without writing anything.
//
// The victim is chosen by GreedyDual credit (Young's GreedyDual; Cao
// and Irani's GreedyDual-Size without the size term). A model's credit
// is the registry's inflation value at its last use plus what evicting
// it would cost, counted in fault-ins: 1 for a clean model, dirtyCost
// for a dirty one, whose eviction also writes a snapshot. The evictor
// takes the lowest credit, the least recently used among equals, and
// raises the inflation value to the victim's credit. When every model
// costs the same this is least-recently-used; a dirty model outlasts
// clean ones only until the inflation passes its credit, so an idle
// dirty model cannot pin the budget.
//
// Evictions run off the request path. A persistent registry with a
// budget owns one evictor goroutine: the create, fault-in or learn
// that pushes the resident set over the budget wakes it and answers,
// and the evictor writes the victim's snapshot meanwhile. A request
// waits for room only when it is about to bring a model in while the
// set, less the model being evicted, is already over budget. Close
// stops the evictor.
//
// Locking is two-level and ordered registry → entry: the registry
// mutex guards the name table and the manifest, each entry's mutex
// serializes that model's state transitions (learn, snapshot, evict,
// fault-in, delete), and the entry holds its Serving behind an atomic
// pointer so the predict path reads it lock-free once it has the
// entry. The eviction mutex, which serializes evictions, is taken
// before any entry lock and never while one is held.
package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs"
)

// DefaultSnapshotEvery is the WAL record count that triggers an
// automatic per-model snapshot when Config.SnapshotEvery is unset:
// frequent enough to keep replay short, rare enough that snapshot
// cost amortizes across many learns.
const DefaultSnapshotEvery = 256

// dirtyCost is what evicting a dirty model costs, in fault-ins: the
// fault-in back plus the fsynced, renamed snapshot eviction writes
// first. On tenants-durable (seed 9101) traced registry.snapshot_ms
// read 1.04 against registry.faultin_ms 0.18, a snapshot of 5.7
// fault-ins, so 1 + 5.7 ≈ 7. A clean model costs 1.
const dirtyCost = 7

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrNotFound = errors.New("registry: model not found")
	ErrExists   = errors.New("registry: model already exists")
	ErrClosed   = errors.New("registry: closed")
	// ErrInvalid wraps any input the registry rejects: a model name or
	// model configuration it cannot create, or a learn record the model
	// rejects (a label or window out of range, or a class that cannot
	// learn). Any other error is the registry's own (a snapshot, WAL or
	// manifest write failed).
	ErrInvalid = errors.New("registry: invalid input")
)

// Config configures a Registry.
type Config struct {
	// Dir is the state directory holding MANIFEST, <name>.snap and
	// <name>.wal. Empty means ephemeral: models live in memory only,
	// nothing persists, and eviction is disabled (dropping a model
	// without a snapshot would lose it).
	Dir string
	// Shards is ignored.
	//
	// Deprecated: the associative memory is one flat table; the field
	// will be removed.
	Shards int
	// ResidentBudget caps the summed ResidentBytes of in-memory models;
	// past it, models are dropped in GreedyDual order (least recently
	// used first, a dirty model, whose eviction writes a snapshot,
	// counting as seven times dearer to lose; see the package comment),
	// each snapshotted first if its WAL holds records. Zero or negative
	// means unlimited. Ignored when Dir is empty.
	//
	// The registry's evictor drops them after the request that went
	// over has answered, one model at a time, never the most recently
	// used one. A request about to fault a model in or create one waits
	// for room when the resident bytes, less the model being evicted,
	// already exceed the budget. So the resident bytes exceed the budget
	// by at most the model being evicted plus one model per request
	// concurrently faulting in or creating a model, and the classes
	// learns add before the evictor's next pass.
	ResidentBudget int64
	// SnapshotEvery is how many WAL records a model accumulates before
	// an automatic snapshot folds them in and truncates the log; values
	// below 1 mean DefaultSnapshotEvery.
	SnapshotEvery int
	// SyncWAL fsyncs every WAL append: single-record durability against
	// power loss, at a large per-learn latency cost. Off, a kill -9
	// still loses nothing (the page cache survives the process); only
	// an OS crash can lose the unsynced tail.
	SyncWAL bool
	// Metrics, when set, receives the durability counters and the
	// per-model operation counts. SetMetrics can install or replace it
	// later. The fleet and per-model state gauges are read from the
	// registry at scrape time instead (RegisterMetrics).
	Metrics *obs.RegistryMetrics
}

// Info is one model's row in List: identity, residency, and the
// published state (live values when resident, the last known
// snapshot-plus-log view when cold).
type Info struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	// Generation is the published model generation: exact when
	// resident; when cold, the generation the snapshot was cut at (WAL
	// records not yet folded in are counted separately below).
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
	// ResidentBytes is the in-memory footprint; zero when cold.
	ResidentBytes int `json:"resident_bytes"`
	// WALRecords is the log-tail length a restart or fault-in replays.
	WALRecords int `json:"wal_records"`
	// RollingAccuracyPermille is the model's drift signal (-1 until
	// feedback arrives; process-local, not replayed).
	RollingAccuracyPermille int64 `json:"rolling_accuracy_permille"`
}

// entry is one named model. Its mutex serializes state transitions;
// sv is nil while the model is evicted to disk. The generation,
// classes and walRecords fields mirror the last known state for
// listing cold models without faulting them in; they are guarded by
// the entry mutex.
type entry struct {
	name string
	mu   sync.Mutex
	sv   atomic.Pointer[hdc.Serving]
	// wal is non-nil exactly while the model is resident in a
	// persistent registry.
	wal     *WAL
	drift   *obs.DriftMonitor
	lastUse atomic.Int64
	// credit is the model's GreedyDual credit, set by credit(); dirty
	// mirrors a WAL that holds records. Both are written under mu and
	// read without it by pickVictim.
	credit  atomic.Int64
	dirty   atomic.Bool
	deleted bool

	generation uint64
	classes    int
	walRecords int
}

// Registry is the multi-tenant model table. Safe for concurrent use.
type Registry struct {
	cfg     Config
	mu      sync.RWMutex
	entries map[string]*entry
	clock   atomic.Int64
	metrics atomic.Pointer[obs.RegistryMetrics]
	closed  bool

	// evictMu serializes evictions: the evictor's passes, a request
	// making room and EnforceBudget. evicting is the resident bytes of
	// the model being evicted under it, 0 between evictions.
	evictMu  sync.Mutex
	evicting atomic.Int64
	// inflation is GreedyDual's L: each eviction raises it to the
	// victim's credit, and every credit is set on top of it. It sits
	// here, off the cache line of clock, which every request writes:
	// beside clock, touch's load of it missed, and a lookup under two
	// contending goroutines took ~50 ns longer.
	inflation atomic.Int64
	// wake asks the evictor for a pass; Close closes stop and waits for
	// evictorDone. All three are nil when the registry has no budget to
	// enforce (ephemeral, or ResidentBudget ≤ 0).
	wake, stop, evictorDone chan struct{}
	// beforeEvict, when non-nil, runs under evictMu and the victim's
	// entry lock just before each eviction. Tests set it to hold an
	// eviction in flight; production leaves it nil.
	beforeEvict func(name string)
}

// Open opens (creating if needed) the registry rooted at cfg.Dir, or
// an ephemeral registry when cfg.Dir is empty. Every model the
// manifest lists is verified to have a readable snapshot head — its
// configuration, generation and class count — but models are NOT
// loaded: they fault in on first use. Torn WAL tails are truncated
// away during the scan, so the directory is clean after Open returns.
func Open(cfg Config) (*Registry, error) {
	if cfg.SnapshotEvery < 1 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	r := &Registry{cfg: cfg, entries: map[string]*entry{}}
	if cfg.Metrics != nil {
		r.metrics.Store(cfg.Metrics)
	}
	if cfg.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", cfg.Dir, err)
	}
	names, err := readManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		e := &entry{name: name, drift: new(obs.DriftMonitor)}
		f, err := os.Open(r.snapPath(name))
		if err != nil {
			return nil, fmt.Errorf("registry: model %q in manifest but snapshot unreadable: %w", name, err)
		}
		meta, err := model.ReadServingMeta(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("registry: model %q snapshot head: %w", name, err)
		}
		recs, err := ReplayWAL(r.walPath(name))
		if err != nil {
			return nil, fmt.Errorf("registry: model %q: %w", name, err)
		}
		e.generation = meta.Generation
		e.classes = meta.Classes
		e.walRecords = len(recs)
		r.entries[name] = e
	}
	if cfg.ResidentBudget > 0 {
		r.wake = make(chan struct{}, 1)
		r.stop = make(chan struct{})
		r.evictorDone = make(chan struct{})
		go r.evictor()
	}
	return r, nil
}

// SetMetrics installs (or replaces) the metrics sink.
func (r *Registry) SetMetrics(m *obs.RegistryMetrics) { r.metrics.Store(m) }

// Metrics returns the installed metrics sink; nil (safe to call
// through) when none is installed.
func (r *Registry) Metrics() *obs.RegistryMetrics { return r.m() }

func (r *Registry) m() *obs.RegistryMetrics { return r.metrics.Load() }

// Persistent reports whether the registry has a state directory.
func (r *Registry) Persistent() bool { return r.cfg.Dir != "" }

// Dir returns the state directory ("" for ephemeral registries).
func (r *Registry) Dir() string { return r.cfg.Dir }

func (r *Registry) snapPath(name string) string { return filepath.Join(r.cfg.Dir, name+".snap") }
func (r *Registry) walPath(name string) string  { return filepath.Join(r.cfg.Dir, name+".wal") }

// touch marks e used: most recent, and credited afresh.
func (r *Registry) touch(e *entry) {
	e.lastUse.Store(r.clock.Add(1))
	r.credit(e)
}

// credit sets e's GreedyDual credit: the inflation value plus what
// evicting e now would cost, in fault-ins.
func (r *Registry) credit(e *entry) {
	cost := int64(1)
	if e.dirty.Load() {
		cost = dirtyCost
	}
	e.credit.Store(r.inflation.Load() + cost)
}

// Create registers a fresh, empty model under name and returns its
// Serving. In a persistent registry the model's snapshot and WAL land
// on disk, and the manifest republishes, before Create returns.
func (r *Registry) Create(name string, mc hdc.Config) (*hdc.Serving, error) {
	sv, err := hdc.NewServing(mc, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return sv, r.adopt(name, sv, "create")
}

// Adopt registers an existing Serving under name — how a model trained
// elsewhere (or the demo model the serve command boots with) enters
// the registry. Persistent registries snapshot its current state
// immediately, so the adopted model is durable from the start.
func (r *Registry) Adopt(name string, sv *hdc.Serving) error {
	return r.adopt(name, sv, "adopt")
}

func (r *Registry) adopt(name string, sv *hdc.Serving, op string) error {
	if err := ValidateModelName(name); err != nil {
		return err
	}
	r.makeRoom(nil)
	if err := r.adoptLocked(name, sv, op); err != nil {
		return err
	}
	r.wakeEvictor()
	return nil
}

func (r *Registry) adoptLocked(name string, sv *hdc.Serving, op string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &entry{name: name, drift: new(obs.DriftMonitor)}
	e.sv.Store(sv)
	if r.Persistent() {
		// Files first, manifest last: a crash in between leaves orphan
		// files the manifest never promised, which the next Open ignores.
		if err := r.writeSnapshot(name, sv, 1); err != nil {
			return err
		}
		wal, err := OpenWAL(r.walPath(name), 1, 0, r.cfg.SyncWAL)
		if err != nil {
			os.Remove(r.snapPath(name))
			return err
		}
		names := make([]string, 0, len(r.entries)+1)
		for n := range r.entries {
			names = append(names, n)
		}
		if err := writeManifest(r.cfg.Dir, append(names, name)); err != nil {
			wal.Close()
			os.Remove(r.snapPath(name))
			os.Remove(r.walPath(name))
			return err
		}
		e.wal = wal
	}
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	r.entries[name] = e
	r.touch(e)
	r.m().RecordOp(name, op)
	return nil
}

// Delete unregisters name and removes its on-disk state. In-flight
// predicts holding the model's Serving finish against it; new lookups
// fail with ErrNotFound.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	var manifestErr error
	if r.Persistent() {
		names := make([]string, 0, len(r.entries))
		for n := range r.entries {
			names = append(names, n)
		}
		manifestErr = writeManifest(r.cfg.Dir, names)
	}
	r.mu.Unlock()

	e.mu.Lock()
	e.deleted = true
	if e.wal != nil {
		e.wal.Close()
		e.wal = nil
	}
	e.sv.Store(nil)
	e.mu.Unlock()
	if r.Persistent() {
		os.Remove(r.snapPath(name))
		os.Remove(r.walPath(name))
	}
	m := r.m()
	m.RecordOp(name, "delete")
	m.ForgetModel(name)
	return manifestErr
}

// lookup finds the live entry for name.
func (r *Registry) lookup(name string) (*entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Serving returns the named model's Serving, faulting it in from disk
// if it was evicted. The hot path — model resident — is one map read
// under RLock and one atomic load. When the lookup has to fault the
// model in, the registry.faultin/registry.recover spans (and
// registry.evict, when it must wait for room) land on rec (nil: none),
// so the stall shows up inside the request's own timeline.
func (r *Registry) Serving(rec *obs.Spans, name string) (*hdc.Serving, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	// Touched before any fault-in, so the model is the most recently
	// used while it loads, and the evictor spares it.
	r.touch(e)
	if sv := e.sv.Load(); sv != nil {
		return sv, nil
	}
	r.makeRoom(rec)
	e.mu.Lock()
	sv, err := r.residentLocked(rec, e)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.wakeEvictor()
	return sv, nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	_, err := r.lookup(name)
	return err == nil
}

// Drift returns the named model's drift monitor.
func (r *Registry) Drift(name string) (*obs.DriftMonitor, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	return e.drift, nil
}

// residentLocked ensures e's model is in memory, loading the snapshot
// and replaying the WAL tail when it is not. Caller holds e.mu. The
// whole load is wrapped in a registry.faultin span on sp (the WAL
// replay in a nested registry.recover span) and timed into the
// fault-in latency histogram, because a cold model stalls the request
// paying for it.
func (r *Registry) residentLocked(sp *obs.Spans, e *entry) (*hdc.Serving, error) {
	if e.deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, e.name)
	}
	if sv := e.sv.Load(); sv != nil {
		return sv, nil
	}
	start := time.Now()
	fi := sp.Start("registry.faultin", sp.Parent())
	defer sp.End(fi)
	f, err := os.Open(r.snapPath(e.name))
	if err != nil {
		return nil, fmt.Errorf("registry: model %q snapshot: %w", e.name, err)
	}
	sv, snapSeq, err := model.LoadServing(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("registry: model %q snapshot: %w", e.name, err)
	}
	rc := sp.Start("registry.recover", fi)
	recs, err := ReplayWAL(r.walPath(e.name))
	if err != nil {
		sp.End(rc)
		return nil, fmt.Errorf("registry: model %q: %w", e.name, err)
	}
	nextSeq := snapSeq
	if nextSeq < 1 {
		nextSeq = 1
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Seq < snapSeq {
			// Stale record from a snapshot that landed before the WAL
			// truncated (crash in the gap): already folded in, skip.
			continue
		}
		// Apply errors are ignored deliberately: a record that failed to
		// apply live (e.g. a fixed-prototype class) also fails here, so
		// ignoring the error reproduces the pre-crash state exactly.
		_ = sv.Learn(rec.Label, rec.Window)
		replayed++
		nextSeq = rec.Seq + 1
	}
	sp.Annotate(rc, "replayed", int64(replayed))
	sp.End(rc)
	wal, err := OpenWAL(r.walPath(e.name), nextSeq, len(recs), r.cfg.SyncWAL)
	if err != nil {
		return nil, err
	}
	e.wal = wal
	e.dirty.Store(len(recs) > 0)
	r.credit(e)
	e.sv.Store(sv)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.walRecords = len(recs)
	sp.Annotate(fi, "generation", int64(e.generation))
	m := r.m()
	m.RecordOp(e.name, "fault_in")
	m.RecordFaultIn(replayed, time.Since(start))
	return sv, nil
}

// Learn logs and applies one online learning record against the named
// model: validate, append to the WAL, apply to the Serving, ack — in
// that order, so every acknowledged learn survives a crash.
func (r *Registry) Learn(name, label string, window [][]float64) error {
	_, err := r.apply(nil, name, OpLearn, label, window)
	return err
}

// CorrectCtx is CorrectInfo without a span recorder or the Info.
//
// Deprecated: ctx is ignored, and CorrectInfo serves every caller; it
// will be removed.
func (r *Registry) CorrectCtx(ctx context.Context, name, label string, window [][]float64) error {
	_, err := r.CorrectInfo(nil, name, label, window)
	return err
}

// CorrectInfo is Learn arriving as online correction feedback: it
// replays identically but also scores the model's prediction for the
// window against the corrected label in the drift monitor. Its WAL
// append, publish and any fault-in or snapshot record as spans on rec
// (nil: none). It returns the model's Info as captured under the
// model's lock right after the record applied, so its Generation and
// Classes are exactly what this correction published, whatever learns
// race it.
func (r *Registry) CorrectInfo(rec *obs.Spans, name, label string, window [][]float64) (Info, error) {
	return r.apply(rec, name, OpCorrect, label, window)
}

func (r *Registry) apply(rec *obs.Spans, name string, op Op, label string, window [][]float64) (Info, error) {
	e, err := r.lookup(name)
	if err != nil {
		return Info{}, err
	}
	r.touch(e)
	if e.sv.Load() == nil {
		r.makeRoom(rec)
	}
	e.mu.Lock()
	err = r.applyLocked(rec, e, op, label, window)
	info := r.infoLocked(e)
	e.mu.Unlock()
	r.wakeEvictor()
	return info, err
}

func (r *Registry) applyLocked(rec *obs.Spans, e *entry, op Op, label string, window [][]float64) error {
	sv, err := r.residentLocked(rec, e)
	if err != nil {
		return err
	}
	if label == "" || len(label) > maxWALLabelLen {
		return fmt.Errorf("%w: label length %d out of range [1,%d]", ErrInvalid, len(label), maxWALLabelLen)
	}
	if err := sv.ValidateWindow(window); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if len(window) > maxWALRows || len(window[0]) > maxWALCols {
		return fmt.Errorf("%w: window %d×%d exceeds wal limits", ErrInvalid, len(window), len(window[0]))
	}
	m := r.m()
	// Correction feedback scores what the model would have said against
	// the ground truth we are about to learn — the drift signal.
	if op == OpCorrect && sv.Classes() > 0 {
		predicted, _ := sv.Predict(window)
		e.drift.RecordFeedback(predicted, label)
	}
	if e.wal != nil {
		fsync, err := e.wal.Append(rec, op, label, window)
		if err != nil {
			return err
		}
		m.RecordWALAppend()
		if r.cfg.SyncWAL {
			m.RecordWALFsync(fsync)
		}
		e.walRecords = e.wal.Records()
		if !e.dirty.Load() {
			e.dirty.Store(true)
			r.credit(e)
		}
	}
	learnErr := sv.LearnTraced(rec, label, window)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	m.RecordOp(e.name, op.String())
	if e.wal != nil && e.wal.Records() >= r.cfg.SnapshotEvery {
		if err := r.snapshotLocked(rec, e); err != nil {
			return err
		}
	}
	if learnErr != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, learnErr)
	}
	return nil
}

// Snapshot forces the named model's snapshot to disk and truncates its
// WAL. A no-op for ephemeral registries and cold models (their
// snapshot is already their state).
func (r *Registry) Snapshot(name string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted || !r.Persistent() || e.sv.Load() == nil {
		return nil
	}
	return r.snapshotLocked(nil, e)
}

// snapshotLocked cuts e's snapshot and truncates its WAL. Caller holds
// e.mu; the model is resident and the registry persistent. The write
// lands as a registry.snapshot span on sp (nil: none) — an
// auto-snapshot happens inside the learn that tripped the cadence, so
// the stall belongs to that request's timeline.
func (r *Registry) snapshotLocked(sp *obs.Spans, e *entry) error {
	start := time.Now()
	sv := e.sv.Load()
	id := sp.Start("registry.snapshot", sp.Parent())
	sp.Annotate(id, "generation", int64(sv.Generation()))
	sp.Annotate(id, "wal_records", int64(e.walRecords))
	defer sp.End(id)
	if err := r.writeSnapshot(e.name, sv, e.wal.NextSeq()); err != nil {
		return err
	}
	if err := e.wal.Reset(); err != nil {
		return err
	}
	e.walRecords = 0
	// The credit follows at the model's next use.
	e.dirty.Store(false)
	r.m().RecordSnapshot(time.Since(start))
	return nil
}

// writeSnapshot writes sv's state to <name>.snap atomically: temp
// file, fsync, rename. The fsync before the rename matters — without
// it a crash could publish a name pointing at unwritten bytes, and
// the WAL that would have re-derived them truncates right after.
func (r *Registry) writeSnapshot(name string, sv *hdc.Serving, walSeq uint64) error {
	tmp := r.snapPath(name) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("registry: creating snapshot: %w", err)
	}
	if err := model.SaveServing(f, sv, walSeq); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("registry: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, r.snapPath(name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: publishing snapshot: %w", err)
	}
	return nil
}

// EnforceBudget evicts resident models, lowest GreedyDual credit first,
// until the summed resident bytes fit the budget, after any eviction in
// flight, and returns once they do. Unlike the evictor's pass it may
// evict the most recently used model. The evictor runs the same loop
// after a create, fault-in or learn leaves the set over the budget;
// this is the explicit, synchronous trigger for tests and admin use.
func (r *Registry) EnforceBudget() {
	if r.wake == nil {
		return
	}
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	r.enforceBudget(nil, false)
}

// evictor is the registry's eviction goroutine. Each wake runs one
// pass of the eviction loop, sparing the most recently used model —
// usually the one the waking request is using — until Close stops it.
func (r *Registry) evictor() {
	defer close(r.evictorDone)
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
			r.evictMu.Lock()
			r.enforceBudget(nil, true)
			r.evictMu.Unlock()
		}
	}
}

// wakeEvictor asks the evictor for a pass, without waiting for it,
// when the resident set is over the budget. Wakes that arrive while one
// is pending coalesce into it.
func (r *Registry) wakeEvictor() {
	if r.wake == nil {
		return
	}
	if _, total := r.pickVictim(false); total <= r.cfg.ResidentBudget {
		return
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// makeRoom runs before a request brings a model into memory. When the
// resident bytes, less the model the evictor is writing, already
// exceed the budget, it evicts inline: it waits for the eviction in
// flight, then evicts until the set fits. The wait and its own
// evictions are one registry.evict span on sp (nil: none), annotated
// with the bytes it evicted and the WAL records those evictions folded
// into snapshots (both 0 when the evictor's pass made the room).
func (r *Registry) makeRoom(sp *obs.Spans) {
	if r.wake == nil {
		return
	}
	if _, total := r.pickVictim(false); total-r.evicting.Load() <= r.cfg.ResidentBudget {
		return
	}
	id := sp.Start("registry.evict", sp.Parent())
	defer sp.End(id)
	r.evictMu.Lock()
	bytes, walRecords := r.enforceBudget(sp, false)
	r.evictMu.Unlock()
	sp.Annotate(id, "bytes", bytes)
	sp.Annotate(id, "wal_records", walRecords)
}

// enforceBudget evicts the resident model pickVictim names until
// resident bytes fit the budget, raising the inflation value to each
// victim's credit. With spareMRU it never evicts the most recently used
// model: the evictor's pass runs after the request that woke it, and
// evicting the model that request used would thrash. Caller holds
// r.evictMu. Snapshots of dirty victims record on sp (nil: none). It
// returns the bytes it evicted and the WAL records those evictions
// folded into snapshots.
func (r *Registry) enforceBudget(sp *obs.Spans, spareMRU bool) (bytes, walRecords int64) {
	for {
		victim, total := r.pickVictim(spareMRU)
		if total <= r.cfg.ResidentBudget || victim == nil {
			return bytes, walRecords
		}
		victim.mu.Lock()
		// Re-check under the entry lock: the model may have been deleted
		// or evicted, or the registry closed, while we were choosing it.
		// e.wal is non-nil exactly while none of that has happened.
		if victim.wal != nil {
			size, records := int64(victim.sv.Load().ResidentBytes()), int64(victim.wal.Records())
			r.evicting.Store(size)
			if r.beforeEvict != nil {
				r.beforeEvict(victim.name)
			}
			err := r.evictLocked(sp, victim)
			r.evicting.Store(0)
			if err != nil {
				victim.mu.Unlock()
				return bytes, walRecords
			}
			if c := victim.credit.Load(); c > r.inflation.Load() {
				r.inflation.Store(c)
			}
			bytes += size
			walRecords += records
		}
		victim.mu.Unlock()
	}
}

// pickVictim returns the resident entry with the lowest GreedyDual
// credit, the least recently used among equal credits, plus the
// current total resident bytes. With spareMRU it never returns the most
// recently used entry: when that one has the lowest credit it returns
// the next lowest, and no victim when it is the only one resident. It
// reads only atomics, so it takes no entry lock. A closed registry has
// no victim and counts no bytes.
func (r *Registry) pickVictim(spareMRU bool) (*entry, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, 0
	}
	// first and second are the two lowest ranks, in order.
	var first, second rank
	var mru *entry
	var mruUse, total int64
	for _, e := range r.entries {
		sv := e.sv.Load()
		if sv == nil {
			continue
		}
		total += int64(sv.ResidentBytes())
		k := rank{e, e.credit.Load(), e.lastUse.Load()}
		if first.e == nil || k.below(first) {
			first, second = k, first
		} else if second.e == nil || k.below(second) {
			second = k
		}
		if mru == nil || k.use > mruUse {
			mru, mruUse = e, k.use
		}
	}
	if spareMRU && first.e == mru {
		return second.e, total
	}
	return first.e, total
}

// rank is a resident entry's place in the eviction order.
type rank struct {
	e           *entry
	credit, use int64
}

// below reports whether a is evicted before b: a lower credit, or an
// equal one and an older use.
func (a rank) below(b rank) bool {
	return a.credit < b.credit || a.credit == b.credit && a.use < b.use
}

// evictLocked drops e's resident state. A dirty model — any WAL
// record, stale crash-gap records included — is snapshotted first,
// folding its log in; a clean one already is its snapshot plus an
// empty log, so it writes nothing. It runs under r.evictMu, on the
// evictor, on a request making room or under EnforceBudget; only a
// request's snapshot lands on a recorder, sp. Caller holds e.mu; the
// model is resident.
func (r *Registry) evictLocked(sp *obs.Spans, e *entry) error {
	sv := e.sv.Load()
	if e.wal.Records() > 0 {
		if err := r.snapshotLocked(sp, e); err != nil {
			return err
		}
	}
	e.wal.Close()
	e.wal = nil
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.sv.Store(nil)
	m := r.m()
	m.RecordOp(e.name, "evict")
	m.RecordEviction()
	return nil
}

// List returns every model's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		out = append(out, r.info(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelInfo returns one model's Info.
func (r *Registry) ModelInfo(name string) (Info, error) {
	e, err := r.lookup(name)
	if err != nil {
		return Info{}, err
	}
	return r.info(e), nil
}

func (r *Registry) info(e *entry) Info {
	e.mu.Lock()
	defer e.mu.Unlock()
	return r.infoLocked(e)
}

// infoLocked is info for callers already holding e.mu.
func (r *Registry) infoLocked(e *entry) Info {
	info := Info{
		Name:                    e.name,
		Generation:              e.generation,
		Classes:                 e.classes,
		WALRecords:              e.walRecords,
		RollingAccuracyPermille: e.drift.RollingAccuracyPermille(),
	}
	if sv := e.sv.Load(); sv != nil {
		info.Resident = true
		info.Generation = sv.Generation()
		info.Classes = sv.Classes()
		info.ResidentBytes = sv.ResidentBytes()
	}
	return info
}

// Len returns how many models are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// RegisterMetrics exposes the registry's fleet gauges and its
// per-model state gauges on reg, every one read from List at scrape
// time, so a scrape reports exactly what GET /models would.
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	fleet := func(name, help string, v func(Info) int64) {
		reg.RegisterGaugeFunc(name, help, func() int64 {
			var sum int64
			for _, info := range r.List() {
				sum += v(info)
			}
			return sum
		})
	}
	fleet("pulphd_registry_models", "models registered in the model registry",
		func(Info) int64 { return 1 })
	fleet("pulphd_registry_resident_models", "registry models currently resident in memory",
		func(i Info) int64 {
			if i.Resident {
				return 1
			}
			return 0
		})
	fleet("pulphd_registry_resident_bytes", "summed resident footprint of in-memory registry models in bytes",
		func(i Info) int64 { return int64(i.ResidentBytes) })
	perModel := func(name, help string, v func(Info) int64) {
		reg.RegisterGaugeVecFunc(name, help, "model", func() []obs.GaugeCell {
			infos := r.List()
			cells := make([]obs.GaugeCell, len(infos))
			for i, info := range infos {
				cells[i] = obs.GaugeCell{Value: info.Name, Gauge: v(info)}
			}
			return cells
		})
	}
	perModel("pulphd_model_generation", "published model generation by model",
		func(i Info) int64 { return int64(i.Generation) })
	perModel("pulphd_model_classes", "classes in the published generation by model",
		func(i Info) int64 { return int64(i.Classes) })
	perModel("pulphd_model_resident_bytes", "resident footprint in bytes by model (0: evicted to disk)",
		func(i Info) int64 { return int64(i.ResidentBytes) })
	perModel("pulphd_model_wal_records", "un-snapshotted WAL records by model (the replay a restart pays)",
		func(i Info) int64 { return int64(i.WALRecords) })
	perModel("pulphd_model_rolling_accuracy_permille", "rolling correction agreement by model, in 1/1000 (-1: no signal yet)",
		func(i Info) int64 { return i.RollingAccuracyPermille })
}

// Close marks the registry closed, stops the evictor once its eviction
// in flight is done, snapshots every resident model with a non-empty
// WAL (folding the tail into a clean snapshot; a clean model's
// snapshot already is its state) and closes the logs. The first error
// is returned but every model is still attempted.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	if r.stop != nil {
		close(r.stop)
		<-r.evictorDone
	}
	var first error
	for _, e := range entries {
		e.mu.Lock()
		// e.wal is non-nil exactly while e is resident and persistent.
		if e.wal != nil && e.wal.Records() > 0 {
			if err := r.snapshotLocked(nil, e); err != nil && first == nil {
				first = err
			}
		}
		if e.wal != nil {
			if err := e.wal.Close(); err != nil && first == nil {
				first = err
			}
			e.wal = nil
		}
		e.mu.Unlock()
	}
	return first
}
