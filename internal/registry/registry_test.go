package registry

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs"
)

// testConfig is a small model geometry that keeps these tests fast.
func testConfig(backend hdc.Backend) hdc.Config {
	cfg := hdc.EMGConfig()
	cfg.D = 640
	cfg.Backend = backend
	return cfg
}

// randomWindow draws one full-shape window with channel levels inside
// the CIM range.
func randomWindow(cfg hdc.Config, rng *rand.Rand) [][]float64 {
	w := make([][]float64, cfg.Window)
	span := cfg.MaxLevel - cfg.MinLevel
	for t := range w {
		row := make([]float64, cfg.Channels)
		for c := range row {
			row[c] = cfg.MinLevel + rng.Float64()*span
		}
		w[t] = row
	}
	return w
}

// servingBytes serializes sv's complete learner state; two models with
// equal bytes are the same model, accumulators and all.
func servingBytes(t *testing.T, sv *hdc.Serving) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := model.SaveServing(&buf, sv, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryCreateLookupDelete(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := testConfig(hdc.BackendStored)
	if _, err := r.Create("emg", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("emg", cfg); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := r.Create("../escape", cfg); !errors.Is(err, ErrInvalid) {
		t.Fatalf("path-escaping name: %v, want ErrInvalid", err)
	}
	if _, err := r.Create("nil-config", hdc.Config{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero config: %v, want ErrInvalid", err)
	}
	if _, err := r.Serving(nil, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent lookup: %v, want ErrNotFound", err)
	}
	sv, err := r.Serving(nil, "emg")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Classes() != 0 {
		t.Fatalf("fresh model has %d classes", sv.Classes())
	}
	// On-disk layout: manifest + snapshot + wal.
	for _, f := range []string{"MANIFEST", "emg.snap", "emg.wal"} {
		if _, err := os.Stat(filepath.Join(r.Dir(), f)); err != nil {
			t.Fatalf("missing %s after create: %v", f, err)
		}
	}
	if err := r.Delete("emg"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("emg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	for _, f := range []string{"emg.snap", "emg.wal"} {
		if _, err := os.Stat(filepath.Join(r.Dir(), f)); !os.IsNotExist(err) {
			t.Fatalf("%s survives delete", f)
		}
	}
}

func TestRegistryLearnAdvancesInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := testConfig(hdc.BackendStored)
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.Learn("m", "fist", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.CorrectInfo(nil, "m", "rest", randomWindow(cfg, rng))
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.ModelInfo("m")
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("CorrectInfo returned %+v, ModelInfo %+v", got, info)
	}
	if info.Generation != 6 || info.Classes != 2 || info.WALRecords != 6 || !info.Resident {
		t.Fatalf("info after 6 learns: %+v", info)
	}
	if err := r.Learn("m", "", randomWindow(cfg, rng)); err == nil {
		t.Fatal("empty label accepted")
	}
	if err := r.Learn("m", "x", [][]float64{{1}}); err == nil {
		t.Fatal("wrong-shape window accepted")
	}
	// Rejected learns advance nothing.
	if info2, _ := r.ModelInfo("m"); info2.Generation != 6 {
		t.Fatalf("generation moved to %d on rejected learns", info2.Generation)
	}
}

func TestRegistryListSorted(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := testConfig(hdc.BackendStored)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.Create(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	infos := r.List()
	if len(infos) != 3 || infos[0].Name != "alpha" || infos[1].Name != "mid" || infos[2].Name != "zeta" {
		t.Fatalf("List() = %+v, want alpha/mid/zeta", infos)
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d", r.Len())
	}
}

func TestRegistryEphemeralHasNoDisk(t *testing.T) {
	r, err := Open(Config{ResidentBudget: 1}) // budget ignored without a dir
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Persistent() {
		t.Fatal("ephemeral registry claims persistence")
	}
	cfg := testConfig(hdc.BackendStored)
	sv, err := r.Create("m", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		if err := r.Learn("m", "g", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// No eviction without a snapshot to fall back on: the model must
	// stay resident despite the 1-byte budget.
	if got, err := r.Serving(nil, "m"); err != nil || got != sv {
		t.Fatalf("ephemeral model evicted or replaced: %v %v", got, err)
	}
}

func TestRegistryEvictionAndFaultIn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig(hdc.BackendStored)
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("hot", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("cold", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Learn("cold", "a", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
		if err := r.Learn("hot", "b", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	coldBefore := servingBytes(t, mustServing(t, r, "cold"))
	// Touch hot last, then enforce: with a 1-byte budget every entry
	// but the most recent loser is evicted; the LRU victim is cold.
	if _, err := r.Serving(nil, "hot"); err != nil {
		t.Fatal(err)
	}
	r.EnforceBudget()
	if info, _ := r.ModelInfo("cold"); info.Resident {
		t.Fatal("cold model still resident after EnforceBudget")
	}
	// Fault-in restores the exact model: snapshot plus replayed WAL.
	coldAfter := servingBytes(t, mustServing(t, r, "cold"))
	if !bytes.Equal(coldBefore, coldAfter) {
		t.Fatal("fault-in did not restore the evicted model byte-identically")
	}
}

func mustServing(t *testing.T, r *Registry, name string) *hdc.Serving {
	t.Helper()
	sv, err := r.Serving(nil, name)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestRegistryClosedRejectsEverything(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("m", testConfig(hdc.BackendStored)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Serving(nil, "m"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serving after Close: %v, want ErrClosed", err)
	}
	if _, err := r.Create("n", testConfig(hdc.BackendStored)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after Close: %v, want ErrClosed", err)
	}
}

func TestRegistrySnapshotTruncatesWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig(hdc.BackendStored)
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.Learn("m", "g", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if info, _ := r.ModelInfo("m"); info.WALRecords != 4 {
		t.Fatalf("wal records %d, want 4", info.WALRecords)
	}
	if err := r.Snapshot("m"); err != nil {
		t.Fatal(err)
	}
	info, _ := r.ModelInfo("m")
	if info.WALRecords != 0 || info.Generation != 4 {
		t.Fatalf("after snapshot: %+v", info)
	}
	if st, err := os.Stat(filepath.Join(r.Dir(), "m.wal")); err != nil || st.Size() != 0 {
		t.Fatalf("wal not truncated after snapshot: %v %v", st, err)
	}
}

func TestRegistryAutoSnapshotCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig(hdc.BackendStored)
	r, err := Open(Config{Dir: t.TempDir(), SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := r.Learn("m", "g", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 learns at cadence 3: snapshots after learns 3 and 6, one record
	// left in the log.
	info, _ := r.ModelInfo("m")
	if info.WALRecords != 1 || info.Generation != 7 {
		t.Fatalf("after 7 learns at cadence 3: %+v", info)
	}
}

// TestCleanEvictionWritesNothing pins that eviction writes a snapshot
// only for a dirty model. A clean model's state already is its
// snapshot plus an empty WAL, so evicting it must leave the .snap file
// in place and the snapshot counter still; fault-in must still come
// back byte-identical. One learn makes it dirty, and the next eviction
// folds it in.
func TestCleanEvictionWritesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := testConfig(hdc.BackendStored)
	m := obs.NewRegistryMetrics()
	r, err := Open(Config{Dir: t.TempDir(), ResidentBudget: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Learn("m", "g", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Snapshot("m"); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(r.Dir(), "m.snap")
	// evictAndReload evicts m under the 1-byte budget and faults it back
	// in, reporting whether .snap is still the same file and how many
	// snapshots the round trip wrote.
	evictAndReload := func() (sameFile bool, snapshots int64) {
		t.Helper()
		sv := mustServing(t, r, "m")
		want, wantGen := servingBytes(t, sv), sv.Generation()
		before, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		snaps := m.Snapshots.Value()
		r.EnforceBudget()
		if info, _ := r.ModelInfo("m"); info.Resident {
			t.Fatal("model still resident after EnforceBudget")
		}
		after, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		snaps = m.Snapshots.Value() - snaps
		sv = mustServing(t, r, "m")
		if sv.Generation() != wantGen {
			t.Fatalf("fault-in at generation %d, want %d", sv.Generation(), wantGen)
		}
		if !bytes.Equal(servingBytes(t, sv), want) {
			t.Fatal("fault-in did not restore the evicted model byte-identically")
		}
		return os.SameFile(before, after), snaps
	}

	if same, snaps := evictAndReload(); !same || snaps != 0 {
		t.Fatalf("clean eviction: snapshot file kept %v, snapshots written %d; want kept and 0", same, snaps)
	}
	if err := r.Learn("m", "g", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	if same, snaps := evictAndReload(); same || snaps != 1 {
		t.Fatalf("dirty eviction: snapshot file kept %v, snapshots written %d; want replaced and 1", same, snaps)
	}
}

// TestEvictedModelFreedAtNextGC pins that nothing the serving paths
// leave behind keeps an evicted model alive: after a learn and a
// pooled predict, the first GC after eviction must find the model
// unreachable. Encode scratch that pointed at its model (a per-model
// sync.Pool) would hold it until the second GC.
func TestEvictedModelFreedAtNextGC(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir(), ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := testConfig(hdc.BackendStored)
	rng := rand.New(rand.NewSource(3))
	released := make(chan struct{})
	func() {
		sv, err := r.Create("m", cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(sv, func(*hdc.Serving) { close(released) })
		if err := r.Learn("m", "rest", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
		sv.Predict(randomWindow(cfg, rng))
	}()
	r.EnforceBudget()
	if info, _ := r.ModelInfo("m"); info.Resident {
		t.Fatal("model still resident after EnforceBudget")
	}
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted model survived the first GC after eviction")
	}
}

// TestRegisterMetricsReadsList scrapes the eight registry gauge
// families after class-adding learns and a correction. Each reads the
// registry's live state at scrape time, so every per-model cell agrees
// with List and the fleet's resident bytes are the sum of the models'
// — a copy pushed on some transitions and not others would go stale
// when a learn grows a model.
func TestRegisterMetricsReadsList(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	metrics := obs.NewRegistry()
	r.RegisterMetrics(metrics)
	cfg := testConfig(hdc.BackendStored)
	rng := rand.New(rand.NewSource(8))
	for _, name := range []string{"emg", "idle"} {
		if _, err := r.Create(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, label := range []string{"rest", "fist", "point"} {
		if err := r.Learn("emg", label, randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CorrectInfo(nil, "emg", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}

	snap := metrics.Snapshot()
	perModel := func(family string) map[string]int64 {
		cells, ok := snap[family].(map[string]int64)
		if !ok {
			t.Fatalf("%s: %T, want per-model cells", family, snap[family])
		}
		return cells
	}
	var sumBytes int64
	for _, info := range r.List() {
		for family, want := range map[string]int64{
			"pulphd_model_generation":                int64(info.Generation),
			"pulphd_model_classes":                   int64(info.Classes),
			"pulphd_model_resident_bytes":            int64(info.ResidentBytes),
			"pulphd_model_wal_records":               int64(info.WALRecords),
			"pulphd_model_rolling_accuracy_permille": info.RollingAccuracyPermille,
		} {
			if got := perModel(family)[info.Name]; got != want {
				t.Errorf("%s{model=%q} = %d, want %d", family, info.Name, got, want)
			}
		}
		sumBytes += perModel("pulphd_model_resident_bytes")[info.Name]
	}
	if got := snap["pulphd_registry_resident_bytes"]; got != sumBytes {
		t.Errorf("pulphd_registry_resident_bytes = %v, want the per-model sum %d", got, sumBytes)
	}
	if snap["pulphd_registry_models"] != int64(2) || snap["pulphd_registry_resident_models"] != int64(2) {
		t.Errorf("fleet gauges models=%v resident=%v, want 2 and 2",
			snap["pulphd_registry_models"], snap["pulphd_registry_resident_models"])
	}
	if acc := perModel("pulphd_model_rolling_accuracy_permille"); acc["idle"] != -1 || acc["emg"] < 0 {
		t.Errorf("rolling accuracy %v, want -1 for idle and a signal for emg", acc)
	}

	// A replica's installed model reports like any other: its
	// generation, and no drift signal yet.
	replica, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replicaMetrics := obs.NewRegistry()
	replica.RegisterMetrics(replicaMetrics)
	data, gen, err := r.ExportServing(nil, "emg")
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := model.LoadServing(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Install("emg", sv); err != nil {
		t.Fatal(err)
	}
	snap = replicaMetrics.Snapshot()
	if g := snap["pulphd_model_generation"].(map[string]int64)["emg"]; g != int64(gen) {
		t.Errorf("installed model generation %d, want %d", g, gen)
	}
	if acc, ok := snap["pulphd_model_rolling_accuracy_permille"].(map[string]int64)["emg"]; !ok || acc != -1 {
		t.Errorf("installed model rolling accuracy %d (present %v), want -1", acc, ok)
	}
}

// TestLearnErrInvalidOnlyForTheRecord pins which learn errors are the
// caller's: a window of the wrong shape is ErrInvalid, and a WAL that
// cannot be written is not.
func TestLearnErrInvalidOnlyForTheRecord(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := testConfig(hdc.BackendStored)
	rng := rand.New(rand.NewSource(4))
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	w := randomWindow(cfg, rng)
	w[0] = w[0][:cfg.Channels-1]
	if err := r.Learn("m", "g", w); !errors.Is(err, ErrInvalid) {
		t.Fatalf("learn with %d channels: %v, want ErrInvalid", cfg.Channels-1, err)
	}
	r.entries["m"].wal.Close()
	if err := r.Learn("m", "g", randomWindow(cfg, rng)); err == nil || errors.Is(err, ErrInvalid) {
		t.Fatalf("learn onto a closed WAL file: %v, want a non-ErrInvalid error", err)
	}
}
