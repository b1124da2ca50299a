package registry

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"pulphd/internal/fault"
	"pulphd/internal/hdc"
)

// This file is the crash-consistency proof of the registry: property
// tests drive random online-learning sequences against a persistent
// registry, kill it without Close (a process crash loses nothing the
// page cache holds), corrupt or tear the WAL tail the way a real
// crash or bad sector would, and assert the reopened registry is
// byte-identical to some acknowledged prefix of the original model —
// never a torn hybrid, never older than the last snapshot.

// crashTrial is one randomized crash-recovery scenario.
type crashTrial struct {
	backend hdc.Backend
	// corrupt selects what happens to the WAL between crash and
	// recovery: "clean" nothing, "truncate" a random tear, "bitflip" a
	// fault-model XOR over the tail bytes.
	corrupt string
}

func TestCrashRecoveryProperty(t *testing.T) {
	trials := []crashTrial{
		{hdc.BackendStored, "clean"},
		{hdc.BackendStored, "truncate"},
		{hdc.BackendStored, "bitflip"},
		{hdc.BackendRemat, "clean"},
		{hdc.BackendRemat, "truncate"},
		{hdc.BackendRemat, "bitflip"},
	}
	for _, trial := range trials {
		trial := trial
		t.Run(fmt.Sprintf("%s_%s", trial.backend, trial.corrupt), func(t *testing.T) {
			for round := int64(0); round < 3; round++ {
				runCrashTrial(t, trial, round)
			}
		})
	}
}

// runCrashTrial drives one random Learn/Correct sequence with
// snapshots at random points, crashes (no Close), corrupts the WAL
// per the trial, reopens, and checks the recovered model against the
// mirror's state history.
func runCrashTrial(t *testing.T, trial crashTrial, round int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(round*1000 + int64(trial.backend)*100 + int64(len(trial.corrupt))))
	cfg := testConfig(trial.backend)
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	// mirror applies the identical sequence in memory; stateAt[g] is
	// its serialized state at generation g.
	mirror, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	stateAt := [][]byte{servingBytes(t, mirror)}
	labels := []string{"rest", "fist", "point", "grip"}
	ops := 10 + rng.Intn(20)
	lastSnapGen := uint64(0)
	for i := 0; i < ops; i++ {
		label := labels[rng.Intn(len(labels))]
		window := randomWindow(cfg, rng)
		var applyErr error
		if rng.Intn(3) == 0 {
			applyErr = r.CorrectCtx(context.Background(), "m", label, window)
		} else {
			applyErr = r.Learn("m", label, window)
		}
		if applyErr != nil {
			t.Fatalf("op %d: %v", i, applyErr)
		}
		if err := mirror.Learn(label, window); err != nil {
			t.Fatalf("mirror op %d: %v", i, err)
		}
		stateAt = append(stateAt, servingBytes(t, mirror))
		if rng.Intn(8) == 0 {
			if err := r.Snapshot("m"); err != nil {
				t.Fatal(err)
			}
			lastSnapGen = uint64(i + 1)
		}
	}
	finalGen := uint64(ops)

	// Crash: the registry is dropped without Close. Open WAL file
	// handles die with the process; the bytes written are in the page
	// cache and survive.
	walPath := r.walPath("m")
	switch trial.corrupt {
	case "truncate":
		tearTail(t, walPath, rng)
	case "bitflip":
		flipTail(t, walPath, rng, round)
	}

	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer r2.Close()
	sv, err := r2.Serving(nil, "m")
	if err != nil {
		t.Fatalf("recovering model: %v", err)
	}
	gen := sv.Generation()
	if trial.corrupt == "clean" && gen != finalGen {
		t.Fatalf("clean crash recovered generation %d, want %d", gen, finalGen)
	}
	if gen < lastSnapGen {
		t.Fatalf("recovered generation %d older than last snapshot %d", gen, lastSnapGen)
	}
	if gen > finalGen {
		t.Fatalf("recovered generation %d beyond anything acknowledged (%d)", gen, finalGen)
	}
	// The recovered model is byte-identical to the mirror at the same
	// generation: an exact acknowledged prefix, never a torn hybrid.
	if got := servingBytes(t, sv); !bytes.Equal(got, stateAt[gen]) {
		t.Fatalf("recovered state at generation %d differs from the mirror prefix", gen)
	}
}

// tearTail truncates the WAL at a random byte short of its end, as a
// crash mid-append would.
func tearTail(t *testing.T, path string, rng *rand.Rand) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		return
	}
	if err := os.Truncate(path, rng.Int63n(st.Size())); err != nil {
		t.Fatal(err)
	}
}

// flipTail XORs a deterministic fault-model bit mask over the WAL's
// tail bytes — the same bit-error channel internal/fault injects into
// memories, aimed at the log. CRC framing must contain the damage to
// a dropped suffix.
func flipTail(t *testing.T, path string, rng *rand.Rand, seed int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 {
		return
	}
	start := rng.Intn(len(data))
	m := fault.Model{BER: 0.01, Seed: seed + 1}
	words := make([]uint32, (len(data)-start+3)/4)
	for i := range words {
		end := min(start+4*i+4, len(data))
		var w [4]byte
		copy(w[:], data[start+4*i:end])
		words[i] = binary.LittleEndian.Uint32(w[:])
	}
	m.CorruptWords(fault.SiteOf(fault.PointDMA, 0), words, 32)
	for i := range words {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], words[i])
		copy(data[start+4*i:min(start+4*i+4, len(data))], w[:])
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKillNineRecoversEveryModel is the acceptance scenario: several
// models take online learns, the process dies without any shutdown
// (registry never closed, WAL never fsynced), and a fresh process
// recovers every model to its exact pre-kill generation, byte for
// byte.
func TestKillNineRecoversEveryModel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	type tenant struct {
		name    string
		backend hdc.Backend
		mirror  *hdc.Serving
	}
	tenants := []*tenant{
		{name: "emg-a", backend: hdc.BackendStored},
		{name: "emg-b", backend: hdc.BackendStored},
		{name: "emg-c", backend: hdc.BackendRemat},
	}
	for _, tn := range tenants {
		cfg := testConfig(tn.backend)
		if _, err := r.Create(tn.name, cfg); err != nil {
			t.Fatal(err)
		}
		tn.mirror, err = hdc.NewServing(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	labels := []string{"rest", "fist", "point"}
	for i := 0; i < 60; i++ {
		tn := tenants[rng.Intn(len(tenants))]
		cfg := testConfig(tn.backend)
		label := labels[rng.Intn(len(labels))]
		window := randomWindow(cfg, rng)
		if err := r.Learn(tn.name, label, window); err != nil {
			t.Fatal(err)
		}
		if err := tn.mirror.Learn(label, window); err != nil {
			t.Fatal(err)
		}
	}
	// kill -9: no Close, no snapshot, WAL handles abandoned.
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer r2.Close()
	if r2.Len() != len(tenants) {
		t.Fatalf("restart found %d models, want %d", r2.Len(), len(tenants))
	}
	for _, tn := range tenants {
		sv, err := r2.Serving(nil, tn.name)
		if err != nil {
			t.Fatalf("recovering %s: %v", tn.name, err)
		}
		if sv.Generation() != tn.mirror.Generation() {
			t.Fatalf("%s recovered at generation %d, want exact pre-kill %d",
				tn.name, sv.Generation(), tn.mirror.Generation())
		}
		if !bytes.Equal(servingBytes(t, sv), servingBytes(t, tn.mirror)) {
			t.Fatalf("%s recovered state differs from pre-kill state", tn.name)
		}
	}
}

// TestRecoveryAcrossSnapshotCrashGap pins the checkpoint-LSN guard: a
// crash between "snapshot renamed into place" and "WAL truncated"
// leaves the full WAL next to a snapshot that already folded some of
// it in. Replay must skip the already-folded records or the model
// double-applies its own history.
func TestRecoveryAcrossSnapshotCrashGap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := testConfig(hdc.BackendStored)
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	mirror, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(label string) {
		t.Helper()
		w := randomWindow(cfg, rng)
		if err := r.Learn("m", label, w); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Learn(label, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		apply("fist")
	}
	// Save the 5-record WAL, snapshot (which truncates it), then put
	// the stale full WAL back — exactly the on-disk picture of a crash
	// in the gap.
	staleWAL, err := os.ReadFile(r.walPath("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot("m"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.walPath("m"), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	// The 1-byte budget evicts nothing on its own (a lone model is
	// always the one just used); EnforceBudget below evicts on demand.
	r2, err := Open(Config{Dir: dir, ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	sv, err := r2.Serving(nil, "m")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 5 {
		t.Fatalf("recovered generation %d, want 5 (stale records must not double-apply)", sv.Generation())
	}
	if !bytes.Equal(servingBytes(t, sv), servingBytes(t, mirror)) {
		t.Fatal("recovered state differs after snapshot-gap crash")
	}
	// The stale records make the model dirty: evicting it folds them
	// into a snapshot and empties the WAL, and a second fault-in comes
	// back at the same generation.
	r2.EnforceBudget()
	if info, _ := r2.ModelInfo("m"); info.Resident {
		t.Fatal("model still resident after eviction")
	}
	if st, err := os.Stat(r2.walPath("m")); err != nil {
		t.Fatal(err)
	} else if st.Size() != 0 {
		t.Fatalf("eviction left %d bytes of stale records in the wal", st.Size())
	}
	if sv, err = r2.Serving(nil, "m"); err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 5 {
		t.Fatalf("second fault-in at generation %d, want 5", sv.Generation())
	}
	if !bytes.Equal(servingBytes(t, sv), servingBytes(t, mirror)) {
		t.Fatal("second fault-in differs from the mirror")
	}
	// And learning continues cleanly from the recovered state.
	w := randomWindow(cfg, rng)
	if err := r2.Learn("m", "rest", w); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Learn("rest", w); err != nil {
		t.Fatal(err)
	}
	sv2, _ := r2.Serving(nil, "m")
	if !bytes.Equal(servingBytes(t, sv2), servingBytes(t, mirror)) {
		t.Fatal("post-recovery learn diverged from the mirror")
	}
}
