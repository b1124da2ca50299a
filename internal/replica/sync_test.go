package replica

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs/flight"
	"pulphd/internal/registry"
)

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

// newPrimary boots a persistent registry with the sync handler
// mounted, returning the registry and its HTTP server.
func newPrimary(t *testing.T, budget int64) (*registry.Registry, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(registry.Config{
		Dir: t.TempDir(), ResidentBudget: budget, SnapshotEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	mux := http.NewServeMux()
	NewHandler(reg).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return reg, srv
}

func newTestSyncer(t *testing.T, primaryURL string) (*Syncer, *registry.Registry) {
	t.Helper()
	return newTracedSyncer(t, primaryURL, nil, nil)
}

// newTracedSyncer is newTestSyncer recording its cycles into the spans
// and flight rings (either may be nil).
func newTracedSyncer(t *testing.T, primaryURL string, spans, fl *flight.Ring) (*Syncer, *registry.Registry) {
	t.Helper()
	rep, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	s, err := NewSyncer(SyncConfig{Primary: primaryURL, Registry: rep, Spans: spans, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

// TestReplicaSyncConverges is the replication property suite: random
// interleavings of Learn, snapshot, evict and sync on the primary
// must leave the replica serving byte-identical state at a generation
// the primary acknowledged — and once traffic stops, one more cycle
// converges every model exactly (the PR 8 mirror-recovery pattern,
// with the network in the loop).
func TestReplicaSyncConverges(t *testing.T) {
	cfg := testConfig(hdc.BackendRemat)
	labels := []string{"rest", "open", "fist"}
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			budget := int64(0)
			if trial%2 == 1 {
				budget = 1 // every enforce evicts: exercises cold export + WAL-tail upper bound
			}
			reg, srv := newPrimary(t, budget)
			names := []string{"m0", "m1", "m2"}
			for _, n := range names {
				if _, err := reg.Create(n, cfg); err != nil {
					t.Fatal(err)
				}
			}
			syncer, rep := newTestSyncer(t, srv.URL)
			// acked[name][gen] is the exact state the primary published at
			// that generation — the set of states a replica may serve.
			acked := map[string]map[uint64][]byte{}
			for _, n := range names {
				sv, err := reg.Serving(nil, n)
				if err != nil {
					t.Fatal(err)
				}
				acked[n] = map[uint64][]byte{0: servingBytes(t, sv)}
			}
			ctx := context.Background()
			for step := 0; step < 60; step++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(10) {
				case 0:
					if err := reg.Snapshot(name); err != nil {
						t.Fatalf("step %d snapshot: %v", step, err)
					}
				case 1:
					reg.EnforceBudget()
				case 2, 3:
					if err := syncer.SyncOnce(ctx); err != nil {
						t.Fatalf("step %d sync: %v", step, err)
					}
					checkReplicaState(t, step, rep, acked)
				default:
					if err := reg.Learn(name, labels[rng.Intn(len(labels))], randomWindow(cfg, rng)); err != nil {
						t.Fatalf("step %d learn: %v", step, err)
					}
					sv, err := reg.Serving(nil, name)
					if err != nil {
						t.Fatal(err)
					}
					acked[name][sv.Generation()] = servingBytes(t, sv)
				}
			}
			// Quiesce: one final cycle must converge every model exactly.
			if err := syncer.SyncOnce(ctx); err != nil {
				t.Fatalf("final sync: %v", err)
			}
			for _, n := range names {
				psv, err := reg.Serving(nil, n)
				if err != nil {
					t.Fatal(err)
				}
				rsv, err := rep.Serving(nil, n)
				if err != nil {
					t.Fatalf("model %q missing on replica: %v", n, err)
				}
				if rsv.Generation() != psv.Generation() {
					t.Fatalf("model %q: replica at generation %d, primary at %d", n, rsv.Generation(), psv.Generation())
				}
				if !bytes.Equal(servingBytes(t, rsv), servingBytes(t, psv)) {
					t.Fatalf("model %q: replica state diverged from primary at generation %d", n, psv.Generation())
				}
			}
		})
	}
}

// checkReplicaState asserts every replica model serves exactly a
// state the primary acknowledged at that generation.
func checkReplicaState(t *testing.T, step int, rep *registry.Registry, acked map[string]map[uint64][]byte) {
	t.Helper()
	for _, info := range rep.List() {
		sv, err := rep.Serving(nil, info.Name)
		if err != nil {
			t.Fatalf("step %d: replica model %q: %v", step, info.Name, err)
		}
		want, ok := acked[info.Name][sv.Generation()]
		if !ok {
			t.Fatalf("step %d: replica serves model %q at generation %d the primary never acknowledged", step, info.Name, sv.Generation())
		}
		if !bytes.Equal(servingBytes(t, sv), want) {
			t.Fatalf("step %d: replica model %q at generation %d is not byte-identical to the acknowledged state", step, info.Name, sv.Generation())
		}
	}
}

// TestSyncDropsDeletedModels: a model deleted on the primary leaves
// the replica on the next cycle.
func TestSyncDropsDeletedModels(t *testing.T) {
	cfg := testConfig(hdc.BackendRemat)
	reg, srv := newPrimary(t, 0)
	for _, n := range []string{"keep", "drop"} {
		if _, err := reg.Create(n, cfg); err != nil {
			t.Fatal(err)
		}
	}
	syncer, rep := newTestSyncer(t, srv.URL)
	ctx := context.Background()
	if err := syncer.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !rep.Has("drop") {
		t.Fatal("replica missing model before delete")
	}
	if err := reg.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	if err := syncer.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Has("drop") {
		t.Fatal("replica kept a model the primary deleted")
	}
	if !rep.Has("keep") {
		t.Fatal("replica dropped a live model")
	}
}

// TestSyncRejectsTornTransfer: a truncated or corrupted snapshot
// stream fails the CRC frame and must install nothing — the replica
// keeps serving its previous generation and converges once the
// transfer heals.
func TestSyncRejectsTornTransfer(t *testing.T) {
	cfg := testConfig(hdc.BackendRemat)
	rng := rand.New(rand.NewSource(7))
	reg, url, tear := tearingPrimary(t, rng)
	syncer, rep := newTestSyncer(t, url)
	ctx := context.Background()
	if err := syncer.SyncOnce(ctx); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	base, err := rep.Serving(nil, "m")
	if err != nil {
		t.Fatal(err)
	}
	baseGen := base.Generation()

	if err := reg.Learn("m", "open", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	for name, setup := range map[string]func(){
		"torn":    func() { tear(10, false) },
		"corrupt": func() { tear(0, true) },
	} {
		setup()
		if err := syncer.SyncOnce(ctx); err == nil {
			t.Fatalf("%s transfer: sync reported success", name)
		}
		sv, err := rep.Serving(nil, "m")
		if err != nil {
			t.Fatal(err)
		}
		if sv.Generation() != baseGen {
			t.Fatalf("%s transfer advanced the replica to generation %d", name, sv.Generation())
		}
	}
	tear(0, false)
	if err := syncer.SyncOnce(ctx); err != nil {
		t.Fatalf("healed sync: %v", err)
	}
	rsv, _ := rep.Serving(nil, "m")
	psv, _ := reg.Serving(nil, "m")
	if rsv == nil || psv == nil || rsv.Generation() != psv.Generation() {
		t.Fatal("replica did not converge after the transfer healed")
	}
	if !bytes.Equal(servingBytes(t, rsv), servingBytes(t, psv)) {
		t.Fatal("replica state diverged after healing")
	}
}

// tearingPrimary serves a persistent primary holding model m, taught
// one window. tear(n, false) truncates n bytes off every snapshot
// response, tear(0, true) flips a byte in each instead, and tear(0,
// false) heals the transfer.
func tearingPrimary(t *testing.T, rng *rand.Rand) (*registry.Registry, string, func(torn int, corrupt bool)) {
	t.Helper()
	cfg := testConfig(hdc.BackendRemat)
	reg, err := registry.Open(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Learn("m", "rest", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	inner := http.NewServeMux()
	NewHandler(reg).Register(inner)
	torn, corrupt := 0, false
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/snapshot") || (torn == 0 && !corrupt) {
			inner.ServeHTTP(w, r)
			return
		}
		recorder := httptest.NewRecorder()
		inner.ServeHTTP(recorder, r)
		body := recorder.Body.Bytes()
		if torn > 0 && len(body) > torn {
			body = body[:len(body)-torn]
		}
		if corrupt && len(body) > 20 {
			body = append([]byte(nil), body...)
			body[20] ^= 0xFF
		}
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return reg, srv.URL, func(n int, c bool) { torn, corrupt = n, c }
}

// TestSyncRecordsCycles pins what a sync cycle records. With the
// /debug/spans ring set, a cycle that pulls a snapshot keeps a
// replica.sync timeline whose replica.fetch child carries the bytes
// and the generation it installed; a torn transfer pins one error
// capture for replica.sync in the flight ring; and with both rings nil
// a cycle records nothing and still syncs.
func TestSyncRecordsCycles(t *testing.T) {
	cfg := testConfig(hdc.BackendRemat)
	rng := rand.New(rand.NewSource(7))
	reg, url, tear := tearingPrimary(t, rng)
	spans, fl := flight.NewRing(8, 64), flight.NewRing(8, 64)
	syncer, rep := newTracedSyncer(t, url, spans, fl)
	ctx := context.Background()
	if err := syncer.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	sv, err := rep.Serving(nil, "m")
	if err != nil {
		t.Fatal(err)
	}
	held := spans.Snapshot("replica.sync")
	if len(held) != 1 {
		t.Fatalf("spans ring holds %d replica.sync timelines after one cycle, want 1", len(held))
	}
	tl := held[0].Spans
	if len(tl) != 2 || tl[0].Name != "replica.sync" || tl[1].Name != "replica.fetch" || tl[1].Parent != 0 {
		t.Fatalf("cycle timeline %+v, want replica.sync → replica.fetch", tl)
	}
	attrs := map[string]int64{}
	for _, a := range tl[1].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["bytes"] <= 0 || attrs["generation"] != int64(sv.Generation()) {
		t.Fatalf("replica.fetch attrs %v, want bytes > 0 and generation %d", attrs, sv.Generation())
	}
	if fl.Captures() != 0 {
		t.Fatalf("a clean cycle pinned %d flight captures", fl.Captures())
	}

	if err := reg.Learn("m", "open", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	tear(10, false)
	if err := syncer.SyncOnce(ctx); err == nil {
		t.Fatal("torn transfer: sync reported success")
	}
	pinned := fl.Snapshot("")
	if len(pinned) != 1 || pinned[0].Model != "replica.sync" || pinned[0].Trigger&flight.TrigError == 0 {
		t.Fatalf("flight ring after a torn transfer: %+v, want one error capture for replica.sync", pinned)
	}
	if spans.Len() != 2 {
		t.Fatalf("spans ring holds %d cycles after two, want 2", spans.Len())
	}

	tear(0, false)
	plain, plainRep := newTestSyncer(t, url)
	if err := plain.SyncOnce(ctx); err != nil {
		t.Fatalf("untraced sync: %v", err)
	}
	psv, err := reg.Serving(nil, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := plainRep.Serving(nil, "m"); err != nil || got.Generation() != psv.Generation() {
		t.Fatalf("untraced cycle did not sync m to generation %d (err %v)", psv.Generation(), err)
	}
}

// TestSnapshotLongPoll: ?ifnewer at the current generation parks until
// the wait window lapses (304) or a learn publishes a newer one (200).
func TestSnapshotLongPoll(t *testing.T) {
	cfg := testConfig(hdc.BackendRemat)
	rng := rand.New(rand.NewSource(11))
	reg, srv := newPrimary(t, 0)
	if _, err := reg.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	gen := func() uint64 {
		info, err := reg.ModelInfo("m")
		if err != nil {
			t.Fatal(err)
		}
		return info.Generation
	}
	url := fmt.Sprintf("%s/replica/v1/models/m/snapshot?ifnewer=%d&wait=80ms", srv.URL, gen())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("idle long-poll answered %d, want 304", resp.StatusCode)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		reg.Learn("m", "rest", randomWindow(cfg, rng))
	}()
	url = fmt.Sprintf("%s/replica/v1/models/m/snapshot?ifnewer=%d&wait=2s", srv.URL, gen())
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll across a learn answered %d, want 200", resp.StatusCode)
	}
	sv, _, err := model.LoadServing(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Generation() == 0 {
		t.Fatal("long-poll returned the stale generation")
	}
}
