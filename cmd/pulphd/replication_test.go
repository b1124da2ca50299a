package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pulphd/internal/obs"
	modreg "pulphd/internal/registry"
	"pulphd/internal/replica"
)

// replNode is one serve-tier process stood up in-process: an API
// server plus the replica sync handler on one mux, exactly what
// `pulphd serve` mounts for any role.
type replNode struct {
	api *apiServer
	reg *modreg.Registry
	srv *httptest.Server
}

func bootReplNode(t *testing.T, dir string, readOnly bool) *replNode {
	t.Helper()
	reg, err := modreg.Open(modreg.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if !reg.Has("default") {
		if _, err := reg.Create("default", testServingConfig()); err != nil {
			t.Fatal(err)
		}
	}
	api := newRegistryAPIServer(reg, "default", testServingConfig(), 8, nil)
	api.readOnly = readOnly
	mux := http.NewServeMux()
	api.register(mux)
	replica.NewHandler(reg).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &replNode{api: api, reg: reg, srv: srv}
}

// TestReplicationEndToEnd is the ISSUE's E2E demo in-process: primary
// + two read-only replicas + consistent-hash front. A learn through
// the front must become visible on every replica within one sync
// cycle, the lag gauge must return to zero, and read-your-writes must
// hold in the stale window between learn and sync.
func TestReplicationEndToEnd(t *testing.T) {
	cfg := testServingConfig()
	primary := bootReplNode(t, t.TempDir(), false)
	repA := bootReplNode(t, "", true)
	repB := bootReplNode(t, "", true)

	syncers := make([]*replica.Syncer, 0, 2)
	metricRegs := make([]*obs.Registry, 0, 2)
	for _, rep := range []*replNode{repA, repB} {
		s, err := replica.NewSyncer(replica.SyncConfig{
			Primary: primary.srv.URL, Registry: rep.reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		mr := obs.NewRegistry()
		s.RegisterMetrics(mr)
		syncers = append(syncers, s)
		metricRegs = append(metricRegs, mr)
	}

	fr, err := replica.NewFront(replica.FrontConfig{
		Primary:  primary.srv.URL,
		Replicas: []string{repA.srv.URL, repB.srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmux := http.NewServeMux()
	fr.Register(fmux)
	front := httptest.NewServer(fmux)
	defer front.Close()
	ctx := context.Background()
	fr.ProbeOnce(ctx)

	session := map[string]string{"X-PULPHD-Session": "emg-armband-7"}

	// Writes go through the front to the primary; the response carries
	// the new generation.
	var learned uint64
	for i := 0; i < 4; i++ {
		code, body := doJSONAt(t, front.URL, "POST", "/learn", modelBody(cfg, 8, "wave"), session)
		if code != http.StatusOK {
			t.Fatalf("learn via front: %d %s", code, body)
		}
		var lr struct {
			Generation uint64 `json:"generation"`
		}
		mustUnmarshal(t, body, &lr)
		if lr.Generation <= learned {
			t.Fatalf("learn generation did not advance: %d then %d", learned, lr.Generation)
		}
		learned = lr.Generation
	}
	pinfo, err := primary.reg.ModelInfo("default")
	if err != nil {
		t.Fatal(err)
	}
	if pinfo.Generation != learned {
		t.Fatalf("primary at generation %d, front acknowledged %d", pinfo.Generation, learned)
	}

	// Stale window: replicas have not synced, so the session's predicts
	// must not read a pre-learn model. (They fall back to the primary.)
	code, body := doJSONAt(t, front.URL, "POST", "/predict", modelBody(cfg, 8, ""), session)
	if code != http.StatusOK {
		t.Fatalf("predict in stale window: %d %s", code, body)
	}

	// One sync cycle per replica: both converge, lag gauges read zero.
	for i, s := range syncers {
		if err := s.SyncOnce(ctx); err != nil {
			t.Fatalf("replica %d sync: %v", i, err)
		}
		var buf bytes.Buffer
		if err := metricRegs[i].WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		want := `pulphd_replica_lag_generations{model="default"} 0`
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("replica %d metrics missing %q:\n%s", i, want, buf.String())
		}
	}
	for i, rep := range []*replNode{repA, repB} {
		info, err := rep.reg.ModelInfo("default")
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if info.Generation != learned {
			t.Fatalf("replica %d at generation %d after sync, want %d", i, info.Generation, learned)
		}
	}

	// After a probe sees the caught-up generations, the session's
	// predicts pin back onto the replica ring and still answer.
	fr.ProbeOnce(ctx)
	code, body = doJSONAt(t, front.URL, "POST", "/predict", modelBody(cfg, 8, ""), session)
	if code != http.StatusOK {
		t.Fatalf("predict after catch-up: %d %s", code, body)
	}
	var pr struct {
		Label string `json:"label"`
	}
	mustUnmarshal(t, body, &pr)
	if pr.Label == "" {
		t.Fatalf("predict answered no label: %s", body)
	}
}

// TestReplicaMinGenerationReadyz: /readyz?model=X&min_generation=N is
// how the front asks "has this replica caught up" — 200 at or past N,
// 503 behind it.
func TestReplicaMinGenerationReadyz(t *testing.T) {
	node := bootReplNode(t, t.TempDir(), false)
	cfg := testServingConfig()
	code, body := doJSONAt(t, node.srv.URL, "POST", "/learn", modelBody(cfg, 8, "wave"), nil)
	if code != http.StatusOK {
		t.Fatalf("learn: %d %s", code, body)
	}
	info, err := node.reg.ModelInfo("default")
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/readyz?model=default&min_generation=%d", info.Generation)
	if code, body := doJSONAt(t, node.srv.URL, "GET", path, "", nil); code != http.StatusOK {
		t.Fatalf("readyz at current generation: %d %s", code, body)
	}
	path = fmt.Sprintf("/readyz?model=default&min_generation=%d", info.Generation+1)
	if code, _ := doJSONAt(t, node.srv.URL, "GET", path, "", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz past current generation: %d, want 503", code)
	}
	if code, _ := doJSONAt(t, node.srv.URL, "GET", "/readyz?model=default&min_generation=bogus", "", nil); code != http.StatusBadRequest {
		t.Fatalf("readyz with bad min_generation: %d, want 400", code)
	}
	if code, _ := doJSONAt(t, node.srv.URL, "GET", "/readyz?model=nosuch", "", nil); code != http.StatusNotFound {
		t.Fatalf("readyz for unknown model: %d, want 404", code)
	}
}

// TestReplicaRefusesWrites: the read-only guard — a replica answers
// 403 to learns and model admin so a misrouted write can never be
// silently overwritten by the next sync.
func TestReplicaRefusesWrites(t *testing.T) {
	node := bootReplNode(t, "", true)
	cfg := testServingConfig()
	for _, rq := range []struct{ method, path, body string }{
		{"POST", "/learn", modelBody(cfg, 8, "wave")},
		{"POST", "/models/default/learn", modelBody(cfg, 8, "wave")},
		{"POST", "/models", `{"name":"rogue"}`},
		{"DELETE", "/models/default", ""},
	} {
		code, body := doJSONAt(t, node.srv.URL, rq.method, rq.path, rq.body, nil)
		if code != http.StatusForbidden {
			t.Fatalf("%s %s on a replica: %d %s, want 403", rq.method, rq.path, code, body)
		}
	}
	// Reads still serve. (Train through the registry directly — that is
	// what Syncer.Install amounts to; only the HTTP write surface is
	// guarded.)
	if err := node.reg.Learn("default", "wave", testWindow(cfg, 8)); err != nil {
		t.Fatal(err)
	}
	if code, body := doJSONAt(t, node.srv.URL, "POST", "/predict", modelBody(cfg, 8, ""), nil); code != http.StatusOK {
		t.Fatalf("predict on a replica: %d %s", code, body)
	}
}

// doJSONAt is doJSON against a raw base URL (the front's httptest
// server is not an *httptest.Server handed back by a helper).
func doJSONAt(t *testing.T, base, method, path, body string, header map[string]string) (int, string) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequest(method, base+path, rd)
	} else {
		req, err = http.NewRequest(method, base+path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func mustUnmarshal(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}
