package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"pulphd/internal/obs"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
	"pulphd/internal/replica"
)

// TestOperationsDocCoverage enforces the operator's handbook in both
// directions: every serve flag and every exported pulphd_* metric
// family must appear in docs/OPERATIONS.md, and every flag in its
// `pulphd serve` flag tables and every `pulphd_*` family it names must
// exist. A flag or metric added without documentation fails here, and
// so does a row left behind for one that was deleted, so the handbook
// cannot silently rot.
func TestOperationsDocCoverage(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("operator's handbook missing: %v", err)
	}
	doc := string(raw)

	// Every serve flag, straight from the flag set runServe parses.
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	newServeFlags(fs)
	var missing []string
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "`-"+f.Name+"`") {
			missing = append(missing, "-"+f.Name)
		}
	})
	if len(missing) > 0 {
		t.Errorf("serve flags undocumented in docs/OPERATIONS.md: %v", missing)
	}

	// Every flag row of the serve flag tables (§2.1) names a real flag.
	_, section, _ := strings.Cut(doc, "### 2.1 `pulphd serve`")
	section, _, _ = strings.Cut(section, "\n### ")
	rows := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)`").FindAllStringSubmatch(section, -1)
	if len(rows) == 0 {
		t.Fatal("docs/OPERATIONS.md §2.1 has no `pulphd serve` flag table rows")
	}
	var stale []string
	for _, row := range rows {
		if fs.Lookup(row[1]) == nil {
			stale = append(stale, "-"+row[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md documents serve flags that do not exist: %v", stale)
	}

	// Every metric family any role can export: host + runtime + SLO
	// engine + model registry + replica syncer + front, all in one
	// registry (the registry panics on duplicate names, which also
	// proves the families are disjoint).
	h := obs.NewHostMetrics()
	obs.RegisterRuntimeMetrics(h.Registry)
	sloeng.New(sloeng.Config{}).RegisterMetrics(h.Registry)
	reg, err := modreg.Open(modreg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.RegisterMetrics(h.Registry)
	syncer, err := replica.NewSyncer(replica.SyncConfig{
		Primary: "http://primary.invalid", Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	syncer.RegisterMetrics(h.Registry)
	front, err := replica.NewFront(replica.FrontConfig{
		Primary: "http://primary.invalid", Replicas: []string{"http://replica.invalid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	front.RegisterMetrics(h.Registry)

	missing = missing[:0]
	exported := map[string]bool{}
	for _, name := range h.Registry.Names() {
		exported[name] = true
		if !strings.Contains(doc, "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("metric families undocumented in docs/OPERATIONS.md (%d): %v", len(missing), missing)
	}

	// Every `pulphd_*` family the handbook names is exported.
	stale = stale[:0]
	for _, m := range regexp.MustCompile("`(pulphd_[a-z0-9_]+)`").FindAllStringSubmatch(doc, -1) {
		if !exported[m[1]] {
			stale = append(stale, m[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md names metric families that do not exist (%d): %v", len(stale), stale)
	}
}

// TestOperationsDocEndpoints spot-checks that the endpoint catalog
// names the routes the binary actually registers, including the
// replication surface.
func TestOperationsDocEndpoints(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, ep := range []string{
		"/predict", "/learn", "/healthz", "/readyz", "/models",
		"/metrics", "/debug/flight", "/debug/spans",
		"/replica/v1/models", "/replica/v1/models/{name}/snapshot",
		"min_generation", "ifnewer",
	} {
		if !strings.Contains(doc, ep) {
			t.Errorf("endpoint %s missing from docs/OPERATIONS.md", ep)
		}
	}
}
