package registry

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pulphd/internal/hdc"
)

// The tests in this file pin the evictor's victim policy, GreedyDual
// credits. Each drives requests one at a time and lets the evictor
// settle after every one, so the eviction order is deterministic.

// settle waits until the evictor, woken by the request before, has
// brought the resident set within the budget and finished its pass.
// The next request then starts with no pass pending or running, so an
// access sequence evicts the same models in the same order on any
// host. A request that left the set within the budget woke nothing.
func settle(tb testing.TB, r *Registry) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for residentBytes(r) > r.cfg.ResidentBudget {
		if time.Now().After(deadline) {
			tb.Fatalf("resident %d B never settled within budget %d", residentBytes(r), r.cfg.ResidentBudget)
		}
		runtime.Gosched()
	}
	r.evictMu.Lock()
	r.evictMu.Unlock()
}

// recordEvictions returns the victims' names in eviction order. The
// slice is appended under the eviction mutex, so reading it after
// settle returns is ordered after every eviction so far.
func recordEvictions(r *Registry) *[]string {
	var victims []string
	r.beforeEvict = func(name string) { victims = append(victims, name) }
	return &victims
}

// openBudget opens the registry seeded in dir with a resident budget.
func openBudget(t *testing.T, dir string, budget int64) *Registry {
	t.Helper()
	r, err := Open(Config{Dir: dir, ResidentBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// use sends name one request and settles: a learn into its class g0,
// which leaves it dirty, or a predict-only lookup, which leaves it as
// it was.
func use(t *testing.T, r *Registry, name string, learn bool, rng *rand.Rand) {
	t.Helper()
	cfg := testConfig(hdc.BackendStored)
	if learn {
		if err := r.Learn(name, "g0", randomWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	} else {
		mustServing(t, r, name)
	}
	settle(t, r)
}

func resident(t *testing.T, r *Registry, name string) bool {
	t.Helper()
	info, err := r.ModelInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.Resident
}

// TestVictimOrderIsLRUWhenCostsAreEqual runs one random access
// sequence over six tenants, once with every request a predict (every
// model clean) and once with every request a learn (every resident
// model dirty). Either way every model costs the same to lose, so the
// evictions must come in exactly the order of a least-recently-used
// cache over the same bytes that spares the most recent model.
func TestVictimOrderIsLRUWhenCostsAreEqual(t *testing.T) {
	const tenants = 6
	cfg := testConfig(hdc.BackendStored)
	for _, learn := range []bool{false, true} {
		t.Run(map[bool]string{false: "clean", true: "dirty"}[learn], func(t *testing.T) {
			dir := t.TempDir()
			size := seedTenants(t, dir, cfg, tenants)
			budget := 3*size + size/2
			r := openBudget(t, dir, budget)
			victims := recordEvictions(r)
			rng := rand.New(rand.NewSource(11))

			var lru []string // resident models, least recently used first
			bytes := map[string]int64{}
			var want []string
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("t%d", rng.Intn(tenants))
				use(t, r, name, learn, rng)
				info, err := r.ModelInfo(name)
				if err != nil {
					t.Fatal(err)
				}
				bytes[name] = int64(info.ResidentBytes)
				lru = append(slices.DeleteFunc(lru, func(n string) bool { return n == name }), name)
				for sumBytes(lru, bytes) > budget && len(lru) > 1 {
					want = append(want, lru[0])
					lru = lru[1:]
				}
				if !slices.Equal(*victims, want) {
					t.Fatalf("request %d (%s): evicted %v, want LRU order %v", i, name, *victims, want)
				}
			}
			if len(want) < 50 {
				t.Fatalf("only %d evictions; the sequence does not exercise the policy", len(want))
			}
		})
	}
}

func sumBytes(names []string, bytes map[string]int64) int64 {
	var total int64
	for _, n := range names {
		total += bytes[n]
	}
	return total
}

// TestIdleDirtyModelOutlastsCleanOnes makes t0 dirty, then sends one
// predict to each of a stream of clean tenants under a budget of three
// models. Under LRU t0 would go first. Its credit is dirtyCost, so the
// clean tenants used after it go before it, each eviction raising the
// inflation, and t0 goes once the inflation reaches its credit, within
// a bounded number of evictions.
func TestIdleDirtyModelOutlastsCleanOnes(t *testing.T) {
	const visitors = 30
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, visitors+1)
	r := openBudget(t, dir, 3*size+size/2)
	victims := recordEvictions(r)
	rng := rand.New(rand.NewSource(12))

	use(t, r, "t0", true, rng)
	e, err := r.lookup("t0")
	if err != nil {
		t.Fatal(err)
	}
	credit := e.credit.Load()
	if credit != dirtyCost {
		t.Fatalf("dirty t0 credited %d, want %d", credit, dirtyCost)
	}
	evictedAt := 0
	for i := 1; i <= visitors && evictedAt == 0; i++ {
		use(t, r, fmt.Sprintf("t%d", i), false, rng)
		for n, v := range *victims {
			if v == "t0" {
				evictedAt = n + 1
			}
		}
		if evictedAt == 0 {
			if l := r.inflation.Load(); l >= credit {
				t.Fatalf("inflation %d reached t0's credit %d with t0 still resident", l, credit)
			}
		}
	}
	if len(*victims) == 0 || (*victims)[0] != "t1" {
		t.Fatalf("evictions %v: want the clean t1, used after dirty t0, to go first", *victims)
	}
	if evictedAt == 0 {
		t.Fatalf("idle dirty t0 still resident after %d evictions", len(*victims))
	}
	if l := r.inflation.Load(); l != credit {
		t.Fatalf("inflation %d after evicting t0, want its credit %d", l, credit)
	}
	// Each eviction that leaves the inflation where it is removes a
	// model credited at or below it, and new credits land above it, so
	// the inflation rises at least every fifth eviction (four models
	// resident during a pass). t0 goes before the inflation passes its
	// credit, dirtyCost levels up.
	if bound := (dirtyCost + 1) * 5; evictedAt > bound {
		t.Fatalf("t0 evicted %d-th, past the bound of %d", evictedAt, bound)
	}
	if resident(t, r, "t0") {
		t.Fatal("t0 resident after its eviction")
	}
}

// TestIdleDirtyModelsEndCold is the budget-pinning scenario: a budget
// of three models, two dirty models that then go idle, one clean hot
// model predicted on every other request, and a stream of clean
// one-off visitors between. The dirty models may hold their slots for
// a while, but the inflation must pass their credits: they end cold,
// and the hot model then stops faulting in.
func TestIdleDirtyModelsEndCold(t *testing.T) {
	const visitors = 60
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, visitors+3)
	r := openBudget(t, dir, 3*size+size/2)
	rng := rand.New(rand.NewSource(13))

	use(t, r, "t0", true, rng)
	use(t, r, "t1", true, rng)
	faultIns := 0
	for v := 0; v < visitors; v++ {
		if !resident(t, r, "t2") {
			faultIns++
			if v >= visitors/2 {
				t.Fatalf("hot t2 faulted in again at visitor %d of %d", v, visitors)
			}
		}
		use(t, r, "t2", false, rng)
		use(t, r, fmt.Sprintf("t%d", 3+v), false, rng)
	}
	for _, name := range []string{"t0", "t1"} {
		if resident(t, r, name) {
			t.Errorf("idle dirty %s still resident after %d visitors", name, visitors)
		}
	}
	if !resident(t, r, "t2") {
		t.Error("hot t2 not resident at the end")
	}
	t.Logf("hot t2 faulted in %d times", faultIns)
}

// TestEvictorPassSparesCheapestMRU fills a budget of two models with
// dirty ones, then predicts on a clean model: the newcomer has the
// lowest credit, but it is the most recently used, so the evictor's
// pass takes the next lowest, the older dirty model, and the newcomer
// stays.
func TestEvictorPassSparesCheapestMRU(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, 3)
	r := openBudget(t, dir, 2*size+size/2)
	victims := recordEvictions(r)
	rng := rand.New(rand.NewSource(14))

	use(t, r, "t0", true, rng)
	use(t, r, "t1", true, rng)
	use(t, r, "t2", false, rng)
	if !slices.Equal(*victims, []string{"t0"}) {
		t.Fatalf("evictor's pass evicted %v, want only the older dirty t0", *victims)
	}
	if !resident(t, r, "t2") || !resident(t, r, "t1") {
		t.Fatal("the pass evicted the most recently used model or more than it needed")
	}
}
