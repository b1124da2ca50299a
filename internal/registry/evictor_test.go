package registry

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
)

// seedTenants creates tenants t0…t<n-1> in dir, each taught the same
// two classes, closes the registry (every tenant cold, its WAL folded)
// and returns one tenant's resident bytes.
func seedTenants(t *testing.T, dir string, cfg hdc.Config, n int) int64 {
	t.Helper()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := r.Create(name, cfg); err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"g0", "g1"} {
			if err := r.Learn(name, label, randomWindow(cfg, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	info, err := r.ModelInfo("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return int64(info.ResidentBytes)
}

// holdEvictions makes every eviction on r wait until release is
// called, reporting its victim on entered when the channel has room.
func holdEvictions(r *Registry) (entered <-chan string, release func()) {
	ch := make(chan string, 1)
	gate := make(chan struct{})
	r.beforeEvict = func(name string) {
		select {
		case ch <- name:
		default:
		}
		<-gate
	}
	var once sync.Once
	return ch, func() { once.Do(func() { close(gate) }) }
}

// residentBytes is the registry's resident total, read without any
// entry lock, so it answers while an eviction holds one.
func residentBytes(r *Registry) int64 {
	_, total := r.pickVictim(false)
	return total
}

// await returns what ch delivers, failing the test when it takes
// longer than a deadlock would allow.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestOverflowingRequestAnswersBeforeEviction pins the evictor's
// contract: the learn that pushes the resident set over the budget
// answers while the evictor is still writing the dirty LRU victim's
// snapshot, its timeline holds no eviction or snapshot span, a
// predict on the victim answers mid-snapshot without waiting, and the
// victim is evicted, its WAL folded, once the eviction completes.
func TestOverflowingRequestAnswersBeforeEviction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, 2)
	r, err := Open(Config{Dir: dir, ResidentBudget: size})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	entered, release := holdEvictions(r)
	defer release()
	rng := rand.New(rand.NewSource(5))

	// t0 alone fits the budget; one learn leaves it dirty.
	if err := r.Learn("t0", "g0", randomWindow(cfg, rng)); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpans(64)
	done := make(chan error, 1)
	go func() {
		_, err := r.CorrectInfo(rec, "t1", "g1", randomWindow(cfg, rng))
		done <- err
	}()
	if err := await(t, done, "the overflowing learn"); err != nil {
		t.Fatal(err)
	}
	if victim := await(t, entered, "the evictor"); victim != "t0" {
		t.Fatalf("evictor took %q, want the LRU t0", victim)
	}
	names := spanNames(rec)
	if names["registry.evict"] != 0 || names["registry.snapshot"] != 0 {
		t.Errorf("overflowing learn's timeline holds eviction spans: %v", names)
	}
	if names["registry.faultin"] == 0 {
		t.Errorf("overflowing learn's timeline lacks its own fault-in: %v", names)
	}

	// The evictor holds t0's entry lock mid-eviction; predicts on t0
	// read its Serving without it.
	answered := make(chan string, 1)
	go func() {
		sv, err := r.Serving(nil, "t0")
		if err != nil {
			answered <- err.Error()
			return
		}
		label, _ := sv.Predict(randomWindow(cfg, rng))
		answered <- label
	}()
	if label := await(t, answered, "a predict on the victim"); label != "g0" && label != "g1" {
		t.Fatalf("predict on the victim answered %q", label)
	}

	release()
	// ModelInfo takes t0's entry lock, which the eviction holds until
	// it is done.
	info, err := r.ModelInfo("t0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Resident || info.WALRecords != 0 {
		t.Fatalf("victim after its eviction: %+v, want cold with its WAL folded", info)
	}
}

// TestFaultInsWaitForRoom holds the evictor mid-eviction and faults
// cold tenants in: one fits beside the victim in flight, every later
// one waits for room, none deadlocks, and the resident bytes never
// exceed the budget by more than the victim in flight plus one model
// per concurrent fault-in.
func TestFaultInsWaitForRoom(t *testing.T) {
	const faulters = 4
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, faulters+4)
	budget := 2 * size
	r, err := Open(Config{Dir: dir, ResidentBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	entered, release := holdEvictions(r)
	defer release()

	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	stopSampling := sync.OnceFunc(func() { close(stop); <-sampled })
	defer stopSampling()
	go func() {
		defer close(sampled)
		for {
			if b := residentBytes(r); b > peak.Load() {
				peak.Store(b)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	if err := r.Learn("t0", "g0", randomWindow(cfg, rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}
	mustServing(t, r, "t1")
	// Three models: the evictor takes t1, the lowest credit (clean, and
	// older than t2, which it spares as the most recently used; dirty t0
	// costs a snapshot to lose), and holds.
	mustServing(t, r, "t2")
	if victim := await(t, entered, "the evictor"); victim != "t1" {
		t.Fatalf("evictor took %q, want the clean t1", victim)
	}
	mustServing(t, r, "t3") // fits once t1 is gone: no wait
	held := residentBytes(r)
	if held != budget+2*size {
		t.Fatalf("resident %d B with t1 in flight and t3 in, want %d", held, budget+2*size)
	}

	var wg sync.WaitGroup
	var finished atomic.Int32
	for i := 0; i < faulters; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := r.Serving(nil, name); err != nil {
				t.Error(err)
			}
			finished.Add(1)
		}(fmt.Sprintf("t%d", 4+i))
	}
	time.Sleep(100 * time.Millisecond)
	if n := finished.Load(); n != 0 {
		t.Errorf("%d fault-ins returned while the set, less the victim in flight, was over budget", n)
	}
	if b := residentBytes(r); b != held {
		t.Errorf("resident %d B while fault-ins wait, want %d", b, held)
	}

	release()
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	await(t, all, "the waiting fault-ins")
	stopSampling()
	if bound := budget + size + faulters*size; peak.Load() > bound {
		t.Errorf("resident peak %d B exceeds budget %d + victim %d + %d fault-ins × %d", peak.Load(), budget, size, faulters, size)
	}
	// The evictor, woken by the fault-ins, brings the set back within
	// the budget on its own.
	for deadline := time.Now().Add(10 * time.Second); residentBytes(r) > budget; {
		if time.Now().After(deadline) {
			t.Fatalf("resident %d B never returned within budget %d", residentBytes(r), budget)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseStopsEvictor closes a registry whose evictor is mid-way
// through a dirty eviction: Close waits for it, the evictor goroutine
// is gone when Close returns, and nothing writes to the state
// directory afterwards.
func TestCloseStopsEvictor(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(hdc.BackendStored)
	size := seedTenants(t, dir, cfg, 2)
	goroutines := runtime.NumGoroutine()
	r, err := Open(Config{Dir: dir, ResidentBudget: size})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdEvictions(r)
	defer release()
	var evictions atomic.Int32
	hold := r.beforeEvict
	r.beforeEvict = func(name string) { evictions.Add(1); hold(name) }
	if err := r.Learn("t0", "g0", randomWindow(cfg, rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
	mustServing(t, r, "t1")
	await(t, entered, "the evictor")

	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned with an eviction in flight")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := await(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}

	before := dirState(t, dir)
	r.wakeEvictor()
	r.EnforceBudget()
	if _, err := r.Serving(nil, "t0"); err == nil {
		t.Fatal("closed registry served a model")
	}
	time.Sleep(50 * time.Millisecond)
	if after := dirState(t, dir); after != before {
		t.Fatalf("state directory changed after Close:\n%s\nthen\n%s", before, after)
	}
	if n := evictions.Load(); n != 1 {
		t.Fatalf("%d evictions, want only the one in flight at Close", n)
	}
	// The eviction Close waited for folded t0's WAL.
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if info, _ := r2.ModelInfo("t0"); info.WALRecords != 0 {
		t.Fatalf("t0 reopened with %d WAL records, want 0", info.WALRecords)
	}
}

// dirState lists dir's files with their sizes and modification times.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		s += fmt.Sprintf("%s %d %d\n", e.Name(), fi.Size(), fi.ModTime().UnixNano())
	}
	return s
}
