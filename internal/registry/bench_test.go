package registry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
)

// BenchmarkRegistryEvictFaultIn times one evict → fault-in round trip
// of a persistent five-class model at the paper's EMG geometry, the
// cycle a model pays each time the resident budget pushes it out and
// a request pulls it back. evict-ns/op and faultin-ns/op split the
// round trip. A dirty model takes one learn before each eviction, so
// the eviction writes and fsyncs a snapshot; a clean model's eviction
// writes nothing. Fault-in on the stored backend reuses the item
// memories NewServing shares; remat rebuilds its expansion keys. Each
// class learns 5 or 1,000 times before the loop: three or ten count
// planes per class, the second where a hot tenant's classes sit.
func BenchmarkRegistryEvictFaultIn(b *testing.B) {
	for _, state := range []string{"clean", "dirty"} {
		for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
			for _, learns := range []int{5, 1000} {
				b.Run(fmt.Sprintf("%s/%s/learns=%d", state, backend, learns), func(b *testing.B) {
					benchEvictFaultIn(b, backend, state == "dirty", learns)
				})
			}
		}
	}
}

func benchEvictFaultIn(b *testing.B, backend hdc.Backend, dirty bool, learns int) {
	cfg := hdc.EMGConfig()
	cfg.Backend = backend
	rng := rand.New(rand.NewSource(1))
	r, err := Open(Config{Dir: b.TempDir(), ResidentBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Create("m", cfg); err != nil {
		b.Fatal(err)
	}
	labels := []string{"rest", "fist", "point", "grip", "open"}
	for i := 0; i < learns*len(labels); i++ {
		if err := r.Learn("m", labels[i%len(labels)], randomWindow(cfg, rng)); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Snapshot("m"); err != nil {
		b.Fatal(err)
	}
	w := randomWindow(cfg, rng)
	var evict, faultIn time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty {
			if err := r.Learn("m", "rest", w); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		r.EnforceBudget()
		t1 := time.Now()
		if _, err := r.Serving(nil, "m"); err != nil {
			b.Fatal(err)
		}
		evict += t1.Sub(t0)
		faultIn += time.Since(t1)
	}
	b.ReportMetric(float64(evict.Nanoseconds())/float64(b.N), "evict-ns/op")
	b.ReportMetric(float64(faultIn.Nanoseconds())/float64(b.N), "faultin-ns/op")
}

// BenchmarkRegistryOverflow times only the request that pushes the
// resident set over the budget: a fault-in of a cold five-class model
// (5 learns per class) at the EMG geometry while the victim, the one
// other model and alone a full budget, holds one WAL record.
// Evicting the victim writes and fsyncs its snapshot; the request pays
// for that only when the eviction runs on the request path. Making the
// victim dirty and draining the eviction (EnforceBudget) run off the
// timer.
func BenchmarkRegistryOverflow(b *testing.B) {
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		b.Run(backend.String(), func(b *testing.B) { benchOverflow(b, backend) })
	}
}

func benchOverflow(b *testing.B, backend hdc.Backend) {
	cfg := hdc.EMGConfig()
	cfg.Backend = backend
	rng := rand.New(rand.NewSource(1))
	dir := b.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	labels := []string{"rest", "fist", "point", "grip", "open"}
	for _, name := range []string{"victim", "requester"} {
		if _, err := r.Create(name, cfg); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5*len(labels); i++ {
			if err := r.Learn(name, labels[i%len(labels)], randomWindow(cfg, rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
	info, err := r.ModelInfo("victim")
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	if r, err = Open(Config{Dir: dir, ResidentBudget: int64(info.ResidentBytes)}); err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	w := randomWindow(cfg, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The learn faults the victim in over the cold requester (or
		// evicts the requester, clean, from the previous round).
		if err := r.Learn("victim", "rest", w); err != nil {
			b.Fatal(err)
		}
		r.EnforceBudget()
		b.StartTimer()
		if _, err := r.Serving(nil, "requester"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.EnforceBudget()
		b.StartTimer()
	}
}

// BenchmarkRegistryZipfMix runs tenants-durable's mix in process: eight
// five-class tenants at the EMG geometry, stored and remat alternating,
// each seeded with 8 learns per class, then reopened with SyncWAL under
// a budget of the four hottest tenants' resident bytes. Each operation
// picks a tenant by Zipf (s = 2) and is a learn one time in five, a
// predict otherwise. The evictor settles after every operation, so
// faultins/kop, evictions/kop and snapshots/klearn are counts of the
// victim policy alone: at a fixed -benchtime Nx they are the same on
// any host. ns/op includes the settle, the evictor's snapshot writes
// with it.
func BenchmarkRegistryZipfMix(b *testing.B) {
	const tenants = 8
	labels := []string{"rest", "fist", "point", "grip", "open"}
	rng := rand.New(rand.NewSource(1))
	dir := b.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	var budget int64
	cum := make([]float64, tenants)
	windows := make([][][]float64, 64)
	for i := 0; i < tenants; i++ {
		cfg := hdc.EMGConfig()
		cfg.Backend = []hdc.Backend{hdc.BackendStored, hdc.BackendRemat}[i%2]
		name := fmt.Sprintf("t%d", i)
		if _, err := r.Create(name, cfg); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8*len(labels); j++ {
			if err := r.Learn(name, labels[j%len(labels)], randomWindow(cfg, rng)); err != nil {
				b.Fatal(err)
			}
		}
		if i < tenants/2 {
			info, err := r.ModelInfo(name)
			if err != nil {
				b.Fatal(err)
			}
			budget += int64(info.ResidentBytes)
		}
		cum[i] = math.Pow(float64(i+1), -2)
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	for i := range windows {
		windows[i] = randomWindow(hdc.EMGConfig(), rng)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	m := obs.NewRegistryMetrics()
	if r, err = Open(Config{Dir: dir, SyncWAL: true, ResidentBudget: budget, Metrics: m}); err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	learns := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := sort.SearchFloat64s(cum, rng.Float64()*cum[tenants-1])
		name, w := fmt.Sprintf("t%d", ti), windows[i%len(windows)]
		if rng.Float64() < 0.2 {
			learns++
			if err := r.Learn(name, labels[rng.Intn(len(labels))], w); err != nil {
				b.Fatal(err)
			}
		} else {
			sv, err := r.Serving(nil, name)
			if err != nil {
				b.Fatal(err)
			}
			sv.Predict(w)
		}
		settle(b, r)
	}
	b.StopTimer()
	b.ReportMetric(1000*float64(m.FaultIns.Value())/float64(b.N), "faultins/kop")
	b.ReportMetric(1000*float64(m.Evictions.Value())/float64(b.N), "evictions/kop")
	b.ReportMetric(1000*float64(m.Snapshots.Value())/float64(max(learns, 1)), "snapshots/klearn")
}
